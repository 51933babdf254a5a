"""Shared first-passage-time containers, moments and comparisons."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError, TailNotConvergedError

TAIL_EPSILON = 1e-6
LEDGER_TOL = 1e-6
# survival this far above 1 is an error, not roundoff
WEIGHT_EXCESS_TOLERANCE = 1e-6

PROVENANCES = ("deterministic-jump", "deterministic-diffusion", "monte-carlo")


def trapezoid_steps(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-interval trapezoid integrals of ``y`` over ``x``, in the operation
    order of scipy's ``trapezoid`` and ``cumulative_trapezoid``: their sum and
    cumulative sum equal those bit for bit."""
    return np.diff(x) * (y[1:] + y[:-1]) / 2.0


def uniform_step(times: np.ndarray) -> float:
    """Grid spacing, verifying uniformity to relative 1e-9."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need at least two grid points")
    steps = np.diff(t)
    dt = float(steps[0])
    if dt <= 0 or np.max(np.abs(steps - dt)) > 1e-9 * max(abs(dt), 1.0):
        raise ValueError("time grid must be uniformly spaced and increasing")
    return dt


@dataclass(frozen=True)
class FptResult:
    """First-passage-time density and survival on a uniform time grid.

    ``density`` is unconditional: its integral up to the horizon equals the
    probability of absorption by then, and ``survival`` carries the rest.
    The series as given is refused if its density falls below -1e-10, its
    survival rises by more than 1e-10 or passes 1 +
    ``WEIGHT_EXCESS_TOLERANCE``; it is stored clipped, and the stored
    series must start at survival 1 and close the ledger to ``LEDGER_TOL``.
    """

    times: np.ndarray
    density: np.ndarray
    survival: np.ndarray
    provenance: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.density, dtype=float)
        g = np.asarray(self.survival, dtype=float)
        if not (t.shape == f.shape == g.shape) or t.ndim != 1:
            raise ValueError("times, density and survival must share one shape")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        for name, arr in (("times", t), ("density", f), ("survival", g)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        dt = uniform_step(t)
        if np.min(f) < -1e-10:
            raise PhysicsError(f"density has negative excursion {np.min(f):.3e}")
        if np.max(g) > 1.0 + WEIGHT_EXCESS_TOLERANCE:
            raise PhysicsError(f"total weight grew to {np.max(g):.8f}")
        rise = np.max(np.diff(g))
        if rise > 1e-10:
            raise PhysicsError(f"survival increases by {rise:.3e} along the grid")
        # what passed is roundoff: stored clipped to a nonnegative density
        # and a survival that never rises or leaves [0, 1]
        f, g = np.clip(f, 0.0, None), np.minimum.accumulate(np.clip(g, 0.0, 1.0))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "density", f)
        object.__setattr__(self, "survival", g)
        if abs(g[0] - 1.0) > 1e-9:
            raise PhysicsError(f"survival at the first grid point is {float(g[0])!r}, not 1")
        absorbed = trapezoid_steps(f, t).sum()
        residue = abs(g[-1] + absorbed - 1.0)
        tol = LEDGER_TOL
        if self.provenance == "monte-carlo":
            # Histogram densities are exact under the midpoint sum, not the
            # trapezoid; allow the half-bin edge correction.
            tol = LEDGER_TOL + 0.5 * dt * (f[0] + f[-1]) + 1e-9
        if residue > tol:
            raise PhysicsError(
                f"probability ledger violated: |G(T) + int f - 1| = {residue:.3e}; "
                "for deterministic series this is trapezoid quadrature error, "
                "reduce the time step"
            )

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def absorbed_probability(self) -> float:
        return float(1.0 - self.survival[-1])

    def conditional_cdf(self) -> np.ndarray:
        """CDF of the hit time conditioned on absorption within the horizon."""
        absorbed = self.absorbed_probability
        if absorbed <= 0.0:
            raise PhysicsError("no absorbed probability mass within the horizon")
        cum = np.concatenate(([0.0], np.cumsum(trapezoid_steps(self.density, self.times))))
        return np.clip(cum / absorbed, 0.0, 1.0)


@dataclass(frozen=True)
class FptMoments:
    mean: float
    variance: float
    snr: float
    absorbed_probability: float

    @classmethod
    def from_raw(cls, mean: float, second: float, absorbed: float) -> "FptMoments":
        """Moments from the mean and second moment of the hit time."""
        variance = max(second - mean * mean, 0.0)
        snr = mean * mean / variance if variance > 0 else float("inf")
        return cls(mean, variance, snr, absorbed)


def integrate_moments(
    result: FptResult,
    *,
    require_tail: bool = True,
) -> FptMoments:
    """Trapezoidal moments of the hit time, conditioned on absorption.

    With ``require_tail`` the survival at the horizon must fall below
    ``TAIL_EPSILON``; otherwise the computation refuses and asks for a
    longer horizon.  ``require_tail=False`` accepts defective distributions
    and reports moments conditioned on absorption before the horizon.
    """
    t, f, g = result.times, result.density, result.survival
    if require_tail and g[-1] >= TAIL_EPSILON:
        raise TailNotConvergedError(
            f"tail not converged: G(T) = {g[-1]:.3e} at T = {t[-1]:g}; "
            f"increase the horizon beyond {t[-1]:g} until G(T) < {TAIL_EPSILON:g}"
        )
    absorbed, first, second = (float(trapezoid_steps(y, t).sum()) for y in (f, t * f, t * t * f))
    if absorbed <= 1e-12:
        raise TailNotConvergedError(
            "no probability was absorbed within the horizon; the threshold "
            "may be unreachable or the horizon far too short"
        )
    return FptMoments.from_raw(first / absorbed, second / absorbed, absorbed)


def _extract_hit_times(empirical) -> np.ndarray:
    hits = getattr(empirical, "hit_times", empirical)
    hits = np.asarray(hits, dtype=float)
    return hits[np.isfinite(hits)]


def ks_distance(result: FptResult, empirical) -> float:
    """Kolmogorov-Smirnov distance between a deterministic density and
    sampled hit times.

    ``empirical`` is an ensemble carrying ``hit_times`` or a plain array;
    censored entries (NaN) are dropped, matching the conditioning of the
    deterministic CDF on absorption within the horizon.
    """
    hits = np.sort(_extract_hit_times(empirical))
    if hits.size == 0:
        raise ValueError("no absorbed trajectories to compare against")
    cdf = result.conditional_cdf()
    at_hits = np.interp(hits, result.times, cdf)
    n = hits.size
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(at_hits - upper), np.abs(at_hits - lower))))


def format_float(x: float) -> str:
    return f"{x:.12g}"


# ``formatted_bytes`` writes ``format_float`` by ndarray arithmetic, from
# the tables of ``_format_tables``: 10^k correctly rounded for k from
# _POW10_MIN, and the suffixes e+dd or e-ddd of each exponent in
# -_SUFFIX_MAX.._SUFFIX_MAX
_POW10_MIN = -280
_SUFFIX_MAX = 300
# a field is at most 19 bytes, "-1.23456789012e-308", and its separator
_FIELD_WIDTH = 20
# digits of a rounding whose scaled value lies this close to a half are
# left to ``format_float``; the scaling errs by at most 1.8e-4
_TIE_MARGIN = 1e-3
# layouts: 0..15 fixed with decimal exponent -4..11, then scientific
# with 1..12 significant digits from _SCIENTIFIC, then zero and the values
# left to ``format_float``
_SCIENTIFIC, _ZERO, _FALLBACK = 16, 28, 29
# rows a series CSV formats at a time: writing the README fpt-jump series
# (53,542 rows; 2-core x86_64, numpy 2.4.6) took a median 22-30 ms at
# 4,096 rows, 33-41 ms at 8,192 and 32-43 ms at 16,384, and the peak RSS
# of the process grows with the chunk (72.4, 74.9 and 79.8 MB)
CSV_CHUNK_ROWS = 4096


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The formatter's tables, built on the first write, read-only and
    shared: the powers of ten, the four ASCII digits of 0..9999 as one
    uint32, the trailing zeros among those four, each exponent's suffix
    and its length, the field columns and a chunk's row separators."""
    pow10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 306)])
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    # row 1000a + 100b + 10c + d holds "abcd", written by broadcasting
    quad_digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    quad_digits[..., 0] = digits[:, None, None, None]
    quad_digits[..., 1] = digits[:, None, None]
    quad_digits[..., 2] = digits[:, None]
    quad_digits[..., 3] = digits
    quad_digits = quad_digits.reshape(10_000, 4)
    # the run of "0" from the right of "abcd": 1 where d = 0, 2 where
    # c = d = 0, and so on
    quad_zeros = np.zeros((10, 10, 10, 10), np.int8)
    quad_zeros[..., 0] = 1
    quad_zeros[..., 0, 0] = 2
    quad_zeros[:, 0, 0, 0] = 3
    quad_zeros[0, 0, 0, 0] = 4
    powers = np.abs(np.arange(-_SUFFIX_MAX, _SUFFIX_MAX + 1))
    suffix = np.empty((powers.size, 5), np.uint8)
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(np.arange(powers.size) < _SUFFIX_MAX, ord("-"), ord("+"))
    suffix[:, 2:] = np.where(
        powers[:, None] < 100, quad_digits[powers][:, [2, 3, 3]], quad_digits[powers, 1:]
    )
    tables = (
        pow10, quad_digits.view(np.uint32).ravel(), quad_zeros.ravel(), suffix,
        (4 + (powers >= 100)).astype(np.int8), np.arange(_FIELD_WIDTH, dtype=np.int8),
        np.tile(np.frombuffer(b",,\n", np.uint8), CSV_CHUNK_ROWS),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def formatted_bytes(values: np.ndarray, separators: np.ndarray) -> bytes:
    """``format_float(v) + chr(s)`` for each value v of a 1-d float array
    and its uint8 separator s, joined: the same bytes, by ndarray
    arithmetic.

    The 12 significant digits of |v| are round(|v| 10^(11-e)) for its
    decimal exponent e, scaled by a correctly rounded power of ten.  They
    are certain when the scaled value lies more than ``_TIE_MARGIN`` from
    a half; every other value, and any outside 1e-290 <= |v| < 1e290 but
    zero, goes to ``format_float`` itself.  The fields are sorted by
    layout, so that each layout writes its rows of ``_FIELD_WIDTH`` bytes
    by slices, and each separator goes right after its field.
    """
    pow10, quad_words, quad_zeros, suffix, suffix_length, columns, _ = _format_tables()
    x = np.asarray(values, dtype=float)
    n = x.size
    a = np.abs(x)
    zero = a == 0.0
    sure = (a >= 1e-290) & (a < 1e290)
    a = np.where(sure, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * pow10[11 - _POW10_MIN - e]
    # log10 may overshoot by one just below a power of ten
    low = np.flatnonzero(y < 1e11)
    e[low] -= 1
    y[low] = a[low] * pow10[11 - _POW10_MIN - e[low]]
    r = np.rint(y)
    sure &= (np.abs(y - np.floor(y) - 0.5) > _TIE_MARGIN) & (r >= 1e11) & (r <= 1e12)
    carry = r == 1e12
    e += carry
    r[carry] = 1e11
    # 12 digits in three groups of four; the float quotients of these
    # integers below 2^53 floor exactly
    top = np.floor(r / 1e8)
    rest = r - top * 1e8
    mid = np.floor(rest / 1e4)
    groups = np.empty((n, 3), np.intp)
    groups[:, 0], groups[:, 1], groups[:, 2] = top, mid, rest - mid * 1e4
    zeros = quad_zeros[groups]
    z0, z1, z2 = zeros[:, 0], zeros[:, 1], zeros[:, 2]
    kept = 12 - (z2 + (z2 == 4) * (z1 + (z1 == 4) * z0))

    layout = np.where((e >= -4) & (e < 12), e + 4, _SCIENTIFIC - 1 + kept).astype(np.uint8)
    layout[zero] = _ZERO
    layout[~(sure | zero)] = _FALLBACK
    order = np.argsort(layout, kind="stable")
    ends = np.cumsum(np.bincount(layout, minlength=_FALLBACK + 1))
    digits = np.take(quad_words[groups], order, axis=0).view(np.uint8)
    e, kept, x = e[order], kept[order], x[order]
    out = np.empty((n, _FIELD_WIDTH), np.uint8)
    length = np.empty(n, np.int8)
    for kind in np.flatnonzero(np.diff(ends, prepend=0)):
        rows = slice(ends[kind - 1] if kind else 0, ends[kind])
        s = kept[rows]
        if kind < 4:
            # 0.000ddd: the point, then 3 - kind zeros before the digits
            lead = 5 - kind
            out[rows, :lead] = np.frombuffer(b"0.000"[:lead], np.uint8)
            out[rows, lead : lead + 12] = digits[rows]
            length[rows] = lead + s
        elif kind < _SCIENTIFIC:
            # ddd.ddd, the point after point = e + 1 digits
            point = kind - 3
            out[rows, :point] = digits[rows, :point]
            out[rows, point] = ord(".")
            out[rows, point + 1 : 13] = digits[rows, point:]
            length[rows] = np.where(s > point, s + 1, point)
        elif kind < _ZERO:
            # d.ddde-dd with cut significant digits
            cut = kind - _SCIENTIFIC + 1
            out[rows, 0] = digits[rows, 0]
            at = 1 if cut == 1 else cut + 1
            out[rows, 1] = ord(".")
            out[rows, 2:at] = digits[rows, 1:cut]
            power = e[rows] + _SUFFIX_MAX
            out[rows, at : at + 5] = suffix[power]
            length[rows] = at + suffix_length[power]
        elif kind == _ZERO:
            out[rows, 0] = ord("0")
            length[rows] = 1
        else:
            for i in range(rows.start, rows.stop):
                text = format_float(float(x[i])).encode()
                out[i, : len(text)] = np.frombuffer(text, np.uint8)
                length[i] = len(text)
    # the sign goes in front of every field laid out above
    minus = np.flatnonzero(np.signbit(x[: ends[_ZERO]]))
    out[minus, 1:] = out[minus, :-1]
    out[minus, 0] = ord("-")
    length[minus] += 1
    out.ravel()[np.arange(0, n * _FIELD_WIDTH, _FIELD_WIDTH) + length] = separators[order]
    back = np.empty_like(order)
    back[order] = np.arange(n)
    out, length = np.take(out, back, axis=0), np.take(length, back)
    return out.ravel()[(columns <= length[:, None]).ravel()].tobytes()


def write_series_csv(path, result: FptResult, *, config_hash: str = "") -> None:
    """Write t, G, f columns with deterministic formatting: each value as
    ``format_float`` gives it, ``CSV_CHUNK_ROWS`` rows at a time."""
    columns = (result.times, result.survival, result.density)
    separators = _format_tables()[-1]
    with open(path, "wb") as fh:
        fh.write(f"# provenance={result.provenance}\n# config_hash={config_hash}\nt,G,f\n".encode())
        for start in range(0, len(result.times), CSV_CHUNK_ROWS):
            values = np.stack([c[start : start + CSV_CHUNK_ROWS] for c in columns], axis=1).ravel()
            fh.write(formatted_bytes(values, separators[: values.size]))
