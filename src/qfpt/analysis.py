"""Shared first-passage-time containers, moments and comparisons."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .errors import PhysicsError, TailNotConvergedError

logger = logging.getLogger(__name__)

TAIL_EPSILON = 1e-6
LEDGER_TOL = 1e-6

PROVENANCES = ("deterministic-jump", "deterministic-diffusion", "monte-carlo")


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
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "density", f)
        object.__setattr__(self, "survival", g)
        self._validate()

    def _validate(self):
        t, f, g = self.times, self.density, self.survival
        uniform_step(t)
        if abs(g[0] - 1.0) > 1e-9:
            raise PhysicsError(f"survival at the first grid point is {g[0]!r}, not 1")
        if np.min(f) < -1e-10:
            raise PhysicsError(f"density has negative excursion {np.min(f):.3e}")
        increases = np.diff(g)
        if increases.size and np.max(increases) > 1e-10:
            raise PhysicsError(
                f"survival increases by {np.max(increases):.3e} along the grid"
            )
        absorbed = trapezoid(f, t)
        residue = abs(g[-1] + absorbed - 1.0)
        tol = LEDGER_TOL
        if self.provenance == "monte-carlo":
            # Histogram densities are exact under the midpoint sum, not the
            # trapezoid; allow the half-bin edge correction.
            dt = t[1] - t[0] if t.size > 1 else 0.0
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
        dt = self.times[1] - self.times[0]
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (self.density[1:] + self.density[:-1]) * dt))
        )
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
    absorbed = float(trapezoid(f, t))
    if absorbed <= 1e-12:
        raise TailNotConvergedError(
            "no probability was absorbed within the horizon; the threshold "
            "may be unreachable or the horizon far too short"
        )
    mean = float(trapezoid(t * f, t)) / absorbed
    second = float(trapezoid(t * t * f, t)) / absorbed
    return FptMoments.from_raw(mean, second, absorbed)


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


def write_series_csv(path, result: FptResult, *, config_hash: str = "") -> None:
    """Write t, G, f columns with deterministic formatting."""
    with open(path, "w") as fh:
        fh.write(f"# provenance={result.provenance}\n# config_hash={config_hash}\nt,G,f\n")
        # one format call per row, the same digits as ``format_float``
        fh.writelines(map(
            "{:.12g},{:.12g},{:.12g}\n".format,
            result.times.tolist(), result.survival.tolist(), result.density.tolist(),
        ))
