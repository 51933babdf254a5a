"""Drift-diffusion equation for continuously monitored charge.

Under diffusive monitoring the accumulated charge is continuous, and the
charge-resolved state obeys a drift-diffusion equation with operator
coefficients: each node of a uniform charge grid carries an unnormalized
density matrix, drift comes from a superoperator built out of the
monitored channels, and diffusion is a scalar set by the channel weights.
Central differences turn this into a block-tridiagonal generator; nodes
beyond the grid are held at zero, which implements absorption, and the
rate of total-weight loss is the first-passage density.

Threshold semantics: a threshold at charge c puts the zeroed ghost node
exactly at c, so the last live node sits at c - delta.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse

from .errors import ConfigError, DegenerateKernelError, PhysicsError
from .operators import (
    DriftSuperoperator,
    LindbladModel,
    build_drift_superoperator,
    build_liouvillian,
    current_cumulants,
    trace_functional,
    vectorize,
)
from .propagation import (
    EDGE_TOLERANCE,
    STEP_FACTOR,
    BlockGenerator,
    BlockState,
    Discretisation,
    FptSolution,
    _non_finite,
    default_step,
    initial_density,
    positive_finite,
    propagate_uniform,
    solve_absorbing,
)

DEFAULT_RESOLUTION = 0.01
PECLET_LIMIT = 2.0
ALIGNMENT_TOL = 1e-9


@dataclass(frozen=True)
class ChargeGrid:
    """Uniform charge grid on [lower, upper] with zeroed ghosts outside."""

    lower: float
    upper: float
    delta: float

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ConfigError("grid spacing must be positive and finite")
        if not (self.lower < 0.0 < self.upper):
            raise ConfigError(
                f"grid [{self.lower}, {self.upper}] must straddle charge 0"
            )
        for name, edge in (("lower", self.lower), ("upper", self.upper)):
            ratio = edge / self.delta
            if abs(ratio - round(ratio)) > ALIGNMENT_TOL * max(1.0, abs(ratio)):
                raise ConfigError(
                    f"{name} edge {edge} is not a multiple of the spacing "
                    f"{self.delta}, so charge 0 would fall between nodes"
                )
        object.__setattr__(self, "lower", round(self.lower / self.delta) * self.delta)
        object.__setattr__(self, "upper", round(self.upper / self.delta) * self.delta)

    @property
    def ncells(self) -> int:
        return int(round((self.upper - self.lower) / self.delta)) + 1

    @property
    def nodes(self) -> np.ndarray:
        return self.lower + self.delta * np.arange(self.ncells)

    @property
    def cell_width(self) -> float:
        """Charge per node: a node trace times this is probability mass."""
        return self.delta

    @property
    def zero_index(self) -> int:
        return int(round(-self.lower / self.delta))

    @property
    def trace_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights over the nodes."""
        w = np.full(self.ncells, self.delta)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def index(self, charge: float) -> int:
        ratio = (charge - self.lower) / self.delta
        i = int(round(ratio))
        if abs(ratio - i) > 1e-6 or not 0 <= i < self.ncells:
            raise ValueError(f"charge {charge} is not a grid node")
        return i

    def widened(self, grow_lower: bool, grow_upper: bool) -> "ChargeGrid":
        """Grid with the flagged sides moved out to twice their distance
        plus one, rounded outward to the spacing."""
        lower, upper = self.lower, self.upper
        if grow_lower:
            lower = _round_to(2.0 * lower - 1.0, self.delta, -1)
        if grow_upper:
            upper = _round_to(2.0 * upper + 1.0, self.delta, +1)
        return ChargeGrid(lower, upper, self.delta)


def peclet_number(drift: DriftSuperoperator, delta: float) -> float:
    return float(np.linalg.norm(drift.matrix, 2)) * delta / drift.diffusion


def build_fokker_planck_generator(model: LindbladModel, grid: ChargeGrid) -> BlockGenerator:
    """Assemble the central-difference generator on a charge grid.

    Per node: the full dissipative generator, minus drift toward larger
    charge at first-difference order, plus scalar diffusion at second
    order.  Ghost nodes outside the grid are zero, so edge stencils lose
    weight; that loss is the first-passage flux.  The stencil blocks sum
    to the trace-preserving generator, so the flux of node j is
    (delta - w_j) tr o diag + (delta - w_(j-1)) tr o up + (delta - w_(j+1))
    tr o down for the trapezoidal weights w, zero outside the grid: the
    half-weight edge node and the ghost beyond it give each side's flux.
    """
    drift = build_drift_superoperator(model)
    pe = peclet_number(drift, grid.delta)
    if pe > PECLET_LIMIT:
        warnings.warn(
            f"drift dominates diffusion on this grid (cell ratio {pe:.2f} > "
            f"{PECLET_LIMIT:g}); central differences may oscillate, refine "
            "the charge spacing",
            RuntimeWarning,
            stacklevel=2,
        )
    d = model.dim
    m = grid.ncells
    dn = grid.delta
    eye = np.eye(d * d, dtype=complex)
    liou = build_liouvillian(model)
    diag = liou - (drift.diffusion / dn**2) * eye
    up = -drift.matrix / (2 * dn) + (drift.diffusion / (2 * dn**2)) * eye
    down = drift.matrix / (2 * dn) + (drift.diffusion / (2 * dn**2)) * eye
    shift_up = scipy.sparse.eye(m, k=1, format="csr")
    shift_down = scipy.sparse.eye(m, k=-1, format="csr")
    matrix = (
        scipy.sparse.kron(scipy.sparse.identity(m), diag, format="csr")
        + scipy.sparse.kron(shift_up, up, format="csr")
        + scipy.sparse.kron(shift_down, down, format="csr")
    )
    matrix = matrix.tocsr()
    tr = trace_functional(d)
    survival = np.kron(grid.trace_weights, tr).astype(complex)
    # delta - w on the nodes -1..m, split into the ghost and edge node of each side
    deficit = dn - np.concatenate(([0.0], grid.trace_weights, [0.0]))
    lower, upper = np.zeros((2, m + 2))
    lower[:2], upper[-2:] = deficit[:2], deficit[-2:]

    def flux(e: np.ndarray) -> np.ndarray:
        return np.kron(e[1:-1], tr @ diag) + np.kron(e[:-2], tr @ up) + np.kron(e[2:], tr @ down)

    return BlockGenerator(d, matrix, survival, flux(upper), flux(lower))


def conditioned_charge_distribution(state: BlockState) -> tuple[np.ndarray, np.ndarray]:
    """Node charges and densities of the survivors of a node-resolved state
    on a ``ChargeGrid``, normalized to unit trapezoidal integral; see
    ``BlockState.clipped_traces``."""
    traces = state.clipped_traces()
    total = float(state.domain.trace_weights @ traces)
    if total <= 0:
        raise PhysicsError("no surviving weight to condition on")
    return state.domain.nodes, traces / total


def _default_step(
    model: LindbladModel, drift: DriftSuperoperator, nearest_threshold: float
) -> float:
    """Output step resolving the fastest of the dissipative, drift and
    diffusion scales.

    A threshold close to the starting charge makes absorption spike at
    times of order distance squared over the diffusion constant, so the
    step also resolves that scale.
    """
    dt = default_step(
        max(model.rate_scale(), drift.diffusion, float(np.linalg.norm(drift.matrix, 2)))
    )
    return min(dt, STEP_FACTOR * nearest_threshold**2 / drift.diffusion)


def mean_charge_path(
    model: LindbladModel, rho0: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Unconditional mean charge versus time.

    The ensemble average of the charge increment is the weighted sum of
    channel expectation currents, so the mean path follows from the plain
    dissipative evolution, with no grid involved.
    """
    liou = build_liouvillian(model)
    functional = np.zeros(model.dim**2, dtype=complex)
    for ch in model.monitored:
        a = ch.rotated_operator()
        functional += ch.weight * vectorize((a + a.conj().T).T)
    rates = np.empty(times.size)
    for start, chunk, _ in propagate_uniform(
        liou, vectorize(rho0), times, rows=functional[None, :]
    ):
        rates[start : start + chunk.shape[0]] = chunk[:, 0]
    bad = ~np.isfinite(rates)
    if bad.any():
        raise _non_finite(int(np.argmax(bad)))
    return scipy.integrate.cumulative_trapezoid(rates, times, initial=0.0)


def real_threshold(value, sign: int):
    """A diffusion threshold, a finite real charge that is positive for
    ``sign=+1`` and negative for ``sign=-1``; returned unchanged."""
    if value is None:
        return None
    side, kind = ("upper", "positive") if sign > 0 else ("lower", "negative")
    if not math.isfinite(value):
        raise ConfigError(f"{side} threshold must be finite, got {value!r}")
    if sign * value <= 0:
        raise ConfigError(f"{side} threshold must be {kind}")
    return value


def _round_to(value: float, delta: float, direction: int) -> float:
    steps = value / delta
    steps = math.floor(steps) if direction < 0 else math.ceil(steps)
    return steps * delta


def _open_margins(
    model: LindbladModel, drift: DriftSuperoperator, horizon: float
) -> tuple[float, float]:
    """Charge margins of the lower and upper open sides beyond the mean path.

    Each side gets 8 sqrt(D T) + 1 for the grid's diffusion constant D.
    The side that the steady current J drifts away from is ever reached at
    depth a with probability about exp(-2 |J| a / D_J), D_J the current
    noise, so it needs only the depth where that falls to
    ``EDGE_TOLERANCE``, when this is shallower.  A degenerate steady state
    has no single current and keeps the diffusive margin.
    """
    spread = 8.0 * math.sqrt(drift.diffusion * horizon)
    try:
        current, noise = current_cumulants(model, "diffusion")
    except DegenerateKernelError:
        current, noise = 0.0, 0.0
    depth = spread
    if current != 0.0 and math.isfinite(current) and 0.0 < noise < math.inf:
        depth = min(spread, math.log(1.0 / EDGE_TOLERANCE) * noise / (2.0 * abs(current)))
    lower, upper = (depth, spread) if current > 0.0 else (spread, depth)
    return lower + 1.0, upper + 1.0


def _auto_grid(
    model: LindbladModel,
    drift: DriftSuperoperator,
    rho0: np.ndarray,
    threshold: float | None,
    lower_threshold: float | None,
    delta: float | None,
    horizon: float,
) -> ChargeGrid:
    """Grid guess: thresholds place hard edges one node inside the ghost;
    open sides follow the unconditional mean path plus the margins of
    ``_open_margins``."""
    probe = np.linspace(0.0, horizon, 200)
    mean = mean_charge_path(model, rho0, probe)
    lower_margin, upper_margin = _open_margins(model, drift, horizon)
    hi_guess = float(mean.max()) + upper_margin
    lo_guess = float(mean.min()) - lower_margin
    if delta is None:
        span_hi = threshold if threshold is not None else hi_guess
        span_lo = lower_threshold if lower_threshold is not None else lo_guess
        delta = DEFAULT_RESOLUTION * min(1.0, span_hi - span_lo)
    if threshold is not None:
        # snap the spacing so the ghost node lands exactly on the threshold
        delta = threshold / max(2, round(threshold / delta))
    elif lower_threshold is not None:
        delta = -lower_threshold / max(2, round(-lower_threshold / delta))
    if threshold is not None and lower_threshold is not None:
        ratio = -lower_threshold / delta
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, abs(ratio)):
            raise ConfigError(
                f"thresholds {lower_threshold} and {threshold} do not share "
                f"a grid of spacing {delta:g}; pass delta or grid explicitly"
            )
    upper = threshold - delta if threshold is not None else _round_to(hi_guess, delta, +1)
    lower = lower_threshold + delta if lower_threshold is not None else _round_to(lo_guess, delta, -1)
    upper = max(upper, delta)
    lower = min(lower, -delta)
    return ChargeGrid(lower, upper, delta)


def solve_diffusion_fpt(
    model: LindbladModel,
    *,
    threshold: float | None = None,
    lower_threshold: float | None = None,
    grid: ChargeGrid | None = None,
    delta: float | None = None,
    initial: np.ndarray | str = "steady",
    horizon: float = 10.0,
    dt: float | None = None,
    auto_tail: bool = False,
    tail_epsilon: float = 1e-6,
) -> FptSolution:
    """Solve the absorbing charge drift-diffusion problem.

    Thresholds are real charges; each one pins its side of the grid with
    the zeroed ghost node exactly on the threshold.  Open sides start from
    the unconditional mean path plus a diffusive margin, shallower on the
    side the steady current drifts away from (``_open_margins``), and are
    widened until the edge mass stays negligible over the horizon.  ``auto_tail``
    doubles the horizon until survival drops under ``tail_epsilon``;
    distributions that never fully absorb will hit the horizon cap
    instead, so leave it off for conditioned studies.
    """
    horizon = positive_finite(horizon, "horizon")
    if delta is not None:
        delta = positive_finite(delta, "delta")
    model.require_channels()
    drift = build_drift_superoperator(model)
    rho0 = initial_density(model, initial)
    if grid is not None and (threshold is not None or lower_threshold is not None):
        raise ConfigError("pass either an explicit grid or thresholds, not both")
    if grid is not None and delta is not None:
        raise ConfigError("pass either an explicit grid or delta, not both")
    real_threshold(threshold, +1)
    real_threshold(lower_threshold, -1)

    if grid is not None:
        work, lower_open, upper_open = grid, False, False
        near = min(work.upper + work.delta, -work.lower + work.delta)
    else:
        work = _auto_grid(model, drift, rho0, threshold, lower_threshold, delta, horizon)
        lower_open = lower_threshold is None
        upper_open = threshold is None
        near = min(
            threshold if threshold is not None else math.inf,
            -lower_threshold if lower_threshold is not None else math.inf,
        )
    return solve_absorbing(
        Discretisation(
            functools.partial(build_fokker_planck_generator, model), rho0, "deterministic-diffusion"
        ),
        work,
        lower_open=lower_open,
        upper_open=upper_open,
        horizon=horizon,
        dt=dt if dt is not None else _default_step(model, drift, near),
        auto_tail=auto_tail,
        tail_epsilon=tail_epsilon,
    )
