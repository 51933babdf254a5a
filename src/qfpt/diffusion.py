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

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse

from .errors import ConfigError, ModelError, PhysicsError
from .operators import (
    LindbladModel,
    build_liouvillian,
    left_multiplier,
    right_multiplier,
    trace_functional,
    vectorize,
)
from .propagation import (
    STEP_FACTOR,
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
TRACE_DENSITY_ABORT = 1e-9
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
    def nnodes(self) -> int:
        return int(round((self.upper - self.lower) / self.delta)) + 1

    @property
    def nodes(self) -> np.ndarray:
        return self.lower + self.delta * np.arange(self.nnodes)

    ncells = nnodes  # the cell count BlockState reads

    @property
    def cell_width(self) -> float:
        """Charge per node: a node trace times this is probability mass."""
        return self.delta

    @property
    def zero_index(self) -> int:
        return int(round(-self.lower / self.delta))

    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights over the nodes."""
        w = np.full(self.nnodes, self.delta)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    trace_weights = property(weights)

    def index(self, charge: float) -> int:
        ratio = (charge - self.lower) / self.delta
        i = int(round(ratio))
        if abs(ratio - i) > 1e-6 or not 0 <= i < self.nnodes:
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


@dataclass(frozen=True)
class DriftSuperoperator:
    """Operator-valued drift and scalar diffusion of the charge equation."""

    matrix: np.ndarray
    diffusion: float


def build_drift_superoperator(model: LindbladModel) -> DriftSuperoperator:
    """Weighted sum of (A rho + rho A') over monitored channels, with the
    squared weights accumulating into the scalar diffusion constant."""
    model.require_channels()
    if not model.monitored:
        raise ModelError("diffusive monitoring needs at least one monitored channel")
    d = model.dim
    kmat = np.zeros((d * d, d * d), dtype=complex)
    kdiff = 0.0
    for ch in model.monitored:
        a = ch.rotated_operator()
        kmat += ch.weight * (left_multiplier(a) + right_multiplier(a.conj().T))
        kdiff += ch.weight**2
    kmat.setflags(write=False)
    return DriftSuperoperator(kmat, float(kdiff))


@dataclass(frozen=True)
class FokkerPlanckGenerator:
    """Block-tridiagonal generator of the discretized charge equation."""

    grid: ChargeGrid
    dim: int
    matrix: scipy.sparse.csr_matrix
    survival_vector: np.ndarray
    flux_vector: np.ndarray
    drift: DriftSuperoperator


def peclet_number(drift: DriftSuperoperator, delta: float) -> float:
    return float(np.linalg.norm(drift.matrix, 2)) * delta / drift.diffusion


def build_fokker_planck_generator(model: LindbladModel, grid: ChargeGrid) -> FokkerPlanckGenerator:
    """Assemble the central-difference generator on a charge grid.

    Per node: the full dissipative generator, minus drift toward larger
    charge at first-difference order, plus scalar diffusion at second
    order.  Ghost nodes outside the grid are zero, so edge stencils lose
    weight; that loss is the first-passage flux.
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
    m = grid.nnodes
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
    survival = np.kron(grid.weights(), trace_functional(d)).astype(complex)
    flux = -(matrix.T @ survival)
    return FokkerPlanckGenerator(grid, d, matrix, survival, flux, drift)


def conditioned_charge_distribution(state: BlockState) -> tuple[np.ndarray, np.ndarray]:
    """Node charges and densities of the survivors of a node-resolved state
    on a ``ChargeGrid``, normalized to unit trapezoidal integral."""
    traces = state.traces()
    low = traces.min()
    if low < -TRACE_DENSITY_ABORT:
        raise PhysicsError(f"node density {low:.3e} is below the abort threshold")
    traces = np.clip(traces, 0.0, None)
    total = float(state.domain.weights() @ traces)
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
        liou, vectorize(rho0), times, rows=functional[None, :], method="dense"
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
    open sides follow the unconditional mean path plus a diffusive margin."""
    probe = np.linspace(0.0, horizon, 200)
    mean = mean_charge_path(model, rho0, probe)
    margin = 8.0 * math.sqrt(drift.diffusion * horizon) + 1.0
    hi_guess = float(mean.max()) + margin
    lo_guess = float(mean.min()) - margin
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


class _DiffusionDiscretisation(Discretisation):
    provenance = "deterministic-diffusion"

    def assemble(self, grid: ChargeGrid) -> FokkerPlanckGenerator:
        return build_fokker_planck_generator(self.model, grid)


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
    the unconditional mean path plus a diffusive margin and are widened
    until the edge mass stays negligible over the horizon.  ``auto_tail``
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
        _DiffusionDiscretisation(model, rho0),
        work,
        lower_open=lower_open,
        upper_open=upper_open,
        horizon=horizon,
        dt=dt if dt is not None else _default_step(model, drift, near),
        auto_tail=auto_tail,
        tail_epsilon=tail_epsilon,
    )
