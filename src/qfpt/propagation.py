"""Time propagation of sparse block generators, and the absorbing solve
that both first-passage engines share.

``propagate_uniform`` streams the observations ``rows @ x_i`` of the
states x_i = exp(t_i A) x0 on a uniform grid in chunks of consecutive grid
points, each with the state at its last point, so consumers never handle
one state per step.  Two backends, chosen by the stacked dimension:

* ``dense``: one dense matrix exponential E of the single-step
  propagator.  The stacked powers rows @ E^j, j = 1..B, turn the state at
  every B-th point into the observations of the B points after it with
  one real matrix product, and E^B carries the state from block to
  block; where blocks cost more than they save, E steps point by point.
  Exact in time; used up to ``DENSE_CUTOFF`` unknowns.
* ``cn``: Crank-Nicolson with a short implicit-Euler startup to damp the
  stiff content of delta-like initial data, one sparse solve per step.
  Second order in the step; used above the cutoff, for jump windows and
  diffusion grids alike.

``CHUNK_BYTES`` bounds a chunk's buffers and the stacked powers.

``solve_absorbing`` turns a charge-resolved generator with absorbing edges
into a first-passage-time series.  It owns the time grid, the observation
rows and their checks, the widening of open domain sides and the
horizon extension; ``absorbing_moments`` solves the same generator once
for its phase-type moments and edge exit probabilities.  A
``Discretisation`` supplies what differs between the jump window and the
diffusion grid.  The series ends with the charge-resolved ``BlockState``
at the horizon; a solve on an explicit window or grid up to horizon t is
how either engine propagates a state to time t.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .analysis import FptResult, uniform_step
from .errors import ConfigError, ConvergenceError, ModelError, PhysicsError
from .operators import (
    LindbladModel,
    build_liouvillian,
    steady_state,
    trace_functional,
    validate_density_matrix,
    vectorize,
)

logger = logging.getLogger(__name__)

DENSE_CUTOFF = 1200
# memory budget of one chunk's buffers and of the dense stacked powers
CHUNK_BYTES = 2**21
STARTUP_STEPS = 4
STEP_FACTOR = 0.002
MAX_GRID_POINTS = 200_000
EDGE_TOLERANCE = 1e-12
WEIGHT_EXCESS_TOLERANCE = 1e-6
MAX_WIDEN_ROUNDS = 12
# an auto-tail horizon stops at 2**MAX_DOUBLINGS times the requested one
MAX_DOUBLINGS = 16
# largest generator a moments solve widens its domain to
MAX_MOMENT_UNKNOWNS = 2**16


def _non_finite(index: int) -> ConvergenceError:
    return ConvergenceError(
        f"propagation produced non-finite values at grid index {index}; "
        "reduce the step size or switch integrator"
    )


def positive_finite(value, name: str) -> float:
    """``value`` as a float, refused unless it is positive and finite."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return value


def _check_finite(x: np.ndarray, index: int) -> None:
    # a non-finite entry stays non-finite under every later step, so one
    # check per solve catches what a check per step would
    if not np.isfinite(x).all():
        raise _non_finite(index)


def _block_size(steps: int, m: int, n: int) -> int:
    """Grid points per dense observation block, 1 for plain stepping.

    In units of a matrix-vector product, building rows @ E^j for j <= B
    costs B*m, the anchors every B-th state steps/B, and E^B its matrix
    products at n each; B minimises the sum below sqrt(steps/m), where
    the first two balance, and below the ``CHUNK_BYTES`` cap on the
    stacked powers.
    """
    m = max(m, 1)
    top = max(1, min(steps, math.isqrt(steps // m), CHUNK_BYTES // (16 * m * n)))

    def cost(b: int) -> float:
        return b * m + steps / b + n * (b.bit_length() + b.bit_count() - 2)

    return min(range(1, top + 1), key=cost)


def _stepped_chunks(step, x: np.ndarray, first: int, last: int, rows):
    """Chunks of the grid points first..last that the one-step map ``step``
    reaches from x, the state at point first - 1, each state observed as
    it is reached.  A chunk spans as many steps as ``CHUNK_BYTES`` holds
    states, so its observations stay a fraction of the budget.  Returns
    the last state."""
    size = max(1, min(last - first + 1, CHUNK_BYTES // (16 * x.size)))
    for start in range(first, last + 1, size):
        obs = np.empty((min(size, last + 1 - start), rows.shape[0]))
        for k in range(obs.shape[0]):
            x = step(x)
            obs[k] = np.real(rows @ x)
        yield start, obs, x
    return x


def _block_chunks(prop: np.ndarray, x: np.ndarray, steps: int, block: int, rows):
    """Chunks of the grid points 1..steps, a multiple of ``block``, from
    the dense one-step propagator; returns the last state."""
    m, n = rows.shape
    # row j*m + r of the stacked powers is rows[r] @ E^(j+1), split as
    # [Re, -Im] so that one real product with [Re x; Im x] gives the
    # observations of the block's points from the state x before them
    powers = np.empty((block, m, 2 * n))
    power = rows.toarray() if scipy.sparse.issparse(rows) else np.asarray(rows, dtype=complex)
    for j in range(block):
        power = power @ prop
        powers[j, :, :n] = power.real
        powers[j, :, n:] = -power.imag
    powers = powers.reshape(block * m, 2 * n).T
    leap = np.linalg.matrix_power(prop, block)
    per_chunk = block * max(1, CHUNK_BYTES // (8 * max(block * m, 2 * n)))
    for start in range(1, steps + 1, per_chunk):
        count = min(per_chunk, steps + 1 - start)
        anchors = np.empty((count // block, 2 * n))
        for a in range(anchors.shape[0]):
            anchors[a, :n] = x.real
            anchors[a, n:] = x.imag
            x = leap @ x
        yield start, (anchors @ powers).reshape(count, m), x
    return x


def _first_chunk(x: np.ndarray, rows):
    # no step writes into a state, so the initial one is yielded as given
    return 0, np.real(rows @ x)[None, :], x


def _dense_chunks(matrix, x: np.ndarray, dt: float, steps: int, rows):
    dense = matrix.toarray() if scipy.sparse.issparse(matrix) else np.asarray(matrix)
    prop = scipy.linalg.expm(dense * dt)
    yield _first_chunk(x, rows)
    block = _block_size(steps, *rows.shape)
    # whole blocks where they pay, then plain steps for the rest
    whole = steps - steps % block if block > 1 else 0
    if whole:
        x = yield from _block_chunks(prop, x, whole, block, rows)
    yield from _stepped_chunks(lambda x: prop @ x, x, whole + 1, steps, rows)


def _cn_chunks(matrix, x: np.ndarray, dt: float, steps: int, rows):
    mat = scipy.sparse.csc_matrix(matrix)
    ident = scipy.sparse.identity(mat.shape[0], format="csc", dtype=complex)
    lu_cn = scipy.sparse.linalg.splu((ident - 0.5 * dt * mat).tocsc())
    lu_be = scipy.sparse.linalg.splu((ident - dt * mat).tocsc())

    def cn_step(x):
        # (I + hA) = 2I - (I - hA): one solve per Crank-Nicolson step
        y = lu_cn.solve(x)
        y *= 2.0
        y -= x
        return y

    yield _first_chunk(x, rows)
    startup = min(STARTUP_STEPS, steps)
    x = yield from _stepped_chunks(lu_be.solve, x, 1, startup, rows)
    yield from _stepped_chunks(cn_step, x, startup + 1, steps, rows)


def propagate_uniform(
    matrix,
    x0: np.ndarray,
    times: np.ndarray,
    *,
    rows=None,
    method: str = "auto",
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Stream observations of x_i = exp(t_i * matrix) @ x0 over a uniform
    time grid, in chunks of consecutive grid points.

    Each chunk is ``(start, obs, state)``: ``obs[k]`` is the real part of
    ``rows @ x_(start+k)``, one row per grid point of the chunk, and
    ``state`` is the state at its last point.  The first chunk is the
    initial point alone.  ``rows`` is a dense or sparse matrix with one
    row per observed functional; ``None`` observes nothing.
    ``method='auto'`` picks the dense propagator up to ``DENSE_CUTOFF``
    unknowns and Crank-Nicolson above it.
    """
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    n = matrix.shape[0]
    if rows is None:
        rows = scipy.sparse.csr_matrix((0, n), dtype=complex)
    if matrix.shape != (n, n) or x0.size != n or rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError("matrix, state and observation dimensions disagree")
    if method == "auto":
        method = "dense" if n <= DENSE_CUTOFF else "cn"
    backends = {"dense": _dense_chunks, "cn": _cn_chunks}
    if method not in backends:
        raise ValueError(f"unknown propagation method {method!r}")
    return backends[method](matrix, x0, uniform_step(times), times.size - 1, rows)


def resolvent_solves(matrix, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A^-1 x0 and A^-2 x0 for an absorbing generator A, from one sparse LU.

    For a flux functional u, -u A^-1 x0 is the probability of leaving
    through the edges that u measures; ``_phase_type_moments`` turns the
    solves into moments of the absorption time.  A singular A, which keeps
    some weight forever, raises ConvergenceError.
    """
    try:
        lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(matrix, dtype=complex))
    except RuntimeError as exc:
        raise ConvergenceError(f"the absorbing generator is singular ({exc})") from None
    y1 = lu.solve(np.asarray(x0, dtype=complex))
    y2 = lu.solve(y1)
    if not np.isfinite(y2).all():
        raise ConvergenceError("the absorbing generator is numerically singular")
    return y1, y2


def _phase_type_moments(weights: np.ndarray, y1: np.ndarray, y2: np.ndarray) -> tuple[float, float]:
    """E[T] = -w A^-1 x0 and E[T^2] = 2 w A^-2 x0 of the absorption time,
    for the survival functional w and the ``resolvent_solves`` of x0
    (Neuts 1981)."""
    return -float(np.real(weights @ y1)), 2.0 * float(np.real(weights @ y2))


def absorption_horizon_guess(matrix, weights: np.ndarray, x0: np.ndarray) -> float | None:
    """Resolvent estimate of how long an absorbing generator keeps mass.

    Mean plus 16 standard deviations of the absorption time, from
    ``resolvent_solves``, comfortably covers the survival tail.  Returns
    None when the solves fail or give unusable values, e.g. for generators
    that conserve some of the weight forever.
    """
    try:
        mean, second = _phase_type_moments(weights, *resolvent_solves(matrix, x0))
    except ConvergenceError:
        return None
    if mean <= 0 or second <= 0:
        return None
    spread = math.sqrt(max(second - mean**2, 0.0))
    return mean + 16.0 * max(spread, 0.25 * mean)


def reaches_flux(matrix, x0: np.ndarray, flux: np.ndarray) -> bool:
    """Whether mass started on the support of ``x0`` can reach a coordinate
    where ``flux`` is nonzero.

    A breadth-first search over the sparsity graph of the generator, in
    which mass flows from j to i where A[i, j] != 0.  Every state
    exp(tA) x0 lives on the coordinates it reaches, so a False verdict
    means nothing is ever absorbed, whatever the rates.
    """
    coo = scipy.sparse.coo_matrix(matrix)
    keep = coo.data != 0
    n = coo.shape[0]
    support = np.flatnonzero(x0)
    # an extra node n feeds every coordinate of the support
    sources = np.concatenate([coo.col[keep], np.full(support.size, n)])
    targets = np.concatenate([coo.row[keep], support])
    graph = scipy.sparse.csr_matrix(
        (np.ones(sources.size), (sources, targets)), shape=(n + 1, n + 1)
    )
    reached = scipy.sparse.csgraph.breadth_first_order(graph, n, return_predecessors=False)
    return bool(np.any(flux[reached[reached < n]] != 0))


def initial_density(model: LindbladModel, initial: np.ndarray | str) -> np.ndarray:
    """Density matrix of an initial-state spec: ``"steady"`` or a matrix."""
    if isinstance(initial, str):
        if initial != "steady":
            raise ConfigError(f"unknown initial state spec {initial!r}")
        return steady_state(build_liouvillian(model))
    return validate_density_matrix(initial)


def default_step(scale: float) -> float:
    """Output step for a fastest rate ``scale``; it keeps the trapezoidal
    absorbed-mass bookkeeping inside its 1e-6 budget."""
    if scale <= 0:
        raise ModelError("model has no dynamics to set a time step from")
    return STEP_FACTOR / scale


def grid_points(horizon: float, dt: float) -> int:
    """Points of a uniform grid of step ``dt`` up to ``horizon``, before
    the ``MAX_GRID_POINTS`` cap."""
    return max(2, int(math.ceil(horizon / dt)) + 1)


def time_grid(horizon: float, dt: float) -> np.ndarray:
    """Uniform output grid of step ``dt`` up to ``horizon``.

    For very long horizons the step is coarsened, with a logged warning,
    so the grid never exceeds ``MAX_GRID_POINTS``; the bookkeeping check
    still applies, so a horizon too long for the requested accuracy fails
    loudly.
    """
    positive_finite(horizon, "horizon")
    positive_finite(dt, "dt")
    num = grid_points(horizon, dt)
    if num > MAX_GRID_POINTS:
        logger.warning(
            "capping time grid at %d points (dt %.3g -> %.3g)",
            MAX_GRID_POINTS, dt, horizon / (MAX_GRID_POINTS - 1),
        )
        num = MAX_GRID_POINTS
    return np.linspace(0.0, horizon, num)


def block_traces(blocks: np.ndarray) -> np.ndarray:
    """Real traces of a stack of square blocks, shape (n, d, d) -> (n,)."""
    return np.einsum("nii->n", blocks).real


@dataclass
class BlockState:
    """Charge-resolved state at one instant: one column-stacked density
    block per cell of ``domain``.

    The domain is a charge window or grid.  It supplies ``ncells``,
    ``index(charge)``, the charge ``cell_width`` that turns a cell trace
    into probability mass, and ``trace_weights``, the quadrature weights
    of the cell traces (None: their plain sum).
    """

    domain: object
    dim: int
    data: np.ndarray
    time: float = 0.0

    @classmethod
    def initial(cls, domain, rho0: np.ndarray):
        """All charge mass in the cell at charge 0."""
        rho0 = validate_density_matrix(rho0)
        d = rho0.shape[0]
        data = np.zeros(domain.ncells * d * d, dtype=complex)
        i = domain.index(0)
        data[i * d * d : (i + 1) * d * d] = vectorize(rho0) / domain.cell_width
        return cls(domain, d, data, 0.0)

    def blocks(self) -> np.ndarray:
        # C-order block views are transposes of the column-stacked matrices
        return self.data.reshape((self.domain.ncells, self.dim, self.dim))

    def traces(self) -> np.ndarray:
        # stacking order inside each block is irrelevant for the trace
        return block_traces(self.blocks())

    def survival(self) -> float:
        weights = self.domain.trace_weights
        traces = self.traces()
        return float(traces.sum() if weights is None else weights @ traces)

    def total_state(self) -> np.ndarray:
        """Trace-weighted sum of all blocks: the surviving unconditional
        state."""
        weights = self.domain.trace_weights
        blocks = self.blocks()
        if weights is None:
            return blocks.sum(axis=0).T.copy()
        return np.tensordot(weights, blocks, axes=(0, 0)).T.copy()


@dataclass(frozen=True)
class Discretisation:
    """Engine side of the absorbing solves: the model, its initial density
    matrix, and what differs between the engines.

    The domain is a charge window or grid, as ``BlockState`` describes,
    that widens itself through ``domain.widened(grow_lower, grow_upper)``.
    Subclasses set the class attributes and implement
    ``assemble(domain)``, the generator on the domain (with ``dim``,
    ``matrix``, ``survival_vector`` and ``flux_vector``;
    ``absorbing_moments`` also reads its split ``upper_flux`` and
    ``lower_flux``).
    """

    model: LindbladModel
    rho0: np.ndarray

    provenance: ClassVar[str]
    # store every step's per-cell traces on the series
    keep_traces: ClassVar[bool] = False

    def initial(self, domain) -> np.ndarray:
        return BlockState.initial(domain, self.rho0).data


@dataclass
class FptSolution:
    """First-passage series of an absorbing solve on its final domain.
    ``final_state`` is the charge-resolved state at the horizon.
    ``cell_traces`` holds every step's per-cell traces if the engine keeps
    them (the jump engine: cell probabilities), else None."""

    result: FptResult
    domain: object
    final_state: BlockState
    edge_mass_peak: tuple[float, float]
    cell_traces: np.ndarray | None


def _series(disc: Discretisation, generator, domain, times: np.ndarray) -> FptSolution:
    d = generator.dim
    ncells = domain.ncells
    # per-cell traces if the engine keeps them, else only the two edge cells
    kept = slice(None) if disc.keep_traces else [0, ncells - 1]
    cells = scipy.sparse.kron(
        scipy.sparse.identity(ncells, format="csr")[kept], trace_functional(d)[None, :], format="csr"
    )
    rows = scipy.sparse.vstack(
        [generator.survival_vector, generator.flux_vector, cells], format="csr"
    )
    obs = np.empty((times.size, rows.shape[0]))
    for start, chunk, x in propagate_uniform(
        generator.matrix, disc.initial(domain), times, rows=rows
    ):
        obs[start : start + chunk.shape[0]] = chunk
    bad = ~np.isfinite(obs).all(axis=1)
    if bad.any():
        raise _non_finite(int(np.argmax(bad)))
    _check_finite(x, times.size - 1)
    surv, dens, traces = obs[:, 0], obs[:, 1], obs[:, 2:]
    lo_peak = max(traces[:, 0].max(), 0.0)
    hi_peak = max(traces[:, -1].max(), 0.0)
    if dens.min() < -1e-10:
        raise PhysicsError(f"negative absorption rate {dens.min():.3e}")
    if surv.max() > 1.0 + WEIGHT_EXCESS_TOLERANCE:
        raise PhysicsError(f"total weight grew to {surv.max():.8f}")
    if np.diff(surv).max(initial=-1.0) > 1e-10:
        raise PhysicsError("survival grew along the grid beyond roundoff")
    dens = np.clip(dens, 0.0, None)
    surv = np.minimum.accumulate(np.clip(surv, 0.0, 1.0))
    # x is the state at the horizon, the last one the propagator yielded
    return FptSolution(
        FptResult(times, dens, surv, disc.provenance),
        domain,
        BlockState(domain, d, x, float(times[-1])),
        (domain.cell_width * lo_peak, domain.cell_width * hi_peak),
        traces if disc.keep_traces else None,
    )


def solve_absorbing(
    disc: Discretisation,
    domain,
    *,
    lower_open: bool,
    upper_open: bool,
    horizon: float,
    dt: float,
    auto_tail: bool,
    tail_epsilon: float,
) -> FptSolution:
    """First-passage series of an absorbing generator on a uniform grid.

    Open domain sides are widened, up to ``MAX_WIDEN_ROUNDS`` times, until
    the edge mass stays below ``EDGE_TOLERANCE`` over the whole horizon.
    With ``auto_tail`` an initial state that ``reaches_flux`` does not
    connect to an absorbing edge is refused at once; otherwise the
    resolvent estimate sets the first horizon, which then doubles until
    the survival drops below ``tail_epsilon``, up to ``MAX_DOUBLINGS``
    doublings of the requested horizon; the widened domain is kept across
    extensions.  Each domain's generator is assembled once.
    """
    if not 0.0 < tail_epsilon < 1.0:
        raise ConfigError(f"tail epsilon must lie in (0, 1), got {tail_epsilon!r}")
    horizon = float(horizon)
    cap = horizon * 2.0**MAX_DOUBLINGS
    generator = None
    if auto_tail:
        generator = disc.assemble(domain)
        x0 = disc.initial(domain)
        # no horizon can absorb what the generator never carries to an edge
        if not reaches_flux(generator.matrix, x0, generator.flux_vector):
            raise ConvergenceError(
                "the threshold is unreachable from the initial state: no "
                f"absorbing coordinate of {domain} is connected to it"
            )
        guess = absorption_horizon_guess(generator.matrix, generator.survival_vector, x0)
        if guess is not None and guess > horizon:
            horizon = float(min(guess, cap))
            logger.debug("resolvent tail estimate sets the horizon to %.4g", horizon)
    for _ in range(MAX_DOUBLINGS + 1):
        times = time_grid(horizon, dt)
        for _ in range(MAX_WIDEN_ROUNDS):
            if generator is None:
                generator = disc.assemble(domain)
            series = _series(disc, generator, domain, times)
            lo_peak, hi_peak = series.edge_mass_peak
            grow_lower = lower_open and lo_peak > EDGE_TOLERANCE
            grow_upper = upper_open and hi_peak > EDGE_TOLERANCE
            if not grow_lower and not grow_upper:
                break
            wider = domain.widened(grow_lower, grow_upper)
            logger.debug("widening %s -> %s", domain, wider)
            domain, generator = wider, None
        else:
            raise ConvergenceError(
                f"open sides of {domain} failed to satisfy the edge-mass "
                f"tolerance {EDGE_TOLERANCE:g} after {MAX_WIDEN_ROUNDS} widenings"
            )
        if not auto_tail or series.result.survival[-1] < tail_epsilon:
            return series
        if horizon * 2 > cap:
            raise ConvergenceError(
                f"survival is {series.result.survival[-1]:.3e} at the horizon "
                f"cap {cap:g}; the threshold may be unreachable, or absorption "
                "incomplete by construction"
            )
        horizon *= 2.0
    raise ConvergenceError("horizon extension failed to converge the tail")


def absorbing_moments(disc: Discretisation, domain, singular: str) -> tuple[float, float, float]:
    """E[T], E[T^2] and the upper-exit probability of an absorbing generator
    whose lower domain side is open, from one ``resolvent_solves``
    factorisation per domain.  The lower side doubles until its exit
    probability is below ``EDGE_TOLERANCE``, up to ``MAX_MOMENT_UNKNOWNS``;
    a singular generator raises ConvergenceError("<singular>: <cause> on
    <domain>")."""
    while True:
        generator = disc.assemble(domain)
        try:
            y1, y2 = resolvent_solves(generator.matrix, disc.initial(domain))
        except ConvergenceError as exc:
            raise ConvergenceError(f"{singular}: {exc} on {domain}") from None
        lower_exit = -float(np.real(generator.lower_flux @ y1))
        if lower_exit < EDGE_TOLERANCE:
            mean, second = _phase_type_moments(generator.survival_vector, y1, y2)
            return mean, second, -float(np.real(generator.upper_flux @ y1))
        domain = domain.widened(True, False)
        if domain.ncells * generator.dim**2 > MAX_MOMENT_UNKNOWNS:
            raise ConvergenceError(
                f"lower-exit probability is still {lower_exit:.3e} before {domain} "
                f"outgrows {MAX_MOMENT_UNKNOWNS} unknowns; the charge may not "
                "drift towards the threshold"
            )
