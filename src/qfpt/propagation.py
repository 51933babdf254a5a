"""Time propagation of sparse block generators, and the absorbing solve
that both first-passage engines share.

``propagate_uniform`` streams the observations ``rows @ x_i`` of the
states x_i = exp(t_i A) x0 on a uniform grid in chunks of consecutive grid
points, each with the state at its last point, so consumers never handle
one state per step.  Two backends, chosen by the stacked dimension alone:

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

Every sparse LU (``_factor``, for the CN steps and the resolvent solves)
keeps the domain's natural, cell-major order, in which the generator is
banded, so the factors stay inside the band.

``CHUNK_BYTES`` bounds a chunk's buffers and the stacked powers.

``solve_absorbing`` turns a charge-resolved generator with absorbing edges
into a first-passage-time series.  It owns the time grid, the observation
rows and their checks, the widening of open domain sides and the
horizon extension; every series observes the same four rows, the
survival, the absorption rate and the traces of the lower and the upper
edge cell.  ``exit_solve`` gives the exact edge exit probabilities and
phase-type moments from one LU on the coordinates that can reach an edge,
for the auto-tail horizon and ``absorbing_moments``.  Both engines
hand the driver the same contract: a ``Discretisation`` whose
``assemble(domain)`` returns a ``BlockGenerator`` (the sparse matrix, the
survival functional and the absorption rate split by domain edge), which
``absorbing_generator`` builds from the engine's charge-shift blocks, on a
domain that supplies the cell count, the charge per cell, the trace
weights and its own widening.  The series ends with the charge-resolved
``BlockState`` at the horizon; a solve on an explicit window or grid up
to horizon t is how either engine propagates a state to time t.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

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
# cell traces this far below zero are an error, not roundoff
TRACE_CLIP_ABORT = 1e-9


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


def _factor(matrix):
    """Complex sparse LU in the natural column order.

    The engines number their unknowns cell by cell, so their generators
    are banded as given (block tridiagonal on diffusion grids); SuperLU's
    default COLAMD order scatters the band and fills the factors.
    """
    csc = scipy.sparse.csc_matrix(matrix, dtype=complex)
    # looked up on the module at call time, where the benchmark's tracer
    # wraps it to count factorisations
    return scipy.sparse.linalg.splu(csc, permc_spec="NATURAL")


def _cn_chunks(matrix, x: np.ndarray, dt: float, steps: int, rows):
    mat = scipy.sparse.csc_matrix(matrix)
    ident = scipy.sparse.identity(mat.shape[0], format="csc", dtype=complex)
    lu_cn = _factor(ident - 0.5 * dt * mat)
    lu_be = _factor(ident - dt * mat)

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
    matrix, x0: np.ndarray, times: np.ndarray, *, rows
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Stream observations of x_i = exp(t_i * matrix) @ x0 over a uniform
    time grid, in chunks of consecutive grid points.

    Each chunk is ``(start, obs, state)``: ``obs[k]`` is the real part of
    ``rows @ x_(start+k)``, one row per grid point of the chunk, and
    ``state`` is the state at its last point.  The first chunk is the
    initial point alone.  ``rows`` is a dense or sparse matrix with one
    row per observed functional.  The dense propagator runs up to
    ``DENSE_CUTOFF`` unknowns, Crank-Nicolson above.
    """
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or x0.size != n or rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError("matrix, state and observation dimensions disagree")
    chunks = _dense_chunks if n <= DENSE_CUTOFF else _cn_chunks
    return chunks(matrix, x0, uniform_step(times), times.size - 1, rows)


def resolvent_solves(matrix, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A^-1 x0 and A^-2 x0 for an absorbing generator A, from one sparse LU.

    ``exit_solve`` turns the solves into exit probabilities and moments of
    the absorption time.  A singular A, which keeps some weight forever,
    raises ConvergenceError.
    """
    try:
        lu = _factor(matrix)
    except RuntimeError as exc:
        raise ConvergenceError(f"the absorbing generator is singular ({exc})") from None
    y1 = lu.solve(np.asarray(x0, dtype=complex))
    y2 = lu.solve(y1)
    if not np.isfinite(y2).all():
        raise ConvergenceError("the absorbing generator is numerically singular")
    return y1, y2


def absorbable(matrix, flux: np.ndarray) -> np.ndarray:
    """Sorted coordinates from which mass can reach one where ``flux`` is
    nonzero: mass flows from j to i where A[i, j] != 0, so the CSR rows list
    each coordinate's feeders, searched breadth first from an extra node
    that leads to every absorbing one.  The rest never feeds the kept
    coordinates and is never absorbed, whatever the rates."""
    csr = scipy.sparse.csr_matrix(matrix)
    n, sinks = csr.shape[0], np.flatnonzero(flux)
    graph = scipy.sparse.csr_matrix(
        (np.append(csr.data != 0, np.ones(sinks.size)), np.append(csr.indices, sinks),
         np.append(csr.indptr, csr.nnz + sinks.size)),
        shape=(n + 1, n + 1),
    )
    # an explicitly stored zero is not an edge
    graph.eliminate_zeros()
    reached = scipy.sparse.csgraph.breadth_first_order(graph, n, return_predecessors=False)
    return np.sort(reached[reached < n])


def exit_solve(
    generator: BlockGenerator, x0: np.ndarray, shortfall: float, unreachable: str
) -> tuple[float, float, float, float]:
    """Lower- and upper-exit probabilities, E[T] and E[T^2] of the weight x0.

    One ``resolvent_solves`` factorisation of A on its ``absorbable``
    coordinates, which evolve on their own (A as given where all are kept):
    -u A^-1 x0 for the flux u of an edge, E[T] = -w A^-1 x0 and
    E[T^2] = 2 w A^-2 x0 for the survival w (Neuts 1981).  Raises
    ConvergenceError(``unreachable``) when x0 has no weight on the kept
    coordinates, and names the absorbed probability unless it is 1 to
    within ``shortfall``.
    """
    matrix, keep = generator.matrix, absorbable(generator.matrix, generator.flux_vector)
    lower, upper, weights = generator.lower_flux, generator.upper_flux, generator.survival_vector
    if keep.size < x0.size:
        x0, matrix = x0[keep], matrix[keep][:, keep]
        lower, upper, weights = lower[keep], upper[keep], weights[keep]
    if not x0.any():
        raise ConvergenceError(unreachable)
    y1, y2 = resolvent_solves(matrix, x0)
    lower_exit, upper_exit, mean = (-float(np.real(u @ y1)) for u in (lower, upper, weights))
    if not abs(lower_exit + upper_exit - 1.0) <= shortfall:
        raise ConvergenceError(
            "the initial weight is ever absorbed with probability "
            f"{lower_exit + upper_exit:.9g}, not 1 to within {shortfall:g}"
        )
    return lower_exit, upper_exit, mean, 2.0 * float(np.real(weights @ y2))


def absorption_horizon_guess(generator: BlockGenerator, x0, tail_epsilon: float) -> float:
    """Resolvent estimate of how long an absorbing generator keeps mass:
    mean plus 16 standard deviations of the absorption time, from
    ``exit_solve``, which refuses a state that no horizon can bring below a
    survival of ``tail_epsilon``."""
    _, _, mean, second = exit_solve(
        generator, x0, tail_epsilon, "the threshold is unreachable from the initial state"
    )
    spread = math.sqrt(max(second - mean**2, 0.0))
    return mean + 16.0 * max(spread, 0.25 * mean)


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


@dataclass(frozen=True)
class BlockGenerator:
    """Sparse generator of the charge-resolved dynamics on a window or grid.

    ``survival_vector`` is the surviving weight as a functional on the
    stacked state; ``upper_flux`` and ``lower_flux`` are the absorption
    rates through the upper and the lower domain edge.
    """

    dim: int
    matrix: scipy.sparse.csr_matrix
    survival_vector: np.ndarray
    upper_flux: np.ndarray
    lower_flux: np.ndarray

    @property
    def flux_vector(self) -> np.ndarray:
        """Absorption rate through either edge: the first-passage density."""
        return self.upper_flux + self.lower_flux


def absorbing_generator(blocks: dict[int, np.ndarray], domain) -> BlockGenerator:
    """The generator of ``blocks`` truncated to ``domain``, whose edges absorb.

    ``blocks`` maps each charge shift nu to the dense (d*d, d*d)
    superoperator B_nu that moves a cell's state nu cells up; together they
    sum to a trace-preserving generator.  What would land outside the
    domain is dropped.  The survival functional is w (x) tr for the
    domain's ``trace_weights`` w, and as sum_nu tr o B_nu = 0 its loss rate
    gives cell j the flux sum_nu (c - w_(j+nu)) tr o B_nu, with c the
    ``cell_width`` and w zero outside the domain.  Padded with max|nu|
    ghosts on each side, each side takes its own ghosts and its edge cell:
    a jump window's edge cells have w = c, a trapezoidal grid's half-weight
    edge nodes do not.
    """
    # the dict's insertion order is the summation order of each flux,
    # which the engines keep fixed so that their fluxes stay bit-identical
    n = next(iter(blocks.values())).shape[0]
    dim = math.isqrt(n)
    m = domain.ncells
    rows, cols, vals = [], [], []
    for nu, block in blocks.items():
        block = scipy.sparse.coo_matrix(block)
        # cell i receives from cell i - nu when both lie in the domain
        cells = np.arange(max(nu, 0), min(m, m + nu))[:, None]
        rows.append((cells * n + block.row).ravel())
        cols.append(((cells - nu) * n + block.col).ravel())
        vals.append(np.broadcast_to(block.data, (cells.size, block.nnz)).ravel())
    matrix = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * n, m * n),
    )
    tr = trace_functional(dim)
    reach = max(abs(nu) for nu in blocks)
    # c - w on the cells -reach..m-1+reach, split into each side's ghosts
    # and edge cell
    deficit = domain.cell_width - np.pad(domain.trace_weights, reach)
    lower, upper = np.zeros((2, m + 2 * reach))
    lower[: reach + 1], upper[-reach - 1 :] = deficit[: reach + 1], deficit[-reach - 1 :]

    def flux(e: np.ndarray) -> np.ndarray:
        terms = [np.kron(e[reach + nu : reach + nu + m], tr @ b) for nu, b in blocks.items()]
        return sum(terms[1:], terms[0])

    survival = np.kron(domain.trace_weights, tr)
    return BlockGenerator(dim, matrix, survival, flux(upper), flux(lower))


@dataclass
class BlockState:
    """Charge-resolved state at one instant: one column-stacked density
    block per cell of ``domain``.

    The domain is a charge window or grid.  It supplies ``ncells``,
    ``index(charge)``, the charge ``cell_width`` that turns a cell trace
    into probability mass, and ``trace_weights``, the quadrature weights
    of the cell traces.
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
        return np.einsum("nii->n", self.blocks()).real

    def clipped_traces(self) -> np.ndarray:
        """Cell traces with roundoff negatives set to zero; a trace below
        ``-TRACE_CLIP_ABORT`` raises PhysicsError."""
        traces = self.traces()
        low = int(np.argmin(traces))
        if traces[low] < -TRACE_CLIP_ABORT:
            raise PhysicsError(
                f"cell trace {traces[low]:.3e} at cell {low} of {self.domain} "
                "is below the abort threshold"
            )
        return np.clip(traces, 0.0, None)

    def survival(self) -> float:
        return float(self.domain.trace_weights @ self.traces())

    def total_state(self) -> np.ndarray:
        """Trace-weighted sum of all blocks: the surviving unconditional
        state."""
        return np.tensordot(self.domain.trace_weights, self.blocks(), axes=(0, 0)).T.copy()


@dataclass(frozen=True)
class Discretisation:
    """Engine side of the absorbing solves.

    ``assemble(domain)`` returns the ``BlockGenerator`` on a domain: a
    charge window or grid, as ``BlockState`` describes, that widens itself
    through ``domain.widened(grow_lower, grow_upper)``.  ``rho0`` is the
    initial density matrix and ``provenance`` labels the series.
    """

    assemble: Callable[[object], BlockGenerator]
    rho0: np.ndarray
    provenance: str

    def initial(self, domain) -> np.ndarray:
        return BlockState.initial(domain, self.rho0).data


@dataclass
class FptSolution:
    """First-passage series of an absorbing solve on its final domain.
    ``final_state`` is the charge-resolved state at the horizon; a solve
    on an explicit domain with nothing absorbed by then reads the charge
    distribution off it."""

    result: FptResult
    domain: object
    final_state: BlockState


def _series(
    disc: Discretisation, generator: BlockGenerator, domain, times: np.ndarray
) -> tuple[FptSolution, float, float]:
    """The series on one domain and the peak probability mass of its lower
    and upper edge cells."""
    d = generator.dim
    edges = scipy.sparse.identity(domain.ncells, format="csr")[[0, -1]]
    cells = scipy.sparse.kron(edges, trace_functional(d)[None, :], format="csr")
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
    # a non-finite entry stays non-finite under every later step, so one
    # check of the last state catches what a check per step would
    if not np.isfinite(x).all():
        raise _non_finite(times.size - 1)
    surv, dens = obs[:, 0], obs[:, 1]
    lo_peak = max(obs[:, 2].max(), 0.0)
    hi_peak = max(obs[:, 3].max(), 0.0)
    if dens.min() < -1e-10:
        raise PhysicsError(f"negative absorption rate {dens.min():.3e}")
    if surv.max() > 1.0 + WEIGHT_EXCESS_TOLERANCE:
        raise PhysicsError(f"total weight grew to {surv.max():.8f}")
    if np.diff(surv).max(initial=-1.0) > 1e-10:
        raise PhysicsError("survival grew along the grid beyond roundoff")
    dens = np.clip(dens, 0.0, None)
    surv = np.minimum.accumulate(np.clip(surv, 0.0, 1.0))
    # x is the state at the horizon, the last one the propagator yielded
    series = FptSolution(
        FptResult(times, dens, surv, disc.provenance),
        domain,
        BlockState(domain, d, x, float(times[-1])),
    )
    return series, domain.cell_width * lo_peak, domain.cell_width * hi_peak


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
    With ``auto_tail`` an initial state whose ``exit_solve`` absorbed
    probability is not 1 to within ``tail_epsilon`` is refused at once;
    otherwise the resolvent estimate sets the first horizon, which then
    doubles until the survival drops below ``tail_epsilon``, up to
    ``MAX_DOUBLINGS`` doublings of the requested horizon; the widened
    domain is kept across extensions.  Each domain's generator is
    assembled once.
    """
    if not 0.0 < tail_epsilon < 1.0:
        raise ConfigError(f"tail epsilon must lie in (0, 1), got {tail_epsilon!r}")
    horizon = float(horizon)
    cap = horizon * 2.0**MAX_DOUBLINGS
    generator = None
    if auto_tail:
        generator = disc.assemble(domain)
        guess = absorption_horizon_guess(generator, disc.initial(domain), tail_epsilon)
        if guess > horizon:
            horizon = float(min(guess, cap))
            logger.debug("resolvent tail estimate sets the horizon to %.4g", horizon)
    for _ in range(MAX_DOUBLINGS + 1):
        times = time_grid(horizon, dt)
        for _ in range(MAX_WIDEN_ROUNDS):
            if generator is None:
                generator = disc.assemble(domain)
            series, lo_peak, hi_peak = _series(disc, generator, domain, times)
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


def absorbing_moments(
    disc: Discretisation, domain, shortfall: float, unreachable: str
) -> tuple[float, float, float, float]:
    """``exit_solve`` of an absorbing generator whose lower domain side is
    open, one factorisation per domain: the lower side doubles until its
    exit probability is below ``EDGE_TOLERANCE``, up to
    ``MAX_MOMENT_UNKNOWNS``.  An unreachable edge raises
    ConvergenceError("<unreachable> on <domain>")."""
    while True:
        generator = disc.assemble(domain)
        x0 = disc.initial(domain)
        exits = exit_solve(generator, x0, shortfall, f"{unreachable} on {domain}")
        if exits[0] < EDGE_TOLERANCE:
            return exits
        domain = domain.widened(True, False)
        if domain.ncells * generator.dim**2 > MAX_MOMENT_UNKNOWNS:
            raise ConvergenceError(
                f"lower-exit probability is still {exits[0]:.3e} before {domain} "
                f"outgrows {MAX_MOMENT_UNKNOWNS} unknowns; the charge may not "
                "drift towards the threshold"
            )
