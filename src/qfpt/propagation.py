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
  stiff content of delta-like initial data.  Each of the two matrices
  takes one band LU (``_band_factor``), and a step two triangular band
  solves.  Second order in the step; used above the cutoff, for jump
  windows and diffusion grids alike.

The resolvent solves take the same band LU, in float64.

``CHUNK_BYTES`` bounds a chunk's buffers and the stacked powers.

``solve_absorbing`` turns a charge-resolved generator with absorbing edges
into a first-passage-time series, stepped once, observing the survival
and the absorption rate.  Linear solves decide the rest before any step:
``choose_domain`` widens each open domain side, one without a threshold,
until ``edge_loss_bound`` or, at an infinite horizon, ``exit_solve`` says
it loses nothing, and the phase-type moments of the same LU certify the
auto-tail horizon and serve ``jumps.passage_moments``.  Both engines hand the
driver the same contract: a ``Discretisation`` whose ``assemble(domain)``
returns a ``BlockGenerator`` (the sparse matrix, the survival functional
and the absorption rate split by domain edge), which
``absorbing_generator`` builds from the engine's charge-shift blocks, on
a domain that supplies the cell count, the charge per cell, the trace
weights and its own widening.  The series ends with the charge-resolved
``BlockState`` at the horizon; a solve on an explicit window or grid up
to horizon t is how either engine propagates a state to time t.

Every coordinate is real: ``absorbing_generator`` maps each block into a
basis of Hermitian operators (``operators.hermitian_basis``), where it and
each cell's density block are real, and ``propagate_uniform`` refuses
complex input.
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

from .analysis import FptResult, uniform_step
from .errors import ConfigError, ConvergenceError, ModelError, PhysicsError
from .operators import (
    LindbladModel,
    build_liouvillian,
    hermitian_basis,
    hermitian_real,
    kron,
    positive_finite,
    steady_state,
    trace_functional,
    unvectorize,
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
# largest generator an open side widens its domain to
MAX_MOMENT_UNKNOWNS = 2**16
# moments E[T^k], k <= CERTIFICATE_MOMENTS, that certify an auto-tail horizon
CERTIFICATE_MOMENTS = 24
# cell traces this far below zero are an error, not roundoff
TRACE_CLIP_ABORT = 1e-9


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
    size = max(1, min(last - first + 1, CHUNK_BYTES // x.nbytes))
    for start in range(first, last + 1, size):
        obs = np.empty((min(size, last + 1 - start), rows.shape[0]))
        for k in range(obs.shape[0]):
            x = step(x)
            obs[k] = rows @ x
        yield start, obs, x
    return x


def _block_chunks(prop: np.ndarray, x: np.ndarray, steps: int, block: int, rows):
    """Chunks of the grid points 1..steps, a multiple of ``block``, from
    the dense one-step propagator; returns the last state."""
    m, n = rows.shape
    # row j*m + r of the stacked powers is rows[r] @ E^(j+1), so one
    # product with the state x before a block observes its points
    powers = np.empty((block, m, n))
    power = rows.toarray() if scipy.sparse.issparse(rows) else np.asarray(rows)
    for j in range(block):
        power = power @ prop
        powers[j] = power
    powers = powers.reshape(block * m, n).T
    leap = np.linalg.matrix_power(prop, block)
    per_chunk = block * max(1, CHUNK_BYTES // (8 * max(block * m, n)))
    for start in range(1, steps + 1, per_chunk):
        count = min(per_chunk, steps + 1 - start)
        anchors = np.empty((count // block, n))
        for a in range(anchors.shape[0]):
            anchors[a] = x
            x = leap @ x
        yield start, (anchors @ powers).reshape(count, m), x
    return x


def _first_chunk(x: np.ndarray, rows):
    # no step writes into a state, so the initial one is yielded as given
    return 0, (rows @ x)[None, :], x


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


def _band_factor(matrix):
    """The solve x -> matrix^-1 x from one band LU (LAPACK ``?gbtrf``) of a
    sparse matrix, whose bandwidths are read off its nonzeros; in the
    engines' cell-major order the generators are banded.

    Without a row swap the factors are a unit lower band L and an upper
    band U of the matrix's own widths, and a solve is two triangular band
    solves (BLAS ``?tbsv``); if ``?gbtrf`` swapped a row, ``?gbtrs``
    applies the pivots.  The routines match the matrix's dtype.
    """
    csr = scipy.sparse.csr_matrix(matrix)
    # summed duplicates, so each entry is written to the band once
    csr.sum_duplicates()
    coo = csr.tocoo()
    n, offset = coo.shape[0], coo.row - coo.col
    stored = offset[coo.data != 0]
    kl, ku = int(stored.max(initial=0)), int(-stored.min(initial=0))
    # LAPACK band storage: entry (i, j) in row kl + ku + i - j, with kl
    # more rows above for the fill of row swaps
    band = np.zeros((2 * kl + ku + 1, n), dtype=coo.dtype, order="F")
    band[kl + ku + offset, coo.col] = coo.data
    gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (band,))
    (tbsv,) = scipy.linalg.get_blas_funcs(("tbsv",), (band,))
    lu, piv, info = gbtrf(band, kl, ku, overwrite_ab=1)
    if info:
        raise ConvergenceError(f"zero pivot {info} in the band LU")
    if not np.array_equal(piv, np.arange(n)):
        return lambda x: gbtrs(lu, kl, ku, x, piv)[0]
    # L's multipliers sit below U's diagonal row, whose place the unit
    # diagonal of the lower solve ignores
    lower = np.asfortranarray(lu[kl + ku :])
    upper = np.asfortranarray(lu[kl : kl + ku + 1])

    def solve(x):
        return tbsv(ku, upper, tbsv(kl, lower, x, lower=1, diag=1), overwrite_x=1)

    return solve


def _cn_chunks(matrix, x: np.ndarray, dt: float, steps: int, rows):
    mat = scipy.sparse.csr_matrix(matrix, dtype=float)
    ident = scipy.sparse.identity(mat.shape[0], format="csr")
    yield _first_chunk(x, rows)
    startup = min(STARTUP_STEPS, steps)
    # one set of factors at a time: implicit Euler's go before CN's are made
    x = yield from _stepped_chunks(_band_factor(ident - dt * mat), x, 1, startup, rows)
    solve_cn = _band_factor(ident - 0.5 * dt * mat)

    def cn_step(x):
        # (I + hA) = 2I - (I - hA): one solve per Crank-Nicolson step
        y = solve_cn(x)
        y *= 2.0
        y -= x
        return y

    yield from _stepped_chunks(cn_step, x, startup + 1, steps, rows)


def propagate_uniform(
    matrix, x0: np.ndarray, times: np.ndarray, *, rows
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Stream observations of x_i = exp(t_i * matrix) @ x0 over a uniform
    time grid, in chunks of consecutive grid points.

    Each chunk is ``(start, obs, state)``: ``obs[k]`` is
    ``rows @ x_(start+k)``, one row per grid point of the chunk, and
    ``state`` is the state at its last point.  The first chunk is the
    initial point alone.  ``rows`` is a dense or sparse matrix with one
    row per observed functional.  Everything is real and stepped in
    float64: a complex matrix, state or rows raises ValueError.  The
    dense propagator runs up to ``DENSE_CUTOFF`` unknowns,
    Crank-Nicolson above.  A chunk with a non-finite observation, or a
    non-finite state at the last point, raises ConvergenceError naming
    the grid index as it is reached.
    """
    if any(np.iscomplexobj(a) for a in (matrix, x0, rows)):
        raise ValueError("propagation is real: the matrix, state and rows must not be complex")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or x0.size != n or rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError("matrix, state and observation dimensions disagree")
    chunks = _dense_chunks if n <= DENSE_CUTOFF else _cn_chunks
    steps = times.size - 1
    return _finite_chunks(chunks(matrix, x0, uniform_step(times), steps, rows), steps)


def _finite_chunks(chunks, last: int):
    """``chunks`` as they come, refused at the first grid index whose
    observations are non-finite; a non-finite entry stays non-finite under
    every later step, so one check of the state at ``last`` catches what a
    check per step would."""
    for start, obs, x in chunks:
        bad = ~np.isfinite(obs).all(axis=1)
        if start + obs.shape[0] > last and not np.isfinite(x).all():
            bad[-1] = True
        if bad.any():
            raise ConvergenceError(
                "propagation produced non-finite values at grid index "
                f"{start + int(np.argmax(bad))}; reduce the step size or switch integrator"
            )
        yield start, obs, x


def resolvent_solves(matrix, x0: np.ndarray, powers: int = 2, shift: float = 0.0) -> np.ndarray:
    """(A - shift I)^-k x0, k = 1..``powers``, for a real absorbing
    generator A, from one band LU, for ``exit_solve`` and
    ``edge_loss_bound``.  A singular A, which keeps some weight forever,
    raises ConvergenceError.
    """
    if shift:
        matrix = matrix - shift * scipy.sparse.identity(matrix.shape[0])
    try:
        solve = _band_factor(matrix)
    except ConvergenceError as exc:
        raise ConvergenceError(f"the absorbing generator is singular ({exc})") from None
    solves = [np.asarray(x0, dtype=float)]
    for _ in range(powers):
        solves.append(solve(solves[-1]))
    if not np.isfinite(solves[-1]).all():
        raise ConvergenceError("the absorbing generator is numerically singular")
    return np.array(solves[1:])


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


def _absorbable_part(matrix, flux: np.ndarray, *vectors: np.ndarray):
    """A and ``vectors`` on the ``absorbable`` coordinates of ``flux``,
    which evolve on their own."""
    keep = absorbable(matrix, flux)
    return (matrix[keep][:, keep], *(v[keep] for v in vectors))


def exit_solve(generator: BlockGenerator, x0, shortfall: float, unreachable: str, powers=2):
    """Lower- and upper-exit probabilities of the weight x0, then the
    moments E[T^k], k = 1..``powers``, of its absorption time, from one LU
    of A on its ``absorbable`` coordinates: -u A^-1 x0 for the flux u of
    an edge, E[T^k] = k! w (-A)^-k x0 for the survival w (Neuts 1981).
    Raises ConvergenceError(``unreachable``) when x0 has no weight on the
    kept coordinates, says that a dark state keeps weight when the kept A
    is singular, and names the absorbed probability unless it is 1 to
    within ``shortfall``."""
    matrix, x0, lower, upper, w = _absorbable_part(
        generator.matrix, generator.flux_vector,
        x0, generator.lower_flux, generator.upper_flux, generator.survival_vector,
    )
    if not x0.any():
        raise ConvergenceError(unreachable)
    try:
        solves = resolvent_solves(matrix, x0, powers)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"part of the initial weight is never absorbed: {exc}, so a dark state that "
            "the sparsity graph cannot separate keeps it"
        ) from None
    lower_exit, upper_exit = (-float(u @ solves[0]) for u in (lower, upper))
    if not abs(lower_exit + upper_exit - 1.0) <= shortfall:
        raise ConvergenceError(
            "the initial weight is ever absorbed with probability "
            f"{lower_exit + upper_exit:.9g}, not 1 to within {shortfall:g}"
        )
    moments = (math.factorial(k) * (-1) ** k * float(w @ y)
               for k, y in enumerate(solves, 1))
    return lower_exit, upper_exit, *moments


def absorption_horizon_guess(generator: BlockGenerator, x0, tail_epsilon: float):
    """Exit probabilities of the weight x0 and the horizon T* by which its
    survival G is below ``tail_epsilon``: Markov's inequality
    G(t) <= E[T^k] / t^k on the ``exit_solve`` moments gives
    T* = min over k <= ``CERTIFICATE_MOMENTS`` of (E[T^k] / eps)^(1/k).
    ``exit_solve`` refuses a state that no horizon brings below eps."""
    unreachable = "the threshold is unreachable from the initial state"
    exits = exit_solve(generator, x0, tail_epsilon, unreachable, CERTIFICATE_MOMENTS)
    certified = min((m / tail_epsilon) ** (1.0 / k) for k, m in enumerate(exits[2:], 1) if m > 0)
    return exits[0], exits[1], certified


def edge_loss_bound(generator: BlockGenerator, x0, flux: np.ndarray, horizon: float) -> float:
    """Bound on the probability that the weight x0 leaves through the edge
    of ``flux`` by ``horizon`` T.  The edge-flux density u exp(tA) x0 is
    nonnegative, so by Chernoff that probability is at most
    e^(sT) u (sI - A)^-1 x0 for every s >= 0; at s = 0 this is the exit
    probability, the bound at T = inf.  Its logarithm is convex in s, so
    the search tries s = 0, then 2^j / T for j = 0, 1, ..., and stops at
    the first bound below ``EDGE_TOLERANCE`` or the first rise.  One LU
    per s, on the ``absorbable`` coordinates."""
    matrix, x0, flux = _absorbable_part(generator.matrix, flux, x0, flux)
    if not x0.any():
        return 0.0
    # scale = sT; ln(bound) is capped at 0, as a bound above 1 says nothing
    best, scale = math.inf, 0.0
    while best >= EDGE_TOLERANCE:
        try:
            laplace = -float(flux @ resolvent_solves(matrix, x0, 1, scale / horizon)[0])
        except ConvergenceError:
            # a never-absorbed (dark) state makes A singular: s = 0 bounds nothing
            laplace = math.inf
        bound = math.exp(min(scale + math.log(laplace), 0.0)) if laplace > 0 else 0.0
        if not bound < best or math.isinf(horizon):
            return min(bound, best)
        best, scale = bound, 2.0 * scale or 1.0
    return best


def initial_density(model: LindbladModel, initial: np.ndarray | str) -> np.ndarray:
    """Density matrix of an initial-state spec, ``steady``,
    ``maximally-mixed`` or ``basis:K``, or of a matrix."""
    if not isinstance(initial, str):
        return validate_density_matrix(initial)
    dim = model.dim
    if initial == "steady":
        return steady_state(build_liouvillian(model))
    if initial == "maximally-mixed":
        return np.eye(dim, dtype=complex) / dim
    if initial.startswith("basis:"):
        try:
            k = int(initial.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad basis index in {initial!r}") from exc
        if not 0 <= k < dim:
            raise ConfigError(f"basis index {k} outside 0..{dim - 1}")
        return np.diag(np.eye(dim, dtype=complex)[k])
    raise ConfigError(f"unknown start spec {initial!r}; use steady, maximally-mixed or basis:K")


def default_step(scale: float) -> float:
    """Output step for a fastest rate ``scale``; it keeps the trapezoidal
    absorbed-mass bookkeeping inside its 1e-6 budget."""
    if scale <= 0:
        raise ModelError("model has no dynamics to set a time step from")
    return STEP_FACTOR / scale


def time_grid(horizon: float, dt: float) -> np.ndarray:
    """Uniform output grid of step ``dt`` up to ``horizon``.

    For very long horizons the step is coarsened, with a logged warning,
    so the grid never exceeds ``MAX_GRID_POINTS``; the bookkeeping check
    still applies, so a horizon too long for the requested accuracy fails
    loudly.
    """
    positive_finite(horizon, "horizon")
    positive_finite(dt, "dt")
    num = max(2, int(math.ceil(horizon / dt)) + 1)
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
    sum to a trace-preserving generator.  Each is mapped once into the
    Hermitian basis T as the real T^dag B_nu T, refused with ModelError
    unless its imaginary part is roundoff (``operators.hermitian_real``),
    so the matrix, the functionals and the fluxes are real.  What would
    land outside the domain is dropped.  The survival functional is
    w (x) tr for the domain's ``trace_weights`` w, and as
    sum_nu tr o B_nu = 0 its loss rate gives cell j the flux
    sum_nu (c - w_(j+nu)) tr o B_nu, with c the ``cell_width`` and w zero
    outside the domain.  Padded with max|nu| ghosts on each side, each
    side takes its own ghosts and its edge cell: a jump window's edge
    cells have w = c, a trapezoidal grid's half-weight edge nodes do not.
    """
    # the dict's insertion order is the summation order of each flux,
    # which the engines keep fixed so that their fluxes stay bit-identical
    n = next(iter(blocks.values())).shape[0]
    dim = math.isqrt(n)
    t = hermitian_basis(dim)
    blocks = {nu: hermitian_real(t.conj().T @ b @ t, "generator block") for nu, b in blocks.items()}
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
    # tr T = tr, as the off-diagonal members of the basis are traceless
    tr = trace_functional(dim)
    reach = max(abs(nu) for nu in blocks)
    # c - w on the cells -reach..m-1+reach, split into each side's ghosts
    # and edge cell
    deficit = domain.cell_width - np.pad(domain.trace_weights, reach)
    lower, upper = np.zeros((2, m + 2 * reach))
    lower[: reach + 1], upper[-reach - 1 :] = deficit[: reach + 1], deficit[-reach - 1 :]

    def flux(e: np.ndarray) -> np.ndarray:
        terms = [kron(e[reach + nu : reach + nu + m], tr @ b) for nu, b in blocks.items()]
        return sum(terms[1:], terms[0])

    survival = kron(domain.trace_weights, tr)
    return BlockGenerator(dim, matrix, survival, flux(upper), flux(lower))


@dataclass
class BlockState:
    """Charge-resolved state at one instant: the real coordinates
    T^dag vec(rho) / c of each cell's density block rho in the Hermitian
    basis T (``operators.hermitian_basis``), for the charge per cell c.

    The domain is a charge window or grid.  It supplies ``ncells``,
    ``index(charge)``, the charge ``cell_width`` that turns a cell trace
    into probability mass, and ``trace_weights``, the quadrature weights
    of the cell traces.
    """

    domain: object
    dim: int
    data: np.ndarray

    @classmethod
    def initial(cls, domain, rho0: np.ndarray):
        """All charge mass in the cell at charge 0."""
        rho0 = validate_density_matrix(rho0)
        d = rho0.shape[0]
        data = np.zeros(domain.ncells * d * d)
        i = domain.index(0)
        # the imaginary part is the anti-Hermitian part of rho0, which
        # validate_density_matrix bounds and the real dynamics drop
        coords = hermitian_basis(d).conj().T @ vectorize(rho0)
        data[i * d * d : (i + 1) * d * d] = coords.real / domain.cell_width
        return cls(domain, d, data)

    def traces(self) -> np.ndarray:
        # the trace of a cell is the sum of its diagonal coordinates i(d+1)
        return np.einsum("nii->n", self.data.reshape((self.domain.ncells, self.dim, self.dim)))

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
        """Trace-weighted sum of all density blocks: the surviving
        unconditional state."""
        coords = self.domain.trace_weights @ self.data.reshape((self.domain.ncells, -1))
        return unvectorize(hermitian_basis(self.dim) @ coords, self.dim)


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


@dataclass
class FptSolution:
    """First-passage series of an absorbing solve on its final domain.
    ``final_state`` is the charge-resolved state at the horizon; a solve
    on an explicit domain with nothing absorbed by then reads the charge
    distribution off it."""

    result: FptResult
    domain: object
    final_state: BlockState


def choose_domain(disc: Discretisation, domain, lower_open, upper_open, horizon, exits=None):
    """The domain whose open sides each lose less than ``EDGE_TOLERANCE``
    by ``horizon``, its generator, its initial state and, at T = inf, its
    ``exits``.

    Each domain is assembled once.  A side's loss is its
    ``edge_loss_bound``, or at T = inf its exit probability, the lower and
    the upper one first in ``exits(generator, x0, domain)``.  Flagged sides
    widen through ``domain.widened``, up to ``MAX_MOMENT_UNKNOWNS``
    unknowns; a side that would pass them is refused, naming its loss.  A
    first domain with an open side is refused with ConfigError before it is
    assembled if it already passes them: the input sized it."""
    opened = (lower_open, upper_open)
    unknowns = domain.ncells * disc.rho0.shape[0] ** 2
    if any(opened) and unknowns > MAX_MOMENT_UNKNOWNS:
        raise ConfigError(
            f"the first domain {domain} has {unknowns:.4g} unknowns, past the "
            f"{MAX_MOMENT_UNKNOWNS} an open side may reach; the model's rates or "
            "jump weights size it")
    while True:
        generator, x0 = disc.assemble(domain), BlockState.initial(domain, disc.rho0).data
        found = exits(generator, x0, domain) if math.isinf(horizon) else None
        losses = found[:2] if found else [
            edge_loss_bound(generator, x0, flux, horizon) if is_open else 0.0
            for flux, is_open in zip((generator.lower_flux, generator.upper_flux), opened)
        ]
        grow = [is_open and loss >= EDGE_TOLERANCE for is_open, loss in zip(opened, losses)]
        if not any(grow):
            return domain, generator, x0, found
        wider, side = domain.widened(*grow), grow.index(True)
        if wider.ncells * generator.dim**2 > MAX_MOMENT_UNKNOWNS:
            raise ConvergenceError(
                f"{('lower', 'upper')[side]}-exit probability by T = {horizon:g} is still up to "
                f"{losses[side]:.4g} on {domain}, and widening it passes {MAX_MOMENT_UNKNOWNS} "
                "unknowns; the charge may drift away from the threshold")
        logger.debug("widening %s -> %s", domain, wider)
        domain = wider


def solve_absorbing(
    disc: Discretisation, domain, *, lower_open: bool, upper_open: bool, horizon: float,
    dt: float, auto_tail: bool, tail_epsilon: float,
) -> FptSolution:
    """First-passage series of an absorbing generator on a uniform grid,
    stepped once on the domain ``choose_domain`` picks for the horizon.

    With ``auto_tail`` the domain is picked for T = inf, where
    ``absorption_horizon_guess`` refuses an initial state that is not
    absorbed with probability 1 to within ``tail_epsilon`` and certifies a
    horizon T*; the series runs to max(horizon, T*), and is refused if its
    survival there is not below ``tail_epsilon``.
    """
    if not 0.0 < tail_epsilon < 1.0:
        raise ConfigError(f"tail epsilon must lie in (0, 1), got {tail_epsilon!r}")
    horizon = float(horizon)
    if auto_tail:
        domain, generator, x0, (_, _, certified) = choose_domain(
            disc, domain, lower_open, upper_open, math.inf,
            lambda generator, x0, _: absorption_horizon_guess(generator, x0, tail_epsilon),
        )
        horizon = max(horizon, certified)
    else:
        domain, generator, x0, _ = choose_domain(disc, domain, lower_open, upper_open, horizon)
    times = time_grid(horizon, dt)
    rows = scipy.sparse.csr_matrix(np.vstack([generator.survival_vector, generator.flux_vector]))
    obs = np.empty((times.size, 2))
    chunks = propagate_uniform(generator.matrix, x0, times, rows=rows)
    for start, chunk, x in chunks:
        obs[start : start + chunk.shape[0]] = chunk
    result = FptResult(times, obs[:, 1], obs[:, 0], disc.provenance)
    if auto_tail and not result.survival[-1] < tail_epsilon:
        raise ConvergenceError(
            f"survival G(T) is {result.survival[-1]:.3e} at the certified horizon "
            f"T = {horizon:.6g}, not below the tail epsilon {tail_epsilon:g}"
        )
    # x is the state at the horizon, the last one the propagator yielded
    final = BlockState(domain, generator.dim, x)
    return FptSolution(result, domain, final)
