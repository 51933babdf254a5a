"""Charge-resolved master equation for jump unravellings.

The joint state of system and counted charge is a stack of unnormalized
density matrices rho_N, one per charge cell N in a finite window [a, b].
Charge moves when a monitored channel fires; anything that would land
outside the window is absorbed, and the absorption rate is the
first-passage-time density for leaving the window.

Threshold semantics: a user threshold ``n`` means "the first time the
charge reaches n", realized by the window edge b = n - 1 (symmetrically
a = n + 1 for a lower threshold).  One-sided thresholds keep the open side
wide enough that the edge cell stays numerically unoccupied.

``solve_jump_fpt`` returns the first-passage series together with the
charge-resolved ``BlockState`` at the horizon; on an explicit window with
nothing absorbed over the horizon t, ``charge_distribution`` of that state
is the counting distribution P(N, t).  ``passage_moments`` gives the exact
mean and variance of the hit time from ``propagation.absorbing_moments``
on the same generator, without a time series.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .analysis import FptMoments
from .errors import ConfigError, ConvergenceError, ModelError, PhysicsError
from .operators import (
    LindbladModel,
    build_jump_super,
    build_no_jump,
    trace_functional,
    vectorize,
)
from .propagation import (
    BlockState,
    Discretisation,
    FptSolution,
    absorbing_moments,
    default_step,
    initial_density,
    positive_finite,
    solve_absorbing,
)

logger = logging.getLogger(__name__)

TRACE_CLIP_ABORT = 1e-9
# the upper-exit probability of a moments solve must be 1 to this
CERTAIN_EXIT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ChargeWindow:
    """Inclusive integer charge window [lower, upper] containing 0."""

    lower: int
    upper: int

    # one integer charge per cell: a cell trace is already probability
    # mass, and the surviving mass is the plain sum of the cell traces
    cell_width = 1.0
    trace_weights = None

    def __post_init__(self):
        if not (isinstance(self.lower, (int, np.integer)) and isinstance(self.upper, (int, np.integer))):
            raise ConfigError("window edges must be integers")
        object.__setattr__(self, "lower", int(self.lower))
        object.__setattr__(self, "upper", int(self.upper))
        if not (self.lower <= 0 <= self.upper):
            raise ConfigError(f"window [{self.lower}, {self.upper}] must contain 0")
        if self.lower >= self.upper:
            raise ConfigError("window must contain at least two cells")

    @property
    def ncells(self) -> int:
        return self.upper - self.lower + 1

    @property
    def charges(self) -> np.ndarray:
        return np.arange(self.lower, self.upper + 1)

    def index(self, charge: int) -> int:
        if not self.lower <= charge <= self.upper:
            raise ValueError(f"charge {charge} outside window [{self.lower}, {self.upper}]")
        return charge - self.lower

    def widened(self, grow_lower: bool, grow_upper: bool) -> "ChargeWindow":
        """Window with the flagged sides doubled; open sides never sit at 0."""
        lower = 2 * self.lower if grow_lower else self.lower
        upper = 2 * self.upper if grow_upper else self.upper
        return ChargeWindow(lower, upper)

    def __str__(self) -> str:
        return f"window [{self.lower}, {self.upper}]"


def _clip_trace(value: float, what: str) -> float:
    if value >= 0.0:
        return value
    if value < -TRACE_CLIP_ABORT:
        raise PhysicsError(f"{what} is {value:.3e}, below the abort threshold")
    logger.debug("clipping negative %s %.3e to zero", what, value)
    return 0.0


def charge_distribution(state: BlockState) -> dict[int, float]:
    """Map N -> probability of a charge-resolved state on a
    ``ChargeWindow``, with tiny negative traces clipped to zero."""
    return {
        int(n): _clip_trace(float(p), f"charge-cell probability at N={n}")
        for n, p in zip(state.domain.charges, state.traces())
    }


@dataclass(frozen=True)
class JumpBlockGenerator:
    """Sparse generator of the charge-resolved dynamics on a window.

    ``upper_flux`` and ``lower_flux`` are the absorption rates through the
    upper and the lower window edge as functionals on the stacked state.
    """

    window: ChargeWindow
    dim: int
    matrix: scipy.sparse.csr_matrix
    survival_vector: np.ndarray
    upper_flux: np.ndarray
    lower_flux: np.ndarray

    @property
    def flux_vector(self) -> np.ndarray:
        """Absorption rate through either edge: the first-passage density."""
        return self.upper_flux + self.lower_flux


def integer_weight(channel) -> int:
    """Charge of one detection event on a channel, which jump monitoring
    needs to be a nonzero integer."""
    w = channel.weight
    if abs(w - round(w)) > 1e-12 or round(w) == 0:
        raise ModelError(
            f"jump monitoring needs nonzero integer channel weights, got {w!r}"
        )
    return int(round(w))


def build_block_generator(model: LindbladModel, window: ChargeWindow) -> JumpBlockGenerator:
    """Assemble the block generator for a charge window.

    Diagonal blocks carry the no-jump generator plus the sharp jumps of any
    silent channel; the block in row N, column N - nu_k carries the sharp
    jump of monitored channel k.  Jumps that would leave the window are
    dropped from the generator, and their rates accumulate in the flux
    functional that evaluates the first-passage density.
    """
    model.require_channels()
    d = model.dim
    n_cells = window.ncells
    diag = build_no_jump(model)
    for ch in model.silent:
        diag = diag + build_jump_super(ch)
    # charge shift -> block on the cells it connects; channels of one shift
    # share a block
    blocks = {0: scipy.sparse.csr_matrix(diag)}
    upper_flux = np.zeros((n_cells, d * d), dtype=complex)
    lower_flux = np.zeros((n_cells, d * d), dtype=complex)
    for ch in model.monitored:
        nu = integer_weight(ch)
        jump = scipy.sparse.csr_matrix(build_jump_super(ch))
        blocks[nu] = blocks[nu] + jump if nu in blocks else jump
        gram = ch.operator.conj().T @ ch.operator
        # tr(M rho) as a row functional on vec(rho): vec(M.T)
        gram_row = vectorize(gram.T)
        upper_flux[window.charges + nu > window.upper] += gram_row
        lower_flux[window.charges + nu < window.lower] += gram_row
    rows, cols, vals = [], [], []
    for nu, block in blocks.items():
        block = block.tocoo()
        # cell i receives from cell i - nu when both lie in the window
        cells = np.arange(max(nu, 0), min(n_cells, n_cells + nu))[:, None]
        rows.append((cells * d * d + block.row).ravel())
        cols.append(((cells - nu) * d * d + block.col).ravel())
        vals.append(np.broadcast_to(block.data, (cells.size, block.nnz)).ravel())
    size = n_cells * d * d
    matrix = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    survival = np.tile(trace_functional(d), n_cells)
    return JumpBlockGenerator(
        window, d, matrix, survival, upper_flux.ravel(), lower_flux.ravel()
    )


def integer_threshold(value, sign: int) -> int | None:
    """A jump threshold as an integer count, positive for ``sign=+1`` and
    negative for ``sign=-1``; fractional values are refused, not floored."""
    if value is None:
        return None
    if not float(value).is_integer() or sign * value < 1:
        side, kind = ("upper", "positive") if sign > 0 else ("lower", "negative")
        raise ConfigError(f"{side} threshold must be a {kind} integer, got {value!r}")
    return int(value)


def preview_window(
    model: LindbladModel,
    threshold: int | None = None,
    lower_threshold: int | None = None,
    horizon: float = 10.0,
) -> tuple[ChargeWindow, bool, bool]:
    """Window a solve would start from, plus flags marking which sides are
    open (adjustable)."""
    threshold = integer_threshold(threshold, +1)
    lower_threshold = integer_threshold(lower_threshold, -1)
    rate = sum(float(np.linalg.norm(ch.operator, 2)) ** 2 for ch in model.monitored)
    max_step = max((abs(integer_weight(ch)) for ch in model.monitored), default=1)
    spread = int(math.ceil(2.0 * math.sqrt(max(rate * horizon, 1.0)))) * max_step + 2 * max_step
    upper_open = threshold is None
    lower_open = lower_threshold is None
    upper = spread if upper_open else threshold - 1
    lower = -spread if lower_open else lower_threshold + 1
    # only open sides may be adjusted to keep the window legal
    if upper_open:
        upper = max(upper, lower + 1, 1)
    if lower_open:
        lower = min(lower, upper - 1, -1)
    return ChargeWindow(lower, upper), lower_open, upper_open


class _JumpDiscretisation(Discretisation):
    provenance = "deterministic-jump"
    keep_traces = True

    def assemble(self, window: ChargeWindow) -> JumpBlockGenerator:
        return build_block_generator(self.model, window)


def solve_jump_fpt(
    model: LindbladModel,
    *,
    threshold: int | None = None,
    lower_threshold: int | None = None,
    window: ChargeWindow | None = None,
    initial: np.ndarray | str = "steady",
    horizon: float = 10.0,
    dt: float | None = None,
    auto_tail: bool = False,
    tail_epsilon: float = 1e-6,
) -> FptSolution:
    """Solve the windowed charge-resolved dynamics and return its chronology.

    Open window sides (no threshold given) are widened until the edge cell
    occupancy stays negligible over the whole horizon.  With ``auto_tail``
    the horizon doubles until the survival drops below ``tail_epsilon``, so
    that moments are well defined afterwards; see ``solve_absorbing``.
    """
    horizon = positive_finite(horizon, "horizon")
    model.require_channels()
    rho0 = initial_density(model, initial)
    if window is not None and (threshold is not None or lower_threshold is not None):
        raise ConfigError("pass either an explicit window or thresholds, not both")
    if window is not None:
        win, lower_open, upper_open = window, False, False
    else:
        win, lower_open, upper_open = preview_window(model, threshold, lower_threshold, horizon)
    return solve_absorbing(
        _JumpDiscretisation(model, rho0),
        win,
        lower_open=lower_open,
        upper_open=upper_open,
        horizon=horizon,
        dt=dt if dt is not None else default_step(model.rate_scale()),
        auto_tail=auto_tail,
        tail_epsilon=tail_epsilon,
    )


def passage_moments(model: LindbladModel, threshold: int) -> FptMoments:
    """Exact moments of the first time the charge, started at 0 in the
    steady state, reaches ``threshold``, with the lower side open.

    ``propagation.absorbing_moments`` widens the lower side until its exit
    probability is below ``EDGE_TOLERANCE``.  A singular generator, an
    upper-exit probability short of 1, or a window past
    ``MAX_MOMENT_UNKNOWNS`` raises ConvergenceError.  ``absorbed_probability``
    is the upper-exit probability.
    """
    model.require_channels()
    threshold = integer_threshold(threshold, +1)
    if threshold is None:
        raise ConfigError("first-passage moments need an upper threshold")
    window, _, _ = preview_window(model, threshold)
    mean, second, upper_exit = absorbing_moments(
        _JumpDiscretisation(model, initial_density(model, "steady")),
        window,
        f"threshold {threshold} is unreachable from the steady state",
    )
    if not abs(upper_exit - 1.0) <= CERTAIN_EXIT_TOLERANCE:
        raise ConvergenceError(
            f"threshold {threshold} is reached with probability {upper_exit:.9g}, "
            "not 1; its first-passage moments do not exist"
        )
    return FptMoments.from_raw(mean, second, upper_exit)
