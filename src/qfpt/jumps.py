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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import TAIL_EPSILON, FptMoments
from .errors import ConfigError, ModelError
from .operators import LindbladModel, build_jump_super, build_no_jump, is_integer
from .propagation import (
    BlockGenerator,
    BlockState,
    Discretisation,
    FptSolution,
    absorbing_generator,
    absorbing_moments,
    default_step,
    initial_density,
    positive_finite,
    solve_absorbing,
)

# the exit probability of a moments solve must be 1 to this
CERTAIN_EXIT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ChargeWindow:
    """Inclusive integer charge window [lower, upper] containing 0."""

    lower: int
    upper: int

    # one integer charge per cell: a cell trace is already probability mass
    cell_width = 1.0

    def __post_init__(self):
        if not (is_integer(self.lower) and is_integer(self.upper)):
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

    @property
    def trace_weights(self) -> np.ndarray:
        """Unit weights: the surviving mass is the plain sum of the cell traces."""
        return np.ones(self.ncells)

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


def charge_distribution(state: BlockState) -> dict[int, float]:
    """Map N -> probability of a charge-resolved state on a
    ``ChargeWindow``; see ``BlockState.clipped_traces``."""
    return dict(zip(state.domain.charges.tolist(), state.clipped_traces().tolist()))


def integer_weight(channel) -> int:
    """Charge of one detection event on a channel, which jump monitoring
    needs to be a nonzero integer."""
    w = channel.weight
    if abs(w - round(w)) > 1e-12 or round(w) == 0:
        raise ModelError(
            f"jump monitoring needs nonzero integer channel weights, got {w!r}"
        )
    return int(round(w))


def build_block_generator(model: LindbladModel, window: ChargeWindow) -> BlockGenerator:
    """Assemble the block generator for a charge window.

    The shift-0 block carries the no-jump generator plus the sharp jumps of
    any silent channel; the block of shift nu carries the sharp jumps of
    the monitored channels of weight nu, which share it.
    ``absorbing_generator`` drops the jumps that would leave the window and
    turns their rates into the edge fluxes.
    """
    model.require_channels()
    diag = build_no_jump(model)
    for ch in model.silent:
        diag = diag + build_jump_super(ch)
    blocks = {0: diag}
    for ch in model.monitored:
        nu = integer_weight(ch)
        jump = build_jump_super(ch)
        blocks[nu] = blocks[nu] + jump if nu in blocks else jump
    return absorbing_generator(blocks, window)


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


def _discretisation(model: LindbladModel, rho0: np.ndarray) -> Discretisation:
    return Discretisation(
        functools.partial(build_block_generator, model), rho0, "deterministic-jump"
    )


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
    tail_epsilon: float = TAIL_EPSILON,
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
        _discretisation(model, rho0),
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
    probability is below ``EDGE_TOLERANCE``.  An unreachable threshold, a
    probability of ever being absorbed that is not 1 to within
    ``CERTAIN_EXIT_TOLERANCE``, or a window past ``MAX_MOMENT_UNKNOWNS``
    raises ConvergenceError.  ``absorbed_probability`` is the upper-exit
    probability.
    """
    model.require_channels()
    threshold = integer_threshold(threshold, +1)
    if threshold is None:
        raise ConfigError("first-passage moments need an upper threshold")
    window, _, _ = preview_window(model, threshold)
    _, upper_exit, mean, second = absorbing_moments(
        _discretisation(model, initial_density(model, "steady")),
        window,
        CERTAIN_EXIT_TOLERANCE,
        f"threshold {threshold} is unreachable from the steady state",
    )
    return FptMoments.from_raw(mean, second, upper_exit)
