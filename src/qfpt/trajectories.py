"""Stochastic trajectory oracle for both monitoring schemes.

Ensembles of conditional evolutions with accumulated charge and first-hit
detection, used as statistical ground truth for the deterministic
engines.  One ensemble loop, ``simulate``, drives both unravellings
through a small stepper each.  Jump monitoring samples at most one jump
per step against the instantaneous channel rates; diffusive monitoring
advances the state by the measurement-operator factorization of the
first-order update, with one Wiener increment per monitored channel and
the charge fed by the quadrature expectations plus the same increments.
The factorized form agrees with the plain explicit step to first order in
dt but keeps the state positive by construction, so the eigenvalue clamp
stays a safety net instead of firing on ordinary near-pure excursions.

Trajectory k of an ensemble draws from the k-th child stream spawned from
the ensemble seed (``numpy.random.SeedSequence`` with spawn key ``(k,)``),
in fixed-size blocks, so results are bit-identical no matter how the
ensemble is executed or ordered, and different seeds give independent
trajectories.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import FptResult
from .diffusion import real_threshold
from .errors import ConfigError, ModelError, PhysicsError
from .jumps import integer_threshold, integer_weight
from .models import LindbladModel
from .propagation import block_traces, initial_density, positive_finite

logger = logging.getLogger(__name__)

JUMP_STEP_WARN = 0.05
JUMP_STEP_ABORT = 0.2
DEFAULT_STEP_BUDGET = 0.01
RNG_BLOCK = 1024
SEED_MAX = 2**64 - 1
REPAIR_FRACTION_ABORT = 1e-3
PSD_CLAMP_TOL = 1e-10
PATH_SAMPLES = 256


@dataclass(frozen=True)
class TrajectoryConfig:
    """Ensemble description shared by both unravellings."""

    model: LindbladModel
    unravelling: str
    ntraj: int
    horizon: float
    dt: float | None = None
    seed: int = 0
    initial: np.ndarray | str = "steady"
    threshold: float | None = None
    lower_threshold: float | None = None
    keep_paths: bool = True
    index_offset: int = 0

    def __post_init__(self):
        if self.unravelling not in ("jump", "diffusion"):
            raise ConfigError(f"unknown unravelling {self.unravelling!r}")
        if self.ntraj < 1:
            raise ConfigError("need at least one trajectory")
        if self.index_offset < 0:
            raise ConfigError("index offset must be nonnegative")
        positive_finite(self.horizon, "horizon")
        if self.dt is not None:
            positive_finite(self.dt, "dt")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed <= SEED_MAX):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        self.model.require_channels()
        if self.unravelling == "jump":
            for ch in self.model.monitored:
                integer_weight(ch)
            integer_threshold(self.threshold, +1)
            integer_threshold(self.lower_threshold, -1)
        else:
            real_threshold(self.threshold, +1)
            real_threshold(self.lower_threshold, -1)

    def initial_matrix(self) -> np.ndarray:
        return initial_density(self.model, self.initial)

    def resolve_step(self) -> tuple[float, int]:
        """Effective step and step count; the step divides the horizon."""
        model = self.model
        jump_bound = max(
            (float(np.linalg.norm(ch.operator.conj().T @ ch.operator, 2)) for ch in model.channels),
            default=0.0,
        )
        if self.dt is None:
            scale = max(model.rate_scale(), jump_bound)
            if self.unravelling == "diffusion":
                scale = max(scale, sum(ch.weight**2 for ch in model.monitored))
            if scale <= 0:
                raise ModelError("model has no dynamics to set a time step from")
            dt = DEFAULT_STEP_BUDGET / scale
        else:
            dt = self.dt
        nsteps = max(1, int(math.ceil(self.horizon / dt - 1e-12)))
        dt = self.horizon / nsteps
        if self.unravelling == "jump" and jump_bound > 0:
            budget = dt * jump_bound
            if budget >= JUMP_STEP_ABORT:
                raise ConfigError(
                    f"dt*max jump rate = {budget:.3f} breaks the one-jump-per-step "
                    f"approximation (limit {JUMP_STEP_ABORT})"
                )
            if budget >= JUMP_STEP_WARN:
                warnings.warn(
                    f"dt*max jump rate = {budget:.3f}; jump statistics may be "
                    "biased, reduce the step",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return dt, nsteps


@dataclass
class TrajectoryEnsemble:
    """Batched per-trajectory outcomes of one simulation run."""

    config: TrajectoryConfig
    dt: float
    hit_times: np.ndarray
    censored: np.ndarray
    final_charges: np.ndarray
    final_states: np.ndarray
    path_times: np.ndarray
    paths: np.ndarray
    jump_counts: np.ndarray | None = None
    positivity_repairs: int = 0
    # per-trajectory update slots actually executed, so merging parts sums it
    steps_total: int = 0

    @property
    def ntraj(self) -> int:
        return self.hit_times.size

    def absorbed_times(self) -> np.ndarray:
        return self.hit_times[~self.censored]

    def censored_fraction(self) -> float:
        return float(self.censored.mean())

    def mean_state(self) -> np.ndarray:
        return self.final_states.mean(axis=0)


def _renormalize(rho: np.ndarray, what: str) -> np.ndarray:
    tr = block_traces(rho)
    if tr.size and tr.min() < 1e-12:
        raise PhysicsError(f"{what}: conditional state norm collapsed")
    return rho / tr[:, None, None]


class _JumpStepper:
    """Jump unravelling: at most one jump per step, drawn against the
    instantaneous channel rates; the charge counts integer jump weights."""

    charge_dtype = np.int64
    draw_shape: tuple[int, ...] = ()

    def __init__(self, config: TrajectoryConfig, dt: float):
        model = config.model
        self.dt = dt
        self.ops = np.stack([ch.operator for ch in model.channels])
        self.grams = np.stack([ch.operator.conj().T @ ch.operator for ch in model.channels])
        self.nu = np.array([
            integer_weight(ch) if ch.monitored else 0 for ch in model.channels
        ])
        self.h_eff = model.hamiltonian - 0.5j * np.sum(self.grams, axis=0)
        self.counts = np.zeros((config.ntraj, len(model.channels)), dtype=np.int64)

    def draw(self, rng: np.random.Generator, block: int) -> np.ndarray:
        return rng.random(block)

    def update(self, idx: np.ndarray, rho: np.ndarray, u: np.ndarray):
        """New states (overwriting ``rho``) and charge increments of the
        alive trajectories ``idx``."""
        dt = self.dt
        rates = np.einsum("kab,nba->nk", self.grams, rho).real
        cum = np.cumsum(np.clip(dt * rates, 0.0, None), axis=1)
        jumped = u < cum[:, -1]
        flavor = np.argmax(u[:, None] < cum, axis=1)
        dq = np.zeros(idx.size, dtype=np.int64)
        stay = ~jumped
        if stay.any():
            r = rho[stay]
            r = r - 1j * dt * (self.h_eff @ r - r @ self.h_eff.conj().T)
            rho[stay] = _renormalize(r, "no-jump update")
        for k, op in enumerate(self.ops):
            sel = jumped & (flavor == k)
            if not sel.any():
                continue
            rho[sel] = _renormalize(op @ rho[sel] @ op.conj().T, "jump update")
            dq[sel] = self.nu[k]
            self.counts[idx[sel], k] += 1
        return rho, dq

    def hit_time(self, step: int, old, new, target) -> float:
        # the jump lands somewhere inside the step; the end is its time stamp
        return (step + 1) * self.dt

    def record(self, step_slots: int) -> dict:
        return {"jump_counts": self.counts}


def _psd_repair(rho: np.ndarray, where: np.ndarray) -> int:
    """Clamp negative eigenvalues on the flagged states, in place."""
    bad = np.flatnonzero(where)
    for i in bad:
        vals, vecs = np.linalg.eigh(rho[i])
        vals = np.clip(vals, 0.0, None)
        total = vals.sum()
        if total < 1e-12:
            raise PhysicsError("positivity repair removed all state weight")
        rho[i] = (vecs * vals) @ vecs.conj().T / total
    return bad.size


def _min_eig_floor(rho: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue per state; closed form for qubits."""
    d = rho.shape[-1]
    if d == 1:
        return rho[:, 0, 0].real
    if d == 2:
        half = 0.5 * (rho[:, 0, 0] + rho[:, 1, 1]).real
        det = (
            rho[:, 0, 0] * rho[:, 1, 1] - rho[:, 0, 1] * rho[:, 1, 0]
        ).real
        gap = np.sqrt(np.clip(half**2 - det, 0.0, None))
        return half - gap
    return np.linalg.eigvalsh(rho)[:, 0]


class _DiffusionStepper:
    """Diffusive unravelling: one Wiener increment per monitored channel
    per step, and the charge integrated from the weighted signals."""

    charge_dtype = np.float64

    def __init__(self, config: TrajectoryConfig, dt: float):
        model = config.model
        if not model.monitored:
            raise ModelError("diffusive monitoring needs at least one monitored channel")
        self.dt = dt
        self.sq = math.sqrt(dt)
        self.a_ops = np.stack([ch.rotated_operator() for ch in model.monitored])
        self.nu = np.array([ch.weight for ch in model.monitored])
        gram_total = sum(ch.operator.conj().T @ ch.operator for ch in model.channels)
        self.silent_ops = [ch.operator for ch in model.silent]
        self.stem = np.eye(model.dim) - dt * (1j * model.hamiltonian + 0.5 * gram_total)
        self.draw_shape = (len(model.monitored),)
        self.repairs = 0

    def draw(self, rng: np.random.Generator, block: int) -> np.ndarray:
        return rng.standard_normal((block, *self.draw_shape))

    def update(self, idx: np.ndarray, rho: np.ndarray, w: np.ndarray):
        """New states and charge increments of the alive trajectories."""
        dt = self.dt
        xs = 2.0 * np.einsum("kab,nba->nk", self.a_ops, rho).real
        dy = xs * dt + self.sq * w
        kraus = self.stem + np.einsum("nk,kab->nab", dy, self.a_ops)
        new = kraus @ rho @ np.conj(np.transpose(kraus, (0, 2, 1)))
        for op in self.silent_ops:
            new = new + dt * (op @ rho @ op.conj().T)
        new = 0.5 * (new + np.conj(np.transpose(new, (0, 2, 1))))
        new = _renormalize(new, "diffusive update")
        need = _min_eig_floor(new) < -PSD_CLAMP_TOL
        if need.any():
            self.repairs += _psd_repair(new, need)
        return new, dy @ self.nu

    def hit_time(self, step: int, old, new, target) -> np.ndarray:
        """Linear interpolation of the crossing inside the step."""
        frac = (target - old) / (new - old)
        return step * self.dt + np.clip(frac, 0.0, 1.0) * self.dt

    def record(self, step_slots: int) -> dict:
        if step_slots and self.repairs / step_slots > REPAIR_FRACTION_ABORT:
            raise PhysicsError(
                f"positivity repairs on {self.repairs} of {step_slots} updates "
                f"(> {REPAIR_FRACTION_ABORT:.1%}); reduce the step size"
            )
        return {"positivity_repairs": self.repairs}


_STEPPERS = {"jump": _JumpStepper, "diffusion": _DiffusionStepper}


def simulate(config: TrajectoryConfig) -> TrajectoryEnsemble:
    """Run an ensemble of either unravelling with charge accumulation and
    first-hit detection.

    Every trajectory draws its noise from its own generator, one block of
    ``RNG_BLOCK`` steps at a time and only while it is alive, and the
    unravelling's stepper advances all alive states together.  A
    trajectory is absorbed when its charge reaches ``threshold`` or falls
    to ``lower_threshold``.
    """
    dt, nsteps = config.resolve_step()
    n = config.ntraj
    rho0 = config.initial_matrix()
    stepper = _STEPPERS[config.unravelling](config, dt)
    # a missing threshold is one the charge never reaches
    upper = np.inf if config.threshold is None else config.threshold
    lower = -np.inf if config.lower_threshold is None else config.lower_threshold

    rho = np.broadcast_to(rho0, (n, *rho0.shape)).copy()
    charge = np.zeros(n, dtype=stepper.charge_dtype)
    hit = np.full(n, np.nan)
    alive = np.ones(n, dtype=bool)
    step_slots = 0
    # trajectory k draws from the k-th child stream spawned from the seed
    rngs = [
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(k,)))
        for k in range(config.index_offset, config.index_offset + n)
    ]

    stride = max(1, nsteps // PATH_SAMPLES)
    path_times = [0.0]
    paths = [charge.copy()] if config.keep_paths else None

    noise = np.empty((n, min(RNG_BLOCK, nsteps), *stepper.draw_shape))
    for block_start in range(0, nsteps, RNG_BLOCK):
        block = min(RNG_BLOCK, nsteps - block_start)
        for i in np.flatnonzero(alive):
            noise[i, :block] = stepper.draw(rngs[i], block)
        for s in range(block):
            step = block_start + s
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            step_slots += idx.size
            states, dq = stepper.update(idx, rho[idx], noise[idx, s])
            rho[idx] = states
            old = charge[idx]
            new = old + dq
            charge[idx] = new

            crossed = (new >= upper) | (new <= lower)
            if crossed.any():
                done = idx[crossed]
                before, after = old[crossed], new[crossed]
                target = np.where(after >= upper, upper, lower)
                hit[done] = stepper.hit_time(step, before, after, target)
                alive[done] = False
            if config.keep_paths and (step + 1) % stride == 0:
                path_times.append((step + 1) * dt)
                paths.append(charge.copy())
        if not alive.any():
            break

    if config.keep_paths:
        path_arr = np.stack(paths, axis=1)
        time_arr = np.array(path_times)
    else:
        path_arr = np.zeros((n, 0), dtype=charge.dtype)
        time_arr = np.zeros(0)
    return TrajectoryEnsemble(
        config, dt, hit, np.isnan(hit), charge.astype(float), rho,
        time_arr, path_arr, steps_total=step_slots, **stepper.record(step_slots),
    )


def partition_config(config: TrajectoryConfig, batches: int) -> list[TrajectoryConfig]:
    """Split an ensemble into contiguous index blocks for parallel execution.

    Each block keeps the per-trajectory generator streams of the full run,
    so simulating the blocks separately and merging reproduces the single
    run bit for bit.  Paths are dropped; merging them is not supported.
    """
    if batches < 1:
        raise ConfigError("need at least one batch")
    batches = min(batches, config.ntraj)
    base, extra = divmod(config.ntraj, batches)
    parts = []
    offset = config.index_offset
    for i in range(batches):
        size = base + (1 if i < extra else 0)
        parts.append(
            replace(config, ntraj=size, index_offset=offset, keep_paths=False)
        )
        offset += size
    return parts


def merge_ensembles(parts) -> TrajectoryEnsemble:
    """Concatenate contiguous batches back into one ensemble."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to merge")
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    expected = first.config.index_offset
    for part in parts:
        if part.config.keep_paths:
            raise ConfigError("merging kept paths is not supported")
        if part.config.index_offset != expected:
            raise ConfigError("batches are not contiguous in trajectory index")
        if part.dt != first.dt:
            raise ConfigError("batches disagree on the resolved time step")
        expected += part.config.ntraj
    total = sum(p.config.ntraj for p in parts)
    config = replace(first.config, ntraj=total)
    counts = None
    if first.jump_counts is not None:
        counts = np.concatenate([p.jump_counts for p in parts])
    return TrajectoryEnsemble(
        config,
        first.dt,
        np.concatenate([p.hit_times for p in parts]),
        np.concatenate([p.censored for p in parts]),
        np.concatenate([p.final_charges for p in parts]),
        np.concatenate([p.final_states for p in parts]),
        first.path_times,
        first.paths,
        counts,
        sum(p.positivity_repairs for p in parts),
        sum(p.steps_total for p in parts),
    )


@dataclass(frozen=True)
class EmpiricalFpt:
    """Histogram bins of an ensemble's hit times plus the censored mass."""

    bin_edges: np.ndarray
    censored_mass: float
    nabsorbed: int
    hit_times: np.ndarray = field(repr=False)

    def to_result(self) -> FptResult:
        """Unconditional density sampled on left bin edges, with survival."""
        edges = self.bin_edges
        ntraj = self.hit_times.size
        counts, _ = np.histogram(self.hit_times[np.isfinite(self.hit_times)], bins=edges)
        dens = counts / (ntraj * np.diff(edges))
        surv = 1.0 - np.concatenate([[0], np.cumsum(counts)]) / ntraj
        return FptResult(edges, np.concatenate([dens, [0.0]]), surv, "monte-carlo")


def fpt_histogram(ensemble: TrajectoryEnsemble, bins: int | np.ndarray = 50) -> EmpiricalFpt:
    """Histogram bins over the horizon (or the given edges) for an ensemble."""
    if isinstance(bins, (int, np.integer)):
        edges = np.linspace(0.0, ensemble.config.horizon, int(bins) + 1)
    else:
        edges = np.asarray(bins, dtype=float)
    return EmpiricalFpt(
        edges, ensemble.censored_fraction(), ensemble.absorbed_times().size, ensemble.hit_times,
    )
