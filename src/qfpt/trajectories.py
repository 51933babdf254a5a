"""Stochastic trajectory oracle for both monitoring schemes.

Ensembles of conditional evolutions with accumulated charge and first-hit
detection, used as statistical ground truth for the deterministic
engines.  ``simulate`` runs either unravelling over chunks of at most
``MC_CHUNK`` trajectories, so its memory does not grow with the ensemble.

Jump monitoring is event driven and exact in time.  Between jumps the
unnormalised state is U(t) rho U(t)^dag with U(t) = exp(-i H_eff t) and
H_eff = H - (i/2) sum_k L_k^dag L_k, so a waiting time is the instant at
which the no-jump norm tr U(t) rho U(t)^dag falls to a uniform draw u; a
second uniform picks the channel against the rates tr(L_k^dag L_k rho).
The instant is found by a greedy descent over the exact propagators
U(horizon 2^-m), m = 0..52, which places it to roundoff for any state,
and a trajectory whose norm is still above u at the horizon ends in its
exact no-jump state there.  Jump trajectories therefore take no time
step.

Diffusive monitoring advances the state by the measurement-operator
factorization of the first-order update, with one Wiener increment per
monitored channel per step and the charge fed by the quadrature
expectations plus the same increments.  The factorized form agrees with
the plain explicit step to first order in dt but keeps the state positive
by construction, so the eigenvalue clamp stays a safety net instead of
firing on ordinary near-pure excursions.

The diffusive unravelling keeps the states of its alive trajectories as
one (d, d, m) stack, trajectory index last, and drops a trajectory from
it once it is absorbed; the jump sampler keeps all n states in one
(d, d, n) stack and gathers the alive ones each event round.  Trajectory
k of an ensemble draws from the k-th child stream spawned from the
ensemble seed (``numpy.random.SeedSequence`` with spawn key ``(k,)``),
and no floating-point operation mixes trajectories, so results are
bit-identical no matter how the ensemble is chunked, partitioned or
ordered, and different seeds give independent trajectories.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .analysis import FptResult
from .diffusion import real_threshold
from .errors import ConfigError, ModelError, PhysicsError
from .jumps import integer_threshold, integer_weight
from .operators import LindbladModel, build_drift_superoperator, is_integer, positive_finite
from .propagation import initial_density

DEFAULT_STEP_BUDGET = 0.01
MC_CHUNK = 4096
# diffusive steps of noise drawn per refill: the streams do not depend on
# it, the chunk's noise buffer (MC_CHUNK x RNG_BLOCK x channels) does
RNG_BLOCK = 256
# uniforms per refill of a jump trajectory's buffer, two per event
JUMP_DRAW_BLOCK = 32
# no-jump propagators over horizon 2^-m, m = 0..52: a descent through
# them places a waiting time on a grid of horizon 2^-52, its roundoff
LADDER_LEVELS = 53
SEED_MAX = 2**64 - 1
REPAIR_FRACTION_ABORT = 1e-3
PSD_CLAMP_TOL = 1e-10


@dataclass(frozen=True)
class TrajectoryConfig:
    """Ensemble description shared by both unravellings.

    ``dt`` is the integration step of diffusive trajectories; jump
    trajectories are exact in time and take no step, though ``dt`` is
    validated for both.  ``initial`` is a start spec or a matrix, as
    ``propagation.initial_density`` takes, and is kept as its density
    matrix.  ``keep_paths`` is retired: charge paths are not recorded, and
    only its default ``False`` is accepted."""

    model: LindbladModel
    unravelling: str
    ntraj: int
    horizon: float
    dt: float | None = None
    seed: int = 0
    initial: np.ndarray | str = "steady"
    threshold: float | None = None
    lower_threshold: float | None = None
    keep_paths: bool = False
    index_offset: int = 0

    def __post_init__(self):
        if self.unravelling not in ("jump", "diffusion"):
            raise ConfigError(f"unknown unravelling {self.unravelling!r}")
        for name in ("ntraj", "index_offset"):
            if not is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if self.ntraj < 1:
            raise ConfigError("need at least one trajectory")
        if self.index_offset < 0:
            raise ConfigError("index offset must be nonnegative")
        positive_finite(self.horizon, "horizon")
        if self.dt is not None:
            positive_finite(self.dt, "dt")
        if not (is_integer(self.seed) and 0 <= self.seed <= SEED_MAX):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.keep_paths:
            raise ConfigError("charge paths are no longer recorded; keep_paths must be False")
        self.model.require_channels()
        if self.unravelling == "jump":
            for ch in self.model.monitored:
                integer_weight(ch)
            integer_threshold(self.threshold, +1)
            integer_threshold(self.lower_threshold, -1)
        else:
            real_threshold(self.threshold, +1)
            real_threshold(self.lower_threshold, -1)
        # a bad start spec is refused here, before any chunk or worker runs
        object.__setattr__(self, "initial", initial_density(self.model, self.initial))

    def resolve_step(self) -> tuple[float, int]:
        """Diffusive step and step count; the step divides the horizon."""
        model = self.model
        if self.dt is None:
            scale = max(model.rate_scale(), build_drift_superoperator(model).diffusion)
            if scale <= 0:
                raise ModelError("model has no dynamics to set a time step from")
            dt = DEFAULT_STEP_BUDGET / scale
        else:
            dt = self.dt
        nsteps = max(1, int(math.ceil(self.horizon / dt - 1e-12)))
        return self.horizon / nsteps, nsteps


@dataclass
class TrajectoryEnsemble:
    """Batched per-trajectory outcomes of one simulation run."""

    config: TrajectoryConfig
    # the diffusive step; None for jump trajectories, which take none
    dt: float | None
    hit_times: np.ndarray
    censored: np.ndarray
    final_charges: np.ndarray
    final_states: np.ndarray
    jump_counts: np.ndarray | None = None
    positivity_repairs: int = 0
    # diffusion: per-trajectory steps executed; jumps: sampled events, one
    # per waiting time drawn.  Merging parts sums it.
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


def _streams(config: TrajectoryConfig) -> list[np.random.Generator]:
    # trajectory k draws from the k-th child stream spawned from the seed
    return [
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(k,)))
        for k in range(config.index_offset, config.index_offset + config.ntraj)
    ]


# Products of (d, d, n) stacks are written out as elementwise operations
# summed in a fixed order: no trajectory's result depends on which others
# share its batch, which a BLAS call over the trajectory axis would not
# guarantee.


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products of (d, d, n) stacks; either may be (d, d, 1)."""
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        out = out + a[:, k, None] * b[None, k]
    return out


def _sandwich(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """u rho u^dag for (d, d, n) stacks."""
    return _mul(_mul(u, rho), u.conj().transpose(1, 0, 2))


def _trace(a: np.ndarray) -> np.ndarray:
    tr = a[0, 0].real
    for i in range(1, a.shape[0]):
        tr = tr + a[i, i].real
    return tr


def _renormalize(rho: np.ndarray) -> np.ndarray:
    tr = _trace(rho)
    if tr.min() < 1e-12:
        raise PhysicsError("diffusive update: conditional state norm collapsed")
    return rho / tr


def _no_jump_generator(model: LindbladModel) -> np.ndarray:
    """X = -i H - sum_k L_k^dag L_k / 2 over all channels: U(t) = exp(t X)."""
    grams = (ch.operator.conj().T @ ch.operator for ch in model.channels)
    return -1j * model.hamiltonian - 0.5 * sum(grams)


def _thresholds(config: TrajectoryConfig) -> tuple[float, float]:
    """Lower and upper threshold; a missing one is one the charge never reaches."""
    lower = -np.inf if config.lower_threshold is None else config.lower_threshold
    upper = np.inf if config.threshold is None else config.threshold
    return lower, upper


class _JumpSampler:
    """Event-driven jump unravelling, exact in time (see the module
    docstring).  The propagators depend on the model and the horizon
    only, so one sampler serves every chunk of an ensemble."""

    def __init__(self, config: TrajectoryConfig, rho0: np.ndarray):
        model = config.model
        gen = _no_jump_generator(model)
        self.horizon = config.horizon
        self.rho0 = rho0[..., None]
        self.ops = [ch.operator[..., None] for ch in model.channels]
        self.grams = [(ch.operator.conj().T @ ch.operator)[..., None] for ch in model.channels]
        self.nu = np.array([integer_weight(ch) if ch.monitored else 0 for ch in model.channels])
        # exact propagators over horizon 2^-m, longest first
        spans = [config.horizon * 0.5**m for m in range(LADDER_LEVELS)]
        self.ladder = [(h, expm(gen * h)[..., None]) for h in spans]

    def descend(self, rho: np.ndarray, u: np.ndarray, clock: np.ndarray):
        """Greedy descent over the ladder from the given clocks: each step
        is taken if it ends by the horizon with the no-jump norm still
        above u.  Returns the clocks and unnormalised states it reaches,
        and whether the norm fell to u before the horizon (a jump) or
        not (a censored trajectory, now at the horizon)."""
        fell = np.zeros(u.size, dtype=bool)
        for h, step in self.ladder:
            later = clock + h
            fits = later <= self.horizon
            cand = _sandwich(step, rho)
            ahead = fits & (_trace(cand) > u)
            rho = np.where(ahead, cand, rho)
            clock = np.where(ahead, later, clock)
            fell |= fits & ~ahead
        return clock, rho, fell

    def run(self, config: TrajectoryConfig) -> TrajectoryEnsemble:
        n = config.ntraj
        nchan = len(self.ops)
        lower, upper = _thresholds(config)
        streams = _streams(config)
        draws = np.empty((n, JUMP_DRAW_BLOCK))
        used = np.full(n, JUMP_DRAW_BLOCK)

        state = np.repeat(self.rho0, n, axis=-1)
        clock = np.zeros(n)
        charge = np.zeros(n, dtype=np.int64)
        hit = np.full(n, np.nan)
        alive = np.ones(n, dtype=bool)
        counts = np.zeros((n, nchan), dtype=np.int64)
        events = 0

        while alive.any():
            idx = np.flatnonzero(alive)
            events += idx.size
            for i in idx[used[idx] == JUMP_DRAW_BLOCK]:
                draws[i] = streams[i].random(JUMP_DRAW_BLOCK)
                used[i] = 0
            u = 1.0 - draws[idx, used[idx]]
            v = draws[idx, used[idx] + 1]
            used[idx] += 2

            clock[idx], rho_t, fell = self.descend(state[..., idx], u, clock[idx])
            out = idx[~fell]
            state[..., out] = rho_t[..., ~fell] / _trace(rho_t[..., ~fell])
            alive[out] = False

            jid, rho_t = idx[fell], rho_t[..., fell]
            t_jump = clock[jid]
            rates = np.cumsum([_trace(_mul(g, rho_t)) for g in self.grams], axis=0)
            k = np.minimum((rates <= v[fell] * rates[-1]).sum(axis=0), nchan - 1)
            for c in np.unique(k):
                post = _sandwich(self.ops[c], rho_t[..., k == c])
                tr = _trace(post)
                if not (tr > 0.0).all():
                    raise PhysicsError("jump update: conditional state norm collapsed")
                state[..., jid[k == c]] = post / tr
            counts[jid, k] += 1
            charge[jid] += self.nu[k]
            crossed = (charge[jid] >= upper) | (charge[jid] <= lower)
            hit[jid[crossed]] = t_jump[crossed]
            alive[jid[crossed]] = False

        return TrajectoryEnsemble(
            config, None, hit, np.isnan(hit), charge.astype(float),
            np.ascontiguousarray(state.transpose(2, 0, 1)), counts, steps_total=events,
        )


def _psd_repair(rho: np.ndarray, where: np.ndarray) -> int:
    """Clamp negative eigenvalues of the flagged states of a (d, d, n)
    stack and restore their unit trace, in place; returns how many."""
    bad = np.flatnonzero(where)
    for i in bad:
        vals, vecs = np.linalg.eigh(rho[..., i])
        vals = np.clip(vals, 0.0, None)
        total = vals.sum()
        if total < 1e-12:
            raise PhysicsError("positivity repair removed all state weight")
        rho[..., i] = (vecs * vals) @ vecs.conj().T / total
    return bad.size


def _min_eig_floor(rho: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each state of a (d, d, n) stack; closed form
    for qubits."""
    d = rho.shape[0]
    if d == 1:
        return rho[0, 0].real
    if d == 2:
        half = 0.5 * (rho[0, 0] + rho[1, 1]).real
        det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
        gap = np.sqrt(np.maximum(half * half - det, 0.0))
        return half - gap
    return np.linalg.eigvalsh(rho.transpose(2, 0, 1))[:, 0]


def _run_diffusion(config: TrajectoryConfig, dt: float, nsteps: int, rho0: np.ndarray):
    """One chunk of diffusive trajectories.

    A step applies the measurement operator K = 1 - dt (i H + G/2)
    + sum_k dy_k A_k, where A_k are the phase-rotated monitored operators,
    G sums L^dag L over all channels, dy_k = 2 Re tr(A_k rho) dt
    + sqrt(dt) w_k and w_k is a standard normal.  The new state is the
    Hermitian part of K rho K^dag + dt sum_silent L rho L^dag over its
    trace, and the charge grows by sum_k weight_k dy_k.

    Every trajectory draws its noise from its own generator, one block of
    ``RNG_BLOCK`` steps at a time and only while it is alive.  The alive
    states form one (d, d, m) stack that is compacted when some cross; a
    crossed trajectory's final state, charge and hit time are written out
    at the step where it crosses."""
    model = config.model
    if not model.monitored:
        raise ModelError("diffusive monitoring needs at least one monitored channel")
    n = config.ntraj
    sq = math.sqrt(dt)
    a_ops = [ch.rotated_operator()[..., None] for ch in model.monitored]
    silent = [ch.operator[..., None] for ch in model.silent]
    weights = [ch.weight for ch in model.monitored]
    stem = (np.eye(model.dim) + dt * _no_jump_generator(model))[..., None]
    lower, upper = _thresholds(config)
    rngs = _streams(config)

    final = np.empty((*rho0.shape, n), dtype=complex)
    charge = np.zeros(n)
    hit = np.full(n, np.nan)
    # the alive trajectories: their indices, states and charges
    alive = np.arange(n)
    rho = np.repeat(rho0[..., None], n, axis=-1)
    q = np.zeros(n)
    repairs = step_slots = 0

    noise = np.empty((min(RNG_BLOCK, nsteps), len(a_ops), n))
    for step in range(nsteps):
        if step % RNG_BLOCK == 0:
            block = min(RNG_BLOCK, nsteps - step)
            for i in alive:
                noise[:block, :, i] = rngs[i].standard_normal((block, len(a_ops)))
        w = noise[step % RNG_BLOCK][:, alive]
        step_slots += alive.size

        dy = [_trace(_mul(a, rho)) * (2.0 * dt) + sq * wk for a, wk in zip(a_ops, w)]
        new = _sandwich(stem + sum(y * a for y, a in zip(dy, a_ops)), rho)
        for op in silent:
            new = new + dt * _sandwich(op, rho)
        rho = _renormalize(0.5 * (new + new.conj().transpose(1, 0, 2)))
        need = _min_eig_floor(rho) < -PSD_CLAMP_TOL
        if need.any():
            repairs += _psd_repair(rho, need)
        old, q = q, q + sum(y * nu for y, nu in zip(dy, weights))

        crossed = (q >= upper) | (q <= lower)
        if crossed.any():
            done = alive[crossed]
            before, after = old[crossed], q[crossed]
            target = np.where(after >= upper, upper, lower)
            # linear interpolation of the crossing inside the step
            frac = (target - before) / (after - before)
            hit[done] = step * dt + np.clip(frac, 0.0, 1.0) * dt
            final[..., done] = rho[..., crossed]
            charge[done] = after
            keep = ~crossed
            alive, rho, q = alive[keep], rho[..., keep], q[keep]
        if alive.size == 0:
            break
    final[..., alive] = rho
    charge[alive] = q
    return TrajectoryEnsemble(
        config, dt, hit, np.isnan(hit), charge,
        np.ascontiguousarray(final.transpose(2, 0, 1)),
        positivity_repairs=repairs, steps_total=step_slots,
    )


def simulate(config: TrajectoryConfig) -> TrajectoryEnsemble:
    """Run an ensemble of either unravelling with charge accumulation and
    first-hit detection.

    The trajectories run in the fewest ``partition_config`` chunks of at
    most ``MC_CHUNK``, each with its own generators, and the chunks are
    concatenated by ``merge_ensembles``.  A trajectory is absorbed when
    its charge reaches ``threshold`` or falls to ``lower_threshold``.
    """
    rho0 = config.initial
    if config.unravelling == "jump":
        run = _JumpSampler(config, rho0).run
    else:
        dt, nsteps = config.resolve_step()
        run = functools.partial(_run_diffusion, dt=dt, nsteps=nsteps, rho0=rho0)
    chunks = partition_config(config, -(-config.ntraj // MC_CHUNK))
    ensemble = merge_ensembles([run(chunk) for chunk in chunks])
    repairs, slots = ensemble.positivity_repairs, ensemble.steps_total
    if repairs > REPAIR_FRACTION_ABORT * slots:
        raise PhysicsError(
            f"positivity repairs on {repairs} of {slots} updates "
            f"(> {REPAIR_FRACTION_ABORT:.1%}); reduce the step size"
        )
    return ensemble


def partition_config(config: TrajectoryConfig, batches: int) -> list[TrajectoryConfig]:
    """Split an ensemble into contiguous index blocks for parallel execution.

    Each block keeps the per-trajectory generator streams of the full run,
    so simulating the blocks separately and merging reproduces the single
    run bit for bit.
    """
    if batches < 1:
        raise ConfigError("need at least one batch")
    batches = min(batches, config.ntraj)
    base, extra = divmod(config.ntraj, batches)
    parts = []
    offset = config.index_offset
    for i in range(batches):
        size = base + (1 if i < extra else 0)
        parts.append(replace(config, ntraj=size, index_offset=offset))
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
        counts,
        sum(p.positivity_repairs for p in parts),
        sum(p.steps_total for p in parts),
    )


def fpt_histogram(ensemble: TrajectoryEnsemble, bins: int) -> FptResult:
    """Unconditional FPT density of an ensemble's hit times, sampled on the
    left edges of ``bins`` equal bins over [0, horizon], with survival."""
    if not is_integer(bins) or bins < 1:
        raise ConfigError("need at least one histogram bin")
    edges = np.linspace(0.0, ensemble.config.horizon, bins + 1)
    ntraj = ensemble.ntraj
    counts, _ = np.histogram(ensemble.absorbed_times(), bins=edges)
    dens = counts / (ntraj * np.diff(edges))
    surv = 1.0 - np.concatenate([[0], np.cumsum(counts)]) / ntraj
    return FptResult(edges, np.concatenate([dens, [0.0]]), surv, "monte-carlo")
