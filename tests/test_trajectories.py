"""Monte Carlo unravellings: reproducibility, physics, and bookkeeping."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import kstest

from qfpt.analysis import FptResult, ks_distance
from qfpt.diffusion import solve_diffusion_fpt
from qfpt.errors import ConfigError, PhysicsError
from qfpt.jumps import solve_jump_fpt
from qfpt.kur import dynamical_activity
from qfpt import trajectories
from qfpt.models import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    decay_qubit,
    homodyne_qubit,
    thermal_qubit,
    wiener_charge,
)
from qfpt.operators import JumpChannel, LindbladModel, build_liouvillian, steady_state, vectorize
from qfpt.trajectories import (
    PSD_CLAMP_TOL,
    TrajectoryConfig,
    fpt_histogram,
    merge_ensembles,
    partition_config,
    simulate,
)

from .oracles import diffusive_trajectories, scale_weights


def _trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def test_config_validation():
    model = thermal_qubit(1.0, 1.0, 0.2)
    with pytest.raises(ConfigError):
        TrajectoryConfig(model, "euler", 10, 1.0)
    with pytest.raises(ConfigError):
        TrajectoryConfig(model, "jump", 0, 1.0)
    with pytest.raises(ConfigError):
        TrajectoryConfig(model, "jump", 10, -1.0)
    with pytest.raises(ConfigError):
        TrajectoryConfig(model, "jump", 10, 1.0, index_offset=-1)
    with pytest.raises(ConfigError):
        TrajectoryConfig(model, "jump", 10, 1.0, seed=-5)
    with pytest.raises(ConfigError):
        TrajectoryConfig(model, "jump", 10, 1.0, threshold=0)
    with pytest.raises(ConfigError, match="ntraj must be an integer"):
        TrajectoryConfig(model, "jump", 10.5, 1.0)
    with pytest.raises(ConfigError, match="index_offset must be an integer"):
        TrajectoryConfig(model, "jump", 10, 1.0, index_offset=1.0)
    with pytest.raises(ConfigError, match="keep_paths"):
        TrajectoryConfig(model, "jump", 10, 1.0, keep_paths=True)
    # a bool is an int to isinstance, but True is no count or seed
    with pytest.raises(ConfigError, match="ntraj must be an integer"):
        TrajectoryConfig(model, "jump", True, 1.0)
    with pytest.raises(ConfigError, match="index_offset must be an integer"):
        TrajectoryConfig(model, "jump", 10, 1.0, index_offset=False)
    with pytest.raises(ConfigError, match="seed"):
        TrajectoryConfig(model, "jump", 10, 1.0, seed=True)


def test_same_seed_is_bit_identical():
    for unravelling, model in (
        ("jump", thermal_qubit(1.0, 1.0, 0.2)),
        ("diffusion", homodyne_qubit(1.0, 1.0)),
    ):
        cfg = TrajectoryConfig(
            model, unravelling, 64, 2.0, dt=0.005, seed=7, threshold=1
        )
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.hit_times, b.hit_times, equal_nan=True)
        assert np.array_equal(a.final_charges, b.final_charges)
        assert np.array_equal(a.final_states, b.final_states)


def test_different_seed_differs():
    model = thermal_qubit(1.0, 1.0, 0.2)
    a = simulate(TrajectoryConfig(model, "jump", 64, 2.0, seed=1, threshold=2))
    b = simulate(TrajectoryConfig(model, "jump", 64, 2.0, seed=2, threshold=2))
    assert not np.array_equal(a.hit_times, b.hit_times)


def test_seeds_give_independent_ensembles():
    # every trajectory's final charge is a continuous random variable, so a
    # charge shared between two ensembles means a shared trajectory stream
    def charges(seed, ntraj):
        cfg = TrajectoryConfig(
            homodyne_qubit(1.0, 1.0), "diffusion", ntraj, 0.2, dt=0.01,
            seed=seed,
        )
        return simulate(cfg).final_charges

    assert not np.array_equal(np.sort(charges(1, 64)), np.sort(charges(2, 64)))
    assert np.intersect1d(charges(0, 1000), charges(42, 1000)).size == 0


def test_partition_merge_matches_single_run():
    for unravelling, model in (
        ("jump", thermal_qubit(1.0, 1.0, 0.2)),
        ("diffusion", homodyne_qubit(1.0, 1.0)),
    ):
        cfg = TrajectoryConfig(
            model, unravelling, 50, 2.0, dt=0.005, seed=3,
            threshold=1,
        )
        whole = simulate(cfg)
        parts = [simulate(p) for p in partition_config(cfg, 3)]
        merged = merge_ensembles(parts)
        assert np.array_equal(whole.hit_times, merged.hit_times, equal_nan=True)
        assert np.array_equal(whole.censored, merged.censored)
        assert np.array_equal(whole.final_charges, merged.final_charges)
        assert np.array_equal(whole.final_states, merged.final_states)
        assert whole.steps_total == merged.steps_total


def test_partition_sizes_and_offsets():
    model = decay_qubit(1.0)
    cfg = TrajectoryConfig(model, "jump", 10, 1.0, initial=np.diag([0.0, 1.0]))
    parts = partition_config(cfg, 3)
    assert [p.ntraj for p in parts] == [4, 3, 3]
    assert [p.index_offset for p in parts] == [0, 4, 7]


def test_merge_rejects_gaps():
    model = decay_qubit(1.0)
    cfg = TrajectoryConfig(
        model, "jump", 10, 1.0, initial=np.diag([0.0, 1.0]),
    )
    parts = partition_config(cfg, 2)
    with pytest.raises(ConfigError):
        merge_ensembles([simulate(parts[0]), simulate(parts[0])])


def test_jump_ensemble_mean_tracks_lindblad():
    model = thermal_qubit(1.0, 1.0, 0.2)
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    t = 1.0
    cfg = TrajectoryConfig(
        model, "jump", 2000, t, dt=0.002, seed=5, initial=rho0,
    )
    ens = simulate(cfg)
    assert ens.censored_fraction() == 1.0
    liou = build_liouvillian(model)
    reference = np.reshape(expm(liou * t) @ vectorize(rho0), (2, 2), order="F")
    assert _trace_distance(ens.mean_state(), reference) < 5.0 / np.sqrt(cfg.ntraj)


def test_diffusion_ensemble_mean_tracks_lindblad():
    model = homodyne_qubit(1.0, 1.0)
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    t = 1.0
    cfg = TrajectoryConfig(
        model, "diffusion", 2000, t, dt=0.002, seed=5, initial=rho0,
    )
    ens = simulate(cfg)
    assert ens.positivity_repairs == 0
    liou = build_liouvillian(model)
    reference = np.reshape(expm(liou * t) @ vectorize(rho0), (2, 2), order="F")
    assert _trace_distance(ens.mean_state(), reference) < 5.0 / np.sqrt(cfg.ntraj)


def test_jump_count_rate_matches_activity():
    model = thermal_qubit(1.0, 0.8, 0.3)
    horizon = 5.0
    cfg = TrajectoryConfig(
        model, "jump", 2000, horizon, dt=0.002, seed=9,
    )
    ens = simulate(cfg)
    totals = ens.jump_counts.sum(axis=1)
    rate = float(totals.mean()) / horizon
    activity = dynamical_activity(model)
    se = float(totals.std(ddof=1)) / np.sqrt(cfg.ntraj) / horizon
    assert abs(rate - activity) < 4.0 * se


def test_decay_hits_match_exponential():
    gamma = 1.0
    model = decay_qubit(gamma)
    cfg = TrajectoryConfig(
        model, "jump", 4000, 12.0, dt=0.001, seed=13,
        initial=np.diag([0.0, 1.0]), threshold=1,
    )
    ens = simulate(cfg)
    assert ens.censored_fraction() < 0.01
    stat = kstest(ens.absorbed_times(), "expon", args=(0.0, 1.0 / gamma))
    assert stat.pvalue > 0.01


def test_jump_step_does_not_set_the_time_error():
    # at dt 0.5 a step spans about ten decay times; the waiting times are
    # exact, so the ensemble must not notice the step
    model = thermal_qubit(20.0, 1.0, 0.5)
    for threshold in (3, 1):
        fine, coarse = (
            simulate(TrajectoryConfig(
                model, "jump", 64, 2.0, dt=dt, seed=4, threshold=threshold,
                lower_threshold=-threshold,
            ))
            for dt in (0.001, 0.5)
        )
        assert fine.dt is None and coarse.dt is None
        assert fine.jump_counts.sum() >= 64
        assert np.array_equal(fine.censored, coarse.censored)
        assert np.array_equal(fine.jump_counts, coarse.jump_counts)
        assert np.allclose(fine.hit_times, coarse.hit_times, rtol=0.0, atol=1e-9, equal_nan=True)
        assert np.allclose(fine.final_charges, coarse.final_charges, rtol=0.0, atol=1e-9)
        assert np.allclose(fine.final_states, coarse.final_states, rtol=0.0, atol=1e-9)
    # at thresholds +-1 every hit is the first jump, so each hit time is
    # where the no-jump norm from the steady state falls to the first
    # uniform u = 1 - random() of the trajectory's stream
    rho0 = steady_state(build_liouvillian(model))
    h_eff = model.hamiltonian - 0.5j * sum(ch.operator.conj().T @ ch.operator for ch in model.channels)
    assert not fine.censored.any()
    for k, t in enumerate(fine.hit_times):
        u = 1.0 - np.random.default_rng(np.random.SeedSequence(4, spawn_key=(k,))).random()
        prop = expm(-1j * h_eff * t)
        assert abs(np.trace(prop @ rho0 @ prop.conj().T).real - u) < 1e-9


def test_all_censored_when_threshold_unreachable():
    model = decay_qubit(1.0)
    cfg = TrajectoryConfig(
        model, "jump", 32, 6.0, initial=np.diag([0.0, 1.0]),
        threshold=2,
    )
    ens = simulate(cfg)
    assert ens.censored_fraction() == 1.0
    assert ens.absorbed_times().size == 0
    res = fpt_histogram(ens, bins=10)
    assert np.all(res.survival == 1.0) and not res.density.any()


def test_histogram_refuses_boolean_bins():
    ens = simulate(TrajectoryConfig(decay_qubit(1.0), "jump", 4, 1.0, seed=1, threshold=1))
    with pytest.raises(ConfigError):
        fpt_histogram(ens, True)


def test_histogram_to_result_is_valid():
    model = thermal_qubit(1.0, 1.0, 0.2)
    cfg = TrajectoryConfig(
        model, "jump", 500, 20.0, seed=21, threshold=3,
    )
    ens = simulate(cfg)
    res = fpt_histogram(ens, bins=40)
    assert isinstance(res, FptResult) and res.provenance == "monte-carlo"
    assert res.times[0] == 0.0 and res.times[-1] == cfg.horizon and res.times.size == 41
    assert res.survival[0] == 1.0
    assert np.all(np.diff(res.survival) <= 1e-12)
    assert res.survival[-1] == pytest.approx(ens.censored_fraction(), abs=1e-12)


def test_diffusion_charge_increments_track_quadrature():
    # a pure-noise monitored channel accumulates Brownian charge
    model = homodyne_qubit(1.0, 1.0)
    cfg = TrajectoryConfig(
        model, "diffusion", 400, 1.0, dt=0.002, seed=17,
    )
    ens = simulate(cfg)
    # censored runs keep their running charge; spread grows like sqrt(K t)
    spread = float(np.std(ens.final_charges))
    assert 0.7 < spread < 1.5


def test_fractional_jump_threshold_rejected():
    model = thermal_qubit(1.0, 1.0, 0.2)
    with pytest.raises(ConfigError, match="integer"):
        TrajectoryConfig(model, "jump", 10, 1.0, threshold=2.5)
    with pytest.raises(ConfigError, match="integer"):
        TrajectoryConfig(model, "jump", 10, 1.0, lower_threshold=-2.5)
    # integral floats from the command line stay accepted
    TrajectoryConfig(model, "jump", 10, 1.0, threshold=2.0, lower_threshold=-3.0)


def _assert_matches_engine(ens, result):
    """KS distance of the absorbed hits at p=1e-3, and the censored
    fraction against the engine's survival at the horizon, within four
    binomial standard deviations plus one trajectory."""
    nhits = ens.absorbed_times().size
    ks = ks_distance(result, ens)
    assert ks < 1.95 / np.sqrt(nhits), f"KS {ks:.4f} over {nhits} hits"
    g_end = float(result.survival[-1])
    sigma = np.sqrt(g_end * (1.0 - g_end) / ens.ntraj)
    assert abs(ens.censored_fraction() - g_end) <= 4.0 * sigma + 1.0 / ens.ntraj


def test_two_sided_jump_ensemble_matches_engine():
    model = thermal_qubit(1.0, 1.0, 1.0)
    det = solve_jump_fpt(model, threshold=3, lower_threshold=-2, horizon=20.0)
    cfg = TrajectoryConfig(
        model, "jump", 2000, 20.0, seed=1, threshold=3, lower_threshold=-2,
    )
    ens = simulate(cfg)
    # both sides absorb: the final charges sit on the thresholds
    hit_charges = ens.final_charges[~ens.censored]
    assert set(np.unique(hit_charges)) <= {-2.0, 3.0}
    assert (hit_charges == -2.0).any() and (hit_charges == 3.0).any()
    _assert_matches_engine(ens, det.result)


def test_two_sided_diffusion_ensemble_matches_engine():
    model = homodyne_qubit(1.0, 1.0)
    det = solve_diffusion_fpt(model, threshold=1.0, lower_threshold=-0.7, horizon=4.0)
    cfg = TrajectoryConfig(
        model, "diffusion", 1000, 4.0, dt=0.002, seed=2, threshold=1.0,
        lower_threshold=-0.7,
    )
    ens = simulate(cfg)
    hit_charges = ens.final_charges[~ens.censored]
    assert (hit_charges <= -0.7).any() and (hit_charges >= 1.0).any()
    _assert_matches_engine(ens, det.result)


def test_general_channel_jump_ensemble_matches_engine():
    # sigma_minus + 0.3 sigma_z has rank two, so its jumps do not reset the
    # state to a fixed one
    sigma_z = np.diag([-1.0, 1.0]).astype(complex)
    model = LindbladModel(SIGMA_X, (
        JumpChannel(SIGMA_MINUS + 0.3 * sigma_z, weight=1),
        JumpChannel(np.sqrt(0.5) * SIGMA_PLUS, weight=-1),
    ))
    det = solve_jump_fpt(model, threshold=3, horizon=20.0)
    cfg = TrajectoryConfig(
        model, "jump", 2000, 20.0, seed=8, threshold=3,
    )
    ens = simulate(cfg)
    assert ens.jump_counts[:, 0].sum() > cfg.ntraj
    # every hit is a jump through the rank-two channel, whose post-jump
    # state depends on the state before it; a fixed reset would not
    hit_states = ens.final_states[~ens.censored]
    assert np.abs(hit_states - hit_states[0]).max() > 0.1
    _assert_matches_engine(ens, det.result)


def test_chunked_run_matches_single_chunk(monkeypatch):
    cases = (
        ("jump", thermal_qubit(1.0, 1.0, 0.2), 1),
        ("diffusion", homodyne_qubit(1.0, 1.0), 0.5),
    )
    for unravelling, model, threshold in cases:
        cfg = TrajectoryConfig(model, unravelling, 20, 2.0, dt=0.005, seed=3, threshold=threshold)
        whole = simulate(cfg)
        monkeypatch.setattr(trajectories, "MC_CHUNK", 7)
        chunked = simulate(cfg)
        monkeypatch.undo()
        for name in ("hit_times", "censored", "final_charges", "final_states"):
            assert np.array_equal(getattr(whole, name), getattr(chunked, name), equal_nan=True), name
        assert np.array_equal(whole.jump_counts, chunked.jump_counts)
        assert whole.steps_total == chunked.steps_total
        assert whole.positivity_repairs == chunked.positivity_repairs


def test_chunks_follow_partition_config(monkeypatch):
    # simulate splits an ensemble by the same rule as partition_config,
    # into the fewest balanced chunks of at most MC_CHUNK trajectories
    cfg = TrajectoryConfig(thermal_qubit(1.0, 1.0, 0.2), "jump", 22, 1.0, seed=3, threshold=1)
    sizes = []
    merge = trajectories.merge_ensembles

    def spy(parts):
        parts = list(parts)
        sizes.append([p.ntraj for p in parts])
        return merge(parts)

    monkeypatch.setattr(trajectories, "MC_CHUNK", 7)
    monkeypatch.setattr(trajectories, "merge_ensembles", spy)
    chunked = simulate(cfg)
    assert sizes == [[6, 6, 5, 5]]
    monkeypatch.undo()
    whole = simulate(cfg)
    assert np.array_equal(whole.hit_times, chunked.hit_times, equal_nan=True)
    assert np.array_equal(whole.final_states, chunked.final_states)


def test_diffusion_matches_one_at_a_time_reference():
    # three levels, two monitored channels of opposite charge, one with a
    # detection phase, and a silent pump; 300 steps cross a noise block
    ham = np.array([[0.0, 0.6, 0.0], [0.6, 0.3, 0.4j], [0.0, -0.4j, -0.2]])

    def jump(src, dst, amp):
        op = np.zeros((3, 3), dtype=complex)
        op[dst, src] = amp
        return op

    model = LindbladModel(ham, (
        JumpChannel(jump(1, 0, 1.0), weight=1.0),
        JumpChannel(jump(2, 1, np.sqrt(0.5)), weight=-0.5, phase=0.8),
        JumpChannel(jump(0, 2, np.sqrt(0.4)), monitored=False),
    ))
    rho0 = np.diag([0.2, 0.5, 0.3]).astype(complex)
    cfg = TrajectoryConfig(
        model, "diffusion", 24, 1.5, dt=0.005, seed=11, initial=rho0,
        threshold=2.0, lower_threshold=-1.2,
    )
    ens = simulate(cfg)
    nsteps = round(cfg.horizon / ens.dt)
    hit, charges, states = diffusive_trajectories(
        model, rho0, cfg.ntraj, nsteps, ens.dt, cfg.seed, 2.0, -1.2,
        block=trajectories.RNG_BLOCK,
    )
    assert nsteps > trajectories.RNG_BLOCK
    hits = ens.final_charges[~ens.censored]
    assert ens.censored.any() and (hits >= 2.0).any() and (hits <= -1.2).any()
    assert np.array_equal(ens.censored, np.isnan(hit))
    assert np.allclose(ens.hit_times, hit, rtol=0.0, atol=1e-12, equal_nan=True)
    assert np.allclose(ens.final_charges, charges, rtol=0.0, atol=1e-12)
    assert np.allclose(ens.final_states, states, rtol=0.0, atol=1e-12)


def test_psd_repair_fixes_only_the_flagged_state():
    rng = np.random.default_rng(3)
    unitary, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    bad = (unitary * [-1e-6, 0.4, 0.6 + 1e-6]) @ unitary.conj().T
    good = [np.diag([0.5, 0.3, 0.2]), (unitary * [0.1, 0.2, 0.7]) @ unitary.conj().T]
    stack = np.stack([good[0], bad, good[1]], axis=-1).astype(complex)
    before = stack.copy()
    floor = trajectories._min_eig_floor(stack)
    assert np.allclose(floor, [0.2, -1e-6, 0.1], rtol=0.0, atol=1e-12)
    assert trajectories._psd_repair(stack, floor < -PSD_CLAMP_TOL) == 1
    fixed = stack[..., 1]
    assert np.linalg.eigvalsh(fixed)[0] >= -1e-15
    assert abs(np.trace(fixed) - 1.0) < 1e-12
    assert np.array_equal(stack[..., [0, 2]], before[..., [0, 2]])


@pytest.mark.parametrize(
    "model, step",
    [
        # the drive, |H| = 3, is the fastest rate
        pytest.param(homodyne_qubit(1.0, 3.0), 0.01 / 3.0, id="rate"),
        # the diffusion constant D = 2^2 is
        pytest.param(scale_weights(homodyne_qubit(1.0, 1.0), 2.0), 0.01 / 4.0, id="diffusion"),
    ],
)
def test_default_diffusive_step_is_the_budget_over_the_fastest_scale(model, step):
    cfg = TrajectoryConfig(model, "diffusion", 6, 0.1, seed=3, threshold=0.3)
    ens = simulate(cfg)
    nsteps = round(0.1 / step)
    assert ens.dt == pytest.approx(0.1 / nsteps, rel=1e-15)
    assert cfg.resolve_step() == (ens.dt, nsteps)
    explicit = simulate(dataclasses.replace(cfg, dt=step))
    assert explicit.dt == ens.dt
    assert np.array_equal(explicit.hit_times, ens.hit_times, equal_nan=True)
    assert np.array_equal(explicit.final_states, ens.final_states)


def test_one_level_diffusive_ensemble_is_a_wiener_path():
    # one level: the state stays [[1]], and the charge is sqrt(dt) times
    # the sum of the trajectory's normals
    cfg = TrajectoryConfig(
        wiener_charge(), "diffusion", 40, 1.0, dt=0.01, seed=8, threshold=0.8, lower_threshold=-0.8,
    )
    ens = simulate(cfg)
    hit, charges, _ = diffusive_trajectories(
        cfg.model, np.eye(1), 40, 100, 0.01, 8, 0.8, -0.8, block=trajectories.RNG_BLOCK,
    )
    assert ens.censored.any() and not ens.censored.all()
    assert np.array_equal(ens.censored, np.isnan(hit))
    assert np.allclose(ens.hit_times, hit, rtol=0.0, atol=1e-12, equal_nan=True)
    assert np.allclose(ens.final_charges, charges, rtol=0.0, atol=1e-12)
    assert np.array_equal(ens.final_states, np.ones((40, 1, 1)))
    assert ens.positivity_repairs == 0
