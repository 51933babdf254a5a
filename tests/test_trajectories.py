"""Monte Carlo unravellings: reproducibility, physics, and bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import kstest

from qfpt.analysis import ks_distance
from qfpt.diffusion import solve_diffusion_fpt
from qfpt.errors import ConfigError, PhysicsError
from qfpt.jumps import solve_jump_fpt
from qfpt.kur import dynamical_activity
from qfpt.models import decay_qubit, homodyne_qubit, thermal_qubit
from qfpt.operators import build_liouvillian, steady_state, vectorize
from qfpt.trajectories import (
    TrajectoryConfig,
    fpt_histogram,
    merge_ensembles,
    partition_config,
    simulate,
)


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
        assert np.array_equal(a.paths, b.paths)


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
            seed=seed, keep_paths=False,
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
            threshold=1, keep_paths=False,
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
    cfg = TrajectoryConfig(
        model, "jump", 10, 1.0, initial=np.diag([0.0, 1.0]),
        keep_paths=False,
    )
    parts = partition_config(cfg, 3)
    assert [p.ntraj for p in parts] == [4, 3, 3]
    assert [p.index_offset for p in parts] == [0, 4, 7]


def test_merge_rejects_gaps():
    model = decay_qubit(1.0)
    cfg = TrajectoryConfig(
        model, "jump", 10, 1.0, initial=np.diag([0.0, 1.0]), keep_paths=False,
    )
    parts = partition_config(cfg, 2)
    with pytest.raises(ConfigError):
        merge_ensembles([simulate(parts[0]), simulate(parts[0])])


def test_jump_ensemble_mean_tracks_lindblad():
    model = thermal_qubit(1.0, 1.0, 0.2)
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    t = 1.0
    cfg = TrajectoryConfig(
        model, "jump", 2000, t, dt=0.002, seed=5, initial=rho0, keep_paths=False,
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
        model, "diffusion", 2000, t, dt=0.002, seed=5, initial=rho0, keep_paths=False,
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
        model, "jump", 2000, horizon, dt=0.002, seed=9, keep_paths=False,
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
        initial=np.diag([0.0, 1.0]), threshold=1, keep_paths=False,
    )
    ens = simulate(cfg)
    assert ens.censored_fraction() < 0.01
    stat = kstest(ens.absorbed_times(), "expon", args=(0.0, 1.0 / gamma))
    assert stat.pvalue > 0.01


def test_coarse_jump_step_warns_then_aborts():
    model = thermal_qubit(20.0, 0.0, 0.0)
    with pytest.warns(RuntimeWarning, match="step"):
        simulate(TrajectoryConfig(model, "jump", 4, 0.5, dt=0.005, keep_paths=False))
    with pytest.raises(ConfigError):
        simulate(TrajectoryConfig(model, "jump", 4, 0.5, dt=0.02, keep_paths=False))


def test_all_censored_when_threshold_unreachable():
    model = decay_qubit(1.0)
    cfg = TrajectoryConfig(
        model, "jump", 32, 6.0, initial=np.diag([0.0, 1.0]),
        threshold=2, keep_paths=False,
    )
    ens = simulate(cfg)
    assert ens.censored_fraction() == 1.0
    assert ens.absorbed_times().size == 0
    hist = fpt_histogram(ens, bins=10)
    assert hist.nabsorbed == 0
    assert hist.censored_mass == 1.0


def test_histogram_to_result_is_valid():
    model = thermal_qubit(1.0, 1.0, 0.2)
    cfg = TrajectoryConfig(
        model, "jump", 500, 20.0, seed=21, threshold=3, keep_paths=False,
    )
    ens = simulate(cfg)
    res = fpt_histogram(ens, bins=40).to_result()
    assert res.provenance == "monte-carlo"
    assert res.survival[0] == 1.0
    assert np.all(np.diff(res.survival) <= 1e-12)
    assert res.survival[-1] == pytest.approx(ens.censored_fraction(), abs=1e-12)


def test_diffusion_charge_increments_track_quadrature():
    # a pure-noise monitored channel accumulates Brownian charge
    model = homodyne_qubit(1.0, 1.0)
    cfg = TrajectoryConfig(
        model, "diffusion", 400, 1.0, dt=0.002, seed=17, keep_paths=False,
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
        keep_paths=False,
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
        lower_threshold=-0.7, keep_paths=False,
    )
    ens = simulate(cfg)
    hit_charges = ens.final_charges[~ens.censored]
    assert (hit_charges <= -0.7).any() and (hit_charges >= 1.0).any()
    _assert_matches_engine(ens, det.result)
