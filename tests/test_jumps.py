"""Charge-resolved jump dynamics with absorbing thresholds."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from qfpt import jumps, propagation
from qfpt.analysis import integrate_moments
from qfpt.errors import ConfigError, ConvergenceError
from qfpt.jumps import (
    ChargeWindow,
    build_block_generator,
    passage_moments,
    preview_window,
    solve_jump_fpt,
)
from qfpt.models import decay_qubit, thermal_qubit
from qfpt.operators import (
    JumpChannel,
    LindbladModel,
    build_liouvillian,
    steady_state,
    vectorize,
)
from qfpt.propagation import DENSE_CUTOFF

from .oracles import BirthDeathChain, cell_traces, exponential_density


def test_charge_window_validation():
    with pytest.raises(ConfigError):
        ChargeWindow(1, 5)
    with pytest.raises(ConfigError):
        ChargeWindow(0, 0)
    with pytest.raises(ConfigError):
        ChargeWindow(0.0, 5)
    # a bool is an int to isinstance, but not a charge
    for lower, upper in ((-3, True), (False, 2)):
        with pytest.raises(ConfigError, match="integers"):
            ChargeWindow(lower, upper)
    win = ChargeWindow(-2, 3)
    assert win.ncells == 6
    assert list(win.charges) == [-2, -1, 0, 1, 2, 3]
    assert win.index(-2) == 0 and win.index(3) == 5
    with pytest.raises(ValueError):
        win.index(4)


def test_window_and_thresholds_are_mutually_exclusive():
    model = decay_qubit(1.0)
    with pytest.raises(ConfigError):
        solve_jump_fpt(
            model,
            threshold=1,
            window=ChargeWindow(0, 1),
            initial=np.diag([0.0, 1.0]),
        )


def test_decay_qubit_matches_exponential():
    gamma = 1.3
    model = decay_qubit(gamma)
    excited = np.diag([0.0, 1.0]).astype(complex)
    sol = solve_jump_fpt(model, threshold=1, initial=excited, horizon=8.0)
    expected = exponential_density(gamma, sol.result.times)
    assert np.max(np.abs(sol.result.density - expected)) < 1e-8
    assert np.max(np.abs(sol.result.survival - np.exp(-gamma * sol.result.times))) < 1e-8


def test_interior_evolution_conserves_trace():
    # with both edges far away, no probability leaks over the horizon
    model = thermal_qubit(1.0, 1.0, 0.2)
    win = ChargeWindow(-12, 12)
    rho0 = steady_state(build_liouvillian(model))
    out = solve_jump_fpt(model, window=win, initial=rho0, horizon=2.0).final_state
    assert out.survival() == pytest.approx(1.0, abs=1e-10)
    dist = jumps.charge_distribution(out)
    assert all(p >= 0.0 for p in dist.values())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


def test_wide_window_reproduces_unconditional_dynamics():
    # summing charge blocks of an unabsorbed solve recovers exp(Lt) rho0
    model = thermal_qubit(1.0, 1.0, 0.2)
    win = ChargeWindow(-14, 14)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    liou = build_liouvillian(model)
    for t in (0.5, 2.0, 5.0):
        out = solve_jump_fpt(model, window=win, initial=rho0, horizon=t).final_state
        marginal = out.total_state()
        reference = np.reshape(expm(liou * t) @ vectorize(rho0), (2, 2), order="F")
        assert np.max(np.abs(marginal - reference)) < 1e-9


def test_wide_window_above_dense_cutoff_steps_with_cn():
    # 301 cells of 4 unknowns run on Crank-Nicolson, which is second order
    # in the step; each bound is 8x the error at half the default step
    # (5.5e-6, 1.05e-6 and 4.1e-8 at the default step)
    model = thermal_qubit(1.0, 1.0, 0.2)
    win = ChargeWindow(-150, 150)
    gen = build_block_generator(model, win)
    assert gen.matrix.shape[0] > DENSE_CUTOFF
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    liou = build_liouvillian(model)
    for t, bound in ((0.5, 1.1e-5), (2.0, 2.1e-6), (5.0, 8.3e-8)):
        out = solve_jump_fpt(model, window=win, initial=rho0, horizon=t).final_state
        marginal = out.total_state()
        reference = np.reshape(expm(liou * t) @ vectorize(rho0), (2, 2), order="F")
        assert np.max(np.abs(marginal - reference)) < bound


def test_solve_above_dense_cutoff_matches_dense_window():
    # cells below -40 stay empty over the horizon, so the dense 45-cell
    # window is the reference for the 1,220-unknown Crank-Nicolson one;
    # bounds are 8x the differences at half the default step
    model = thermal_qubit(1.0, 1.0, 0.2)
    big = solve_jump_fpt(model, window=ChargeWindow(-300, 4), horizon=10.0)
    small = solve_jump_fpt(model, window=ChargeWindow(-40, 4), horizon=10.0)
    assert big.final_state.data.size > DENSE_CUTOFF
    assert np.max(cell_traces(model, big)[:, :260]) < 1e-12
    assert np.max(np.abs(big.result.survival - small.result.survival)) < 4.4e-7
    assert np.max(np.abs(big.result.density - small.result.density)) < 3.4e-7


def test_incoherent_dynamics_match_birth_death_chain():
    gamma, nbar, threshold = 1.0, 0.4, 3
    model = thermal_qubit(gamma, 0.0, nbar)
    sol = solve_jump_fpt(model, threshold=threshold, horizon=6.0, dt=0.002)
    chain = BirthDeathChain(gamma, nbar, sol.domain.lower, sol.domain.upper)
    density, surv, cells = chain.run(sol.result.times)
    assert np.max(np.abs(sol.result.density - density)) < 1e-9
    assert np.max(np.abs(sol.result.survival - surv)) < 1e-9
    assert np.max(np.abs(cell_traces(model, sol) - cells)) < 1e-9


def test_preview_window_matches_solver():
    model = thermal_qubit(1.0, 1.0, 0.2)
    win, lower_open, upper_open = preview_window(model, threshold=5, horizon=10.0)
    assert win.upper == 4
    assert not upper_open and lower_open
    sol = solve_jump_fpt(model, threshold=5, horizon=10.0)
    assert sol.domain.upper == 4
    assert sol.domain.lower <= win.lower


def test_auto_tail_extends_horizon():
    model = thermal_qubit(1.0, 1.0, 0.2)
    sol = solve_jump_fpt(
        model, threshold=5, horizon=2.0, auto_tail=True, tail_epsilon=1e-6
    )
    assert sol.result.times[-1] > 2.0
    assert sol.result.survival[-1] < 1e-6


def test_auto_tail_reaches_a_slow_current():
    # a weak drive emits about once per 10^4 time units, so the resolvent
    # sets a horizon near 10^5: 2^13 times the requested one
    sol = solve_jump_fpt(thermal_qubit(1.0, 0.01, 0.0), threshold=5, auto_tail=True)
    assert sol.result.times[-1] > 10.0 * 2**12
    assert sol.result.survival[-1] < 1e-6


def test_unreachable_threshold_raises():
    # pure decay emits at most one quantum, so a threshold of 2 never fires
    model = decay_qubit(1.0)
    excited = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ConvergenceError):
        solve_jump_fpt(
            model,
            threshold=2,
            initial=excited,
            horizon=4.0,
            auto_tail=True,
        )


def test_auto_tail_refuses_only_unreachable_thresholds():
    # the ground state never emits; the excited state does, although the
    # generator is singular because the ground state is never absorbed
    model = decay_qubit(1.0)
    ground = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ConvergenceError, match="unreachable from the initial state"):
        solve_jump_fpt(model, threshold=1, initial=ground, auto_tail=True)
    excited = np.diag([0.0, 1.0]).astype(complex)
    sol = solve_jump_fpt(model, threshold=1, initial=excited, horizon=4.0, auto_tail=True)
    assert sol.result.survival[-1] < 1e-6


def _series_horizons(monkeypatch) -> list[float]:
    """The horizon of every series the absorbing solves step from now on."""
    horizons = []
    propagate = propagation.propagate_uniform

    def recording(matrix, x0, times, *, rows):
        horizons.append(float(times[-1]))
        return propagate(matrix, x0, times, rows=rows)

    monkeypatch.setattr(propagation, "propagate_uniform", recording)
    return horizons


def test_auto_tail_horizon_is_the_exact_resolvent_guess(monkeypatch):
    # the excited level waits an exponential time of mean 1 and spread 1
    # before its one emission; the ground state it leaves is never
    # absorbed, so the guess comes from the excited level alone
    horizons = _series_horizons(monkeypatch)
    excited = np.diag([0.0, 1.0]).astype(complex)
    sol = solve_jump_fpt(decay_qubit(1.0), threshold=1, initial=excited, horizon=4.0, auto_tail=True)
    assert horizons == [17.0]
    assert sol.result.times[-1] == 17.0


def _qubit_beside_a_decoupled_level() -> LindbladModel:
    """A driven qubit on levels 0 and 1 (omega 1; emission 1.2 at +1,
    absorption 0.2 at -1) and a third level that nothing couples to it."""
    lower = np.zeros((3, 3))
    lower[0, 1] = 1.0
    return LindbladModel(
        lower + lower.T,
        (JumpChannel(np.sqrt(1.2) * lower, weight=1.0), JumpChannel(np.sqrt(0.2) * lower.T, weight=-1.0)),
    )


@pytest.mark.parametrize("lower_threshold", [None, -3])
def test_auto_tail_refuses_partial_absorption_before_stepping(lower_threshold, monkeypatch):
    # a third of the maximally mixed start sits on the decoupled level and
    # is never absorbed, so no horizon brings the survival below 1e-6
    horizons = _series_horizons(monkeypatch)
    with pytest.raises(ConvergenceError, match="absorbed with probability 0.666666667,"):
        solve_jump_fpt(
            _qubit_beside_a_decoupled_level(), threshold=3, lower_threshold=lower_threshold,
            initial=np.eye(3) / 3, auto_tail=True,
        )
    assert horizons == []


def test_passage_moments_refuse_partial_absorption(monkeypatch):
    # the model's steady states are not unique, so the moments start from
    # the maximally mixed state instead
    monkeypatch.setattr(jumps, "initial_density", lambda model, initial: np.eye(3) / 3)
    with pytest.raises(ConvergenceError, match="absorbed with probability 0.666666667,"):
        passage_moments(_qubit_beside_a_decoupled_level(), 3)


def test_repeat_solves_are_bit_identical():
    model = thermal_qubit(1.0, 1.0, 0.2)
    a = solve_jump_fpt(model, threshold=4, horizon=6.0)
    b = solve_jump_fpt(model, threshold=4, horizon=6.0)
    assert np.array_equal(a.result.density, b.result.density)
    assert np.array_equal(a.result.survival, b.result.survival)
    assert np.array_equal(a.final_state.data, b.final_state.data)


def test_non_integer_weight_rejected():
    model = thermal_qubit(1.0, 1.0, 0.2)
    half = model.channels[0]
    object.__setattr__(half, "weight", 0.5)
    with pytest.raises(ConfigError):
        build_block_generator(model, ChargeWindow(-2, 2))


def test_fractional_thresholds_rejected():
    model = thermal_qubit(1.0, 1.0, 0.2)
    with pytest.raises(ConfigError, match="integer"):
        solve_jump_fpt(model, threshold=2.5)
    with pytest.raises(ConfigError, match="integer"):
        preview_window(model, lower_threshold=-1.5)
    win, _, _ = preview_window(model, threshold=2.0, lower_threshold=-3.0)
    assert (win.lower, win.upper) == (-2, 1)


def test_auto_tail_assembles_fixed_window_once(monkeypatch):
    calls = []

    def counting(model, window):
        calls.append(window)
        return build_block_generator(model, window)

    monkeypatch.setattr(jumps, "build_block_generator", counting)
    model = thermal_qubit(1.0, 1.0, 0.2)
    sol = solve_jump_fpt(model, window=ChargeWindow(-20, 4), horizon=2.0, auto_tail=True)
    assert sol.result.survival[-1] < 1e-6
    assert calls == [ChargeWindow(-20, 4)]


def test_flux_splits_into_edges():
    gen = build_block_generator(thermal_qubit(1.0, 1.0, 0.5), ChargeWindow(-3, 2))
    block = gen.dim**2
    # emission leaves from the top cell only, absorption from the bottom one
    assert np.any(gen.upper_flux[-block:]) and not np.any(gen.upper_flux[:-block])
    assert np.any(gen.lower_flux[:block]) and not np.any(gen.lower_flux[block:])
    assert np.array_equal(gen.flux_vector, gen.upper_flux + gen.lower_flux)


def _complex_three_level(seed: int) -> LindbladModel:
    """Seeded complex 3-level model: two weight +2 channels, which share a
    charge shift, one weight -1 channel and a silent one."""
    rng = np.random.default_rng(seed)

    def matrix():
        return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    h = matrix()
    channels = [JumpChannel(0.5 * matrix(), weight=w) for w in (2.0, 2.0, -1.0)]
    channels.append(JumpChannel(0.5 * matrix(), monitored=False))
    return LindbladModel(h + h.conj().T, tuple(channels))


@pytest.mark.parametrize("lower, upper", [(-1, 1), (-5, 3), (-12, 7)])
def test_flux_is_the_survival_loss_split_by_edge(lower, upper):
    gen = build_block_generator(_complex_three_level(31), ChargeWindow(lower, upper))
    # the two edges together carry the total weight loss
    loss = -(gen.matrix.T @ gen.survival_vector)
    assert np.max(np.abs(gen.upper_flux + gen.lower_flux - loss)) <= 1e-12 * np.max(np.abs(loss))
    # a weight-2 jump leaves from the top two cells, a weight -1 jump from
    # the bottom one
    upper_cells = gen.upper_flux.reshape(-1, gen.dim**2)
    lower_cells = gen.lower_flux.reshape(-1, gen.dim**2)
    assert np.all(np.any(upper_cells[-2:], axis=1)) and not np.any(upper_cells[:-2])
    assert np.any(lower_cells[0]) and not np.any(lower_cells[1:])


def test_time_series_moments_match_passage_moments():
    # the README fpt-jump point, against the benchmark's tolerances
    model = thermal_qubit(1.0, 1.0, 0.2)
    sol = solve_jump_fpt(model, threshold=5, horizon=50.0, auto_tail=True)
    series = integrate_moments(sol.result)
    exact = passage_moments(model, 5)
    assert series.mean == pytest.approx(exact.mean, rel=1e-4)
    assert series.variance == pytest.approx(exact.variance, rel=1e-3)
    assert exact.absorbed_probability == pytest.approx(1.0, abs=1e-9)


def test_passage_moments_refuse_unreachable_threshold():
    # the steady state of pure decay is the ground state, which never emits
    with pytest.raises(ConvergenceError, match="unreachable"):
        passage_moments(decay_qubit(1.0), 1)


def test_passage_moments_refuse_missing_threshold():
    with pytest.raises(ConfigError, match="upper threshold"):
        passage_moments(thermal_qubit(1.0, 1.0, 0.2), None)


def test_passage_moments_refuse_charge_drifting_away():
    # counting emission as -1 makes the charge run away from the threshold
    hot = thermal_qubit(1.0, 1.0, 0.2)
    flipped = LindbladModel(
        hot.hamiltonian,
        tuple(JumpChannel(ch.operator, weight=-ch.weight) for ch in hot.channels),
    )
    with pytest.raises(ConvergenceError, match="lower-exit probability"):
        passage_moments(flipped, 3)
