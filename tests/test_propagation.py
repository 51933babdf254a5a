"""Propagation backends and the resolvent solves of absorbing generators."""

from __future__ import annotations

import logging

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from qfpt import propagation
from qfpt.diffusion import (
    ChargeGrid,
    build_fokker_planck_generator,
    conditioned_charge_distribution,
    mean_charge_path,
    solve_diffusion_fpt,
)
from qfpt.errors import ConvergenceError, PhysicsError
from qfpt.jumps import (
    ChargeWindow,
    build_block_generator,
    charge_distribution,
    preview_window,
    solve_jump_fpt,
)
from qfpt.models import homodyne_qubit, thermal_qubit
from qfpt.operators import JumpChannel, LindbladModel, build_liouvillian, vectorize
from qfpt.propagation import (
    MAX_GRID_POINTS,
    STARTUP_STEPS,
    BlockState,
    absorbable,
    absorption_horizon_guess,
    exit_solve,
    propagate_uniform,
    resolvent_solves,
    time_grid,
)


def _stable_system(n=5, m=3, seed=3):
    """A random complex generator with spectrum in the left half plane,
    observation rows and an initial state."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a -= (np.abs(np.linalg.eigvals(a)).max() + 0.5) * np.eye(n)
    rows = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return a, rows, rng.normal(size=n) + 1j * rng.normal(size=n)


def _collect(chunks, num, m):
    """Stack the chunks' observations, checking that they tile the grid;
    returns them, the last state and the number of chunks."""
    obs = np.full((num, m), np.nan)
    expected = count = 0
    for start, chunk, state in chunks:
        assert start == expected and chunk.shape[1] == m
        obs[start : start + chunk.shape[0]] = chunk
        expected = start + chunk.shape[0]
        count += 1
    assert expected == num
    return obs, state, count


def test_mismatched_dimensions_refused():
    with pytest.raises(ValueError):
        propagate_uniform(np.array([[-1.0]]), np.ones(1), np.linspace(0, 1, 3), rows=np.ones((1, 2)))


def test_capped_time_grid_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="qfpt.propagation"):
        times = time_grid(1e6, 1.0)
    assert times.size == MAX_GRID_POINTS
    assert "capping time grid" in caplog.text


def _growing(domain):
    """A one-level generator that grows like exp(800 t) in every cell."""
    n = domain.ncells
    return propagation.BlockGenerator(
        1, 800.0 * scipy.sparse.identity(n, format="csr"), np.ones(n), np.zeros(n), np.zeros(n)
    )


def test_absorbing_solve_refuses_overflow():
    # exp(800) overflows double precision within the horizon; the series
    # check refuses before any physics check reads the values
    disc = propagation.Discretisation(_growing, np.eye(1), "growing")
    message = "non-finite values at grid index"
    with pytest.raises(ConvergenceError, match=message), np.errstate(all="ignore"):
        propagation.solve_absorbing(
            disc, ChargeWindow(-2, 2), lower_open=False, upper_open=False,
            horizon=1.0, dt=0.1, auto_tail=False, tail_epsilon=1e-6,
        )


def test_both_engines_observe_four_rows(monkeypatch):
    # survival, absorption rate and the two edge cells, however many cells
    # the domain has
    seen = []
    propagate = propagation.propagate_uniform

    def recording(matrix, x0, times, *, rows=None):
        seen.append(rows.shape[0])
        return propagate(matrix, x0, times, rows=rows)

    monkeypatch.setattr(propagation, "propagate_uniform", recording)
    solve_jump_fpt(thermal_qubit(1.0, 1.0, 0.2), threshold=5, horizon=50.0, auto_tail=True)
    jump_rows, seen = seen, []
    solve_diffusion_fpt(homodyne_qubit(1.0, 1.0), threshold=1.0, delta=0.05, horizon=1.0)
    assert jump_rows and set(jump_rows) == {4}
    assert seen and set(seen) == {4}


def test_resolvent_solves_give_exponential_moments():
    rate = 2.0
    y1, y2 = resolvent_solves(scipy.sparse.csr_matrix([[-rate]]), np.array([1.0]))
    assert -y1[0].real == pytest.approx(1.0 / rate, rel=1e-15)
    assert 2.0 * y2[0].real == pytest.approx(2.0 / rate**2, rel=1e-15)
    one_cell = propagation.BlockGenerator(
        1, scipy.sparse.csr_matrix([[-rate]]), np.ones(1), np.array([rate]), np.zeros(1)
    )
    assert absorption_horizon_guess(one_cell, np.array([1.0]), 1e-6) == pytest.approx(17.0 / rate)


def test_resolvent_solves_refuse_singular_generator():
    # the second level is never absorbed
    singular = np.array([[-1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConvergenceError, match="singular"):
        resolvent_solves(singular, np.array([0.5, 0.5]))
    generator = propagation.BlockGenerator(
        1, scipy.sparse.csr_matrix(singular), np.ones(2), np.array([1.0, 0.0]), np.zeros(2)
    )
    lower, upper, _, _ = exit_solve(generator, np.array([0.5, 0.5]), 0.5, "unreachable")
    assert lower + upper == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ConvergenceError, match="absorbed with probability 0.5, not 1"):
        absorption_horizon_guess(generator, np.array([0.5, 0.5]), 1e-6)


def _dark_level_leak(gamma, kappa):
    """An undriven qutrit whose excited level 1 decays to level 0 through a
    counted channel (rate gamma, weight +1) and to the dark level 2 through
    a silent one (rate kappa); the generator on the window [-1, 0] and the
    excited start."""
    def jump(to, rate):
        op = np.zeros((3, 3))
        op[to, 1] = np.sqrt(rate)
        return op

    model = LindbladModel(
        np.zeros((3, 3)),
        (JumpChannel(jump(0, gamma), weight=1.0), JumpChannel(jump(2, kappa), monitored=False)),
    )
    window = ChargeWindow(-1, 0)
    x0 = BlockState.initial(window, np.diag([0.0, 1.0, 0.0]).astype(complex)).data
    return build_block_generator(model, window), x0


def test_exit_solve_is_exact_for_a_dark_level_leak():
    # the dark level is never absorbed and traps what leaks into it, so the
    # full generator is singular; only the excited level of the top cell
    # can reach the threshold
    gamma, kappa = 1.0, 0.25
    generator, x0 = _dark_level_leak(gamma, kappa)
    # rho_11 of the top cell, the second of nine coordinates each
    assert absorbable(generator.matrix, generator.flux_vector).tolist() == [9 + 1 * 3 + 1]
    lower, upper, _, _ = exit_solve(generator, x0, 0.5, "unreachable")
    assert lower == 0.0
    assert upper == pytest.approx(gamma / (gamma + kappa), abs=1e-12)
    with pytest.raises(ConvergenceError, match="absorbed with probability 0.8, not 1"):
        exit_solve(generator, x0, 1e-6, "unreachable")


@pytest.mark.parametrize(
    "model, horizon",
    [
        # the README fpt-jump start window
        (thermal_qubit(1.0, 1.0, 0.2), 50.0),
        # kur-scan windows of the README scan and of the hot bath
        (thermal_qubit(1.0, 0.1, 0.1), 10.0),
        (thermal_qubit(1.0, 5.0, 0.1), 10.0),
        (thermal_qubit(1.0, 1.0, 1.0), 10.0),
        (thermal_qubit(1.0, 5.0, 1.0), 10.0),
    ],
)
def test_absorbable_keeps_every_coordinate_without_a_trap(model, horizon):
    # nothing is sliced, so the resolvent solves factor the matrix as before
    window, _, _ = preview_window(model, 5, None, horizon)
    for domain in (window, window.widened(True, False)):
        generator = build_block_generator(model, domain)
        keep = absorbable(generator.matrix, generator.flux_vector)
        assert keep.tolist() == list(range(generator.matrix.shape[0]))


def test_absorbable_ignores_stored_zeros():
    # A[0, 1] is stored but zero: coordinate 1 never feeds the absorbing 0
    matrix = scipy.sparse.csr_matrix(
        (np.array([-1.0, 0.0]), np.array([0, 1]), np.array([0, 2, 2])), shape=(2, 2)
    )
    assert matrix.nnz == 2
    assert absorbable(matrix, np.array([1.0, 0.0])).tolist() == [0]


def test_dense_chunks_observe_exact_powers(monkeypatch):
    # a small budget caps the block at 4 points and a chunk at 10 blocks,
    # so grids of 2 to 100 points cover plain steps, whole blocks, a block
    # plus one and minus one step, and several chunks
    monkeypatch.setattr(propagation, "CHUNK_BYTES", 4 * 16 * 3 * 5)
    monkeypatch.setattr(propagation, "DENSE_CUTOFF", 10**9)
    a, rows, x0 = _stable_system()
    dt = 0.05
    seen, most = set(), 0
    for num in range(2, 101):
        times = dt * np.arange(num)
        obs, state, chunks = _collect(propagate_uniform(a, x0, times, rows=rows), num, 3)
        exact = np.array([scipy.linalg.expm(t * a) @ x0 for t in times])
        assert np.max(np.abs(obs - np.real(exact @ rows.T))) < 1e-12
        assert np.max(np.abs(state - exact[-1])) < 1e-12
        block = propagation._block_size(num - 1, 3, 5)
        seen.add((block, (num - 1) % block))
        most = max(most, chunks)
    assert {(4, 0), (4, 1), (4, 3), (2, 1), (1, 0)} <= seen
    assert most >= 5


def test_cn_chunks_match_per_step_crank_nicolson(monkeypatch):
    # the one-solve step 2 (I - hA)^-1 x - x is the Crank-Nicolson map
    # (I - hA)^-1 (I + hA) x; each step adds a roundoff of a few eps times
    # the state, and a stable map does not amplify it, so the gap stays
    # below the number of steps times 16 eps
    # chunks of 7 steps of 5 unknowns: the initial point, the startup
    # steps, then 8 chunks
    monkeypatch.setattr(propagation, "CHUNK_BYTES", 7 * 16 * 5)
    monkeypatch.setattr(propagation, "DENSE_CUTOFF", 0)
    a, rows, x0 = _stable_system()
    num, dt = 60, 0.05
    times = dt * np.arange(num)
    obs, state, chunks = _collect(propagate_uniform(a, x0, times, rows=rows), num, 3)
    assert chunks == 10
    mat = scipy.sparse.csc_matrix(a)
    ident = scipy.sparse.identity(5, format="csc", dtype=complex)
    lu_cn = scipy.sparse.linalg.splu(ident - 0.5 * dt * mat)
    lu_be = scipy.sparse.linalg.splu(ident - dt * mat)
    x, ref = x0.copy(), [x0]
    for i in range(1, num):
        x = lu_be.solve(x) if i <= STARTUP_STEPS else lu_cn.solve(x + 0.5 * dt * (mat @ x))
        ref.append(x)
    ref = np.array(ref)
    bound = num * 16 * np.finfo(float).eps * np.abs(x0).max() * np.abs(rows).sum(axis=1).max()
    assert np.max(np.abs(obs - np.real(ref @ rows.T))) < bound
    assert np.max(np.abs(state - x)) < num * 16 * np.finfo(float).eps * np.abs(x0).max()


def test_factor_keeps_natural_column_order():
    # the grid and step of the README fpt-diffusion command; its unknowns
    # are numbered node by node, so the Crank-Nicolson matrix is banded as
    # given
    model = homodyne_qubit(1.0, 1.0)
    grid, dt = ChargeGrid(-20.6, 0.99, 0.01), 0.002 / np.sqrt(2.0)
    mat = scipy.sparse.csc_matrix(build_fokker_planck_generator(model, grid).matrix)
    n = mat.shape[0]
    assert n == 8640
    ident = scipy.sparse.identity(n, format="csc", dtype=complex)
    lu = propagation._factor(ident - 0.5 * dt * mat)
    assert np.array_equal(lu.perm_c, np.arange(n))


def test_auto_tail_diffusion_solve_factors_in_natural_order(monkeypatch):
    # the horizon guess, the backward-Euler startup and the Crank-Nicolson
    # step each factor the grid generator once, all in natural order
    calls = []
    splu = scipy.sparse.linalg.splu

    def recording(matrix, **kwargs):
        calls.append((matrix.shape[0], kwargs))
        return splu(matrix, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    monkeypatch.setattr(propagation, "DENSE_CUTOFF", 0)
    grid = ChargeGrid(-0.45, 0.45, 0.05)
    sol = solve_diffusion_fpt(homodyne_qubit(1.0, 1.0), grid=grid, horizon=1.0, auto_tail=True)
    assert sol.result.survival[-1] < 1e-6
    assert calls == [(4 * grid.ncells, {"permc_spec": "NATURAL"})] * 3


def test_mean_charge_path_matches_stepped_rates():
    model = homodyne_qubit(1.0, 1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.linspace(0.0, 4.0, 201)
    liou = build_liouvillian(model)
    functional = np.zeros(4, dtype=complex)
    for ch in model.monitored:
        op = ch.rotated_operator()
        functional += ch.weight * vectorize((op + op.conj().T).T)
    rates = [np.real(functional @ scipy.linalg.expm(t * liou) @ vectorize(rho0)) for t in times]
    path = scipy.integrate.cumulative_trapezoid(rates, times, initial=0.0)
    assert np.max(np.abs(mean_charge_path(model, rho0, times) - path)) < 1e-12


def _states_with_negative_cell(low):
    """A window state and a grid state whose second cell has trace ``low``."""
    traces = np.array([0.25, low, 0.5, 0.25, 0.0], dtype=complex)
    return (
        propagation.BlockState(ChargeWindow(-2, 2), 1, traces),
        propagation.BlockState(ChargeGrid(-1.0, 1.0, 0.5), 1, traces),
    )


def test_charge_readers_clip_roundoff_negatives():
    window_state, grid_state = _states_with_negative_cell(-1e-12)
    assert charge_distribution(window_state) == {-2: 0.25, -1: 0.0, 0: 0.5, 1: 0.25, 2: 0.0}
    nodes, density = conditioned_charge_distribution(grid_state)
    assert density[1] == 0.0 and np.all(density >= 0.0)


def test_charge_readers_refuse_negative_mass():
    window_state, grid_state = _states_with_negative_cell(-1e-8)
    with pytest.raises(PhysicsError, match="below the abort threshold"):
        charge_distribution(window_state)
    with pytest.raises(PhysicsError, match="below the abort threshold"):
        conditioned_charge_distribution(grid_state)
