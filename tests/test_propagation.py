"""Propagation backends and the resolvent solves of absorbing generators."""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from qfpt import diffusion, jumps, propagation
from qfpt.analysis import trapezoid_steps
from qfpt.diffusion import (
    ChargeGrid,
    build_fokker_planck_generator,
    conditioned_charge_distribution,
    mean_charge_path,
    solve_diffusion_fpt,
)
from qfpt.errors import ConvergenceError, ModelError, PhysicsError
from qfpt.jumps import (
    ChargeWindow,
    build_block_generator,
    charge_distribution,
    preview_window,
    solve_jump_fpt,
)
from qfpt.models import drifted_charge, homodyne_qubit, thermal_qubit
from qfpt.operators import (
    JumpChannel,
    LindbladModel,
    build_drift_superoperator,
    build_liouvillian,
    hermitian_basis,
    trace_functional,
    unvectorize,
    vectorize,
)
from qfpt.propagation import (
    DENSE_CUTOFF,
    MAX_GRID_POINTS,
    STARTUP_STEPS,
    BlockState,
    absorbable,
    absorption_horizon_guess,
    edge_loss_bound,
    exit_solve,
    propagate_uniform,
    resolvent_solves,
    time_grid,
)

from .oracles import laplace_series
from .test_jumps import _complex_three_level


def _stable_system(n=5, m=3, seed=3):
    """A random real generator with spectrum in the left half plane,
    observation rows and an initial state."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a -= (np.abs(np.linalg.eigvals(a)).max() + 0.5) * np.eye(n)
    return a, rng.normal(size=(m, n)), rng.normal(size=n)


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


@pytest.mark.parametrize("part", ["matrix", "state", "rows"])
def test_propagation_refuses_complex_input(part):
    # propagation is real; an imaginary part is refused, never dropped
    a, rows, x0 = _stable_system()
    inputs = {"matrix": a, "state": x0, "rows": rows}
    inputs[part] = inputs[part] + 0j
    with pytest.raises(ValueError, match="must not be complex"):
        propagate_uniform(
            inputs["matrix"], inputs["state"], np.linspace(0, 1, 3), rows=inputs["rows"]
        )


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


def test_both_engines_observe_two_rows(monkeypatch):
    # the survival and the absorption rate, however many cells the domain
    # has; the open sides are chosen before the step, so each solve steps
    # one series, also where the n=1 auto-tail window widens once
    seen = []
    propagate = propagation.propagate_uniform

    def recording(matrix, x0, times, *, rows=None):
        seen.append(rows.shape[0])
        return propagate(matrix, x0, times, rows=rows)

    monkeypatch.setattr(propagation, "propagate_uniform", recording)
    model = thermal_qubit(1.0, 1.0, 0.2)
    solves = [
        lambda: solve_jump_fpt(model, threshold=5, horizon=50.0, auto_tail=True),
        lambda: solve_jump_fpt(model, threshold=3, horizon=10.0),
        lambda: solve_jump_fpt(model, lower_threshold=-3, horizon=10.0),
        lambda: solve_jump_fpt(
            thermal_qubit(1.0, 1.0, 1.0), threshold=5, horizon=50.0, auto_tail=True
        ),
        lambda: solve_diffusion_fpt(homodyne_qubit(1.0, 1.0), threshold=1.0, horizon=6.0),
    ]
    for solve in solves:
        seen = []
        solve()
        assert seen == [2]


def test_resolvent_solves_give_exponential_moments():
    rate = 2.0
    y1, y2 = resolvent_solves(scipy.sparse.csr_matrix([[-rate]]), np.array([1.0]))
    assert -y1[0].real == pytest.approx(1.0 / rate, rel=1e-15)
    assert 2.0 * y2[0].real == pytest.approx(2.0 / rate**2, rel=1e-15)
    one_cell = propagation.BlockGenerator(
        1, scipy.sparse.csr_matrix([[-rate]]), np.ones(1), np.array([rate]), np.zeros(1)
    )
    # E[T^k] = k!/rate^k, so Markov's inequality certifies survival 1e-6 at
    # min_k (k!/1e-6)^(1/k)/rate = 16.126/rate
    certified = min((math.factorial(k) / 1e-6) ** (1.0 / k) for k in range(1, 25))
    assert certified == pytest.approx(16.126, abs=1e-3)
    guess = absorption_horizon_guess(one_cell, np.array([1.0]), 1e-6)
    assert guess == pytest.approx((0.0, 1.0, certified / rate), rel=1e-14)


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
    # no coordinate is trapped, and only the sigma_x coherence, coordinate
    # 2 of each cell's four, is dropped: the sigma_x drive never couples
    # it to the populations, so it carries no trace and feeds nothing
    window, _, _ = preview_window(model, 5, None, horizon)
    for domain in (window, window.widened(True, False)):
        generator = build_block_generator(model, domain)
        keep = absorbable(generator.matrix, generator.flux_vector)
        n = generator.matrix.shape[0]
        assert keep.tolist() == [i for i in range(n) if i % 4 != 2]


def test_absorbable_ignores_stored_zeros():
    # A[0, 1] is stored but zero: coordinate 1 never feeds the absorbing 0
    matrix = scipy.sparse.csr_matrix(
        (np.array([-1.0, 0.0]), np.array([0, 1]), np.array([0, 2, 2])), shape=(2, 2)
    )
    assert matrix.nnz == 2
    assert absorbable(matrix, np.array([1.0, 0.0])).tolist() == [0]


def _window_below_three(lower):
    """The thermal qubit (gamma 1, omega 1, nbar 0.2) on the window
    [lower, 2] of threshold 3 with its steady start; [-10, 2], the start
    window at horizon 10, has 52 unknowns on the dense backend."""
    model = thermal_qubit(1.0, 1.0, 0.2)
    window = ChargeWindow(lower, 2)
    generator = build_block_generator(model, window)
    return generator, BlockState.initial(window, propagation.initial_density(model, "steady")).data


@pytest.mark.parametrize(
    "lower",
    [
        # measured: loss 5.2e-13, bound 3.7e-12, exit probability 2.7e-9
        -10,
        # measured: loss 4.0e-7, bound 1.3e-6, exit probability 3.6e-6; a
        # loss above the edge tolerance, which a search that dropped the
        # factor e^(sT) would undercut on its way below the tolerance
        -6,
    ],
)
def test_edge_loss_bound_brackets_the_lower_edge_loss(lower):
    generator, x0 = _window_below_three(lower)
    horizon = 10.0
    bound = edge_loss_bound(generator, x0, generator.lower_flux, horizon)
    exit_probability = edge_loss_bound(generator, x0, generator.lower_flux, math.inf)
    # the exact-in-time series of the lower-edge flux, integrated
    times = np.linspace(0.0, horizon, 20001)
    rows = generator.lower_flux[None, :]
    flux = np.concatenate([
        chunk[:, 0] for _, chunk, _ in propagate_uniform(generator.matrix, x0, times, rows=rows)
    ])
    loss = float(trapezoid_steps(flux, times).sum())
    assert 0.0 < loss <= bound <= exit_probability


def test_edge_loss_bound_at_infinity_is_the_exit_probability():
    generator, x0 = _window_below_three(-10)
    assert x0.size == 52
    lower, _, _, _ = exit_solve(generator, x0, 1e-9, "unreachable")
    bound = edge_loss_bound(generator, x0, generator.lower_flux, math.inf)
    assert bound == pytest.approx(lower, rel=1e-12)


def _homodyne_at_phase(phase):
    """The homodyne qubit (gamma 1, omega 1) detected at ``phase``."""
    model = homodyne_qubit(1.0, 1.0)
    return dataclasses.replace(
        model, channels=tuple(dataclasses.replace(ch, phase=phase) for ch in model.channels)
    )


@pytest.mark.parametrize(
    "model, start, grid, horizon",
    [
        # the README fpt-diffusion grid, and the one of --lower-threshold -1
        # --delta 0.02 --horizon 3, whose upper side is open
        (homodyne_qubit(1.0, 1.0), "steady", ChargeGrid(-20.6, 0.99, 0.01), 6.0),
        (homodyne_qubit(1.0, 1.0), "steady", ChargeGrid(-0.98, 16.2, 0.02), 3.0),
        # sigma_z dephasing from its +1 eigenstate, threshold 1: the grid
        # of a degenerate steady state
        (LindbladModel(np.zeros((2, 2)), (JumpChannel(np.diag([1.0, -1.0])),)),
         np.diag([1.0, 0.0]), ChargeGrid(-12.32, 0.99, 0.01), 2.0),
        # the inverse-Gaussian drifted charge, threshold 1
        (drifted_charge(0.5), np.eye(1), ChargeGrid(-14.82, 0.99, 0.01), 30.0),
        # thresholds 0.7 and -1 at delta 0.02: both sides absorb
        (homodyne_qubit(1.0, 1.0), "steady", ChargeGrid(-0.98, 0.68, 0.02), 3.0),
        # detection phase pi/3, whose drift has real and imaginary entries:
        # the grid of threshold 1 at delta 0.02 and horizon 2
        (_homodyne_at_phase(math.pi / 3), "steady", ChargeGrid(-13.1, 0.98, 0.02), 2.0),
    ],
    ids=["readme", "upper-open", "dephasing", "drifted", "two-sided", "phase-pi/3"],
)
def test_diffusion_edge_flux_stays_nonnegative(model, start, grid, horizon):
    # the edge-loss bound needs a nonnegative flux density; the step is
    # the one an explicit-grid solve takes
    generator = build_fokker_planck_generator(model, grid)
    x0 = BlockState.initial(grid, propagation.initial_density(model, start)).data
    near = min(grid.upper + grid.delta, grid.delta - grid.lower)
    dt = diffusion._default_step(model, build_drift_superoperator(model), near)
    rows = np.vstack([generator.lower_flux, generator.upper_flux])
    for _, chunk, _ in propagate_uniform(generator.matrix, x0, time_grid(horizon, dt), rows=rows):
        assert chunk.min() >= 0.0


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
    monkeypatch.setattr(propagation, "CHUNK_BYTES", 7 * 8 * 5)
    monkeypatch.setattr(propagation, "DENSE_CUTOFF", 0)
    a, rows, x0 = _stable_system()
    num, dt = 60, 0.05
    times = dt * np.arange(num)
    obs, state, chunks = _collect(propagate_uniform(a, x0, times, rows=rows), num, 3)
    assert chunks == 10
    mat = scipy.sparse.csc_matrix(a)
    ident = scipy.sparse.identity(5, format="csc")
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


def test_auto_tail_diffusion_solve_factors_in_natural_order(monkeypatch):
    # every LU is a band LU of a float64 matrix in the grid's node-major
    # order: the horizon guess factors the generator A, every coordinate
    # of which is absorbable, then the backward-Euler startup and the
    # Crank-Nicolson step take one each, of I - hA and of I - (h/2)A
    bands = []
    band_factor = propagation._band_factor

    def recording_band(matrix):
        bands.append(scipy.sparse.csr_matrix(matrix))
        return band_factor(matrix)

    monkeypatch.setattr(propagation, "_band_factor", recording_band)
    monkeypatch.setattr(propagation, "DENSE_CUTOFF", 0)
    model, grid = homodyne_qubit(1.0, 1.0), ChargeGrid(-0.45, 0.45, 0.05)
    sol = solve_diffusion_fpt(model, grid=grid, horizon=1.0, auto_tail=True)
    assert sol.result.survival[-1] < 1e-6
    n = 4 * grid.ncells
    assert [m.shape for m in bands] == [(n, n)] * 3
    assert all(m.dtype == np.float64 for m in bands)
    assert abs(bands[0] - build_fokker_planck_generator(model, grid).matrix).max() == 0.0
    ident = scipy.sparse.identity(n, format="csr")
    # I - (I - hA) = hA is twice I - (I - (h/2)A), to within the roundoff
    # of the two matrices' entries
    gap = abs((ident - bands[1]) - 2.0 * (ident - bands[2])).max()
    assert gap <= 4 * np.finfo(float).eps * abs(bands[1]).max()


def _readme_cn_matrix():
    """I - (h/2)A of the README fpt-diffusion grid and step: 8,640 real
    unknowns, banded in cell-major order."""
    grid, dt = ChargeGrid(-20.6, 0.99, 0.01), 0.002 / np.sqrt(2.0)
    real = build_fokker_planck_generator(homodyne_qubit(1.0, 1.0), grid).matrix
    return scipy.sparse.identity(real.shape[0], format="csr") - 0.5 * dt * real


def _complex_band(n=40, kl=2, ku=3, seed=5):
    """A seeded complex band matrix with a dominant diagonal, which
    ``?gbtrf`` factors without a row swap."""
    rng = np.random.default_rng(seed)
    offsets = range(-kl, ku + 1)
    diagonals = [
        rng.normal(size=n - abs(k)) + 1j * rng.normal(size=n - abs(k)) + 8.0 * (k == 0)
        for k in offsets
    ]
    return scipy.sparse.diags(diagonals, list(offsets), format="csr")


def _spread_band(n=40, kl=2, ku=3, seed=7):
    """A seeded real band matrix (I + E) D with |E| <= 0.1 and a shuffled
    diagonal D over 1e-6 ... 1e6: ``?gbtrf`` swaps no row, and every row
    of U, the first ku columns' too, is scaled by a different 1/u_ii, so
    a reciprocal read from the wrong row shows."""
    rng = np.random.default_rng(seed)
    offsets = range(-kl, ku + 1)
    unit = scipy.sparse.diags(
        [0.1 * rng.uniform(-1.0, 1.0, size=n - abs(k)) + (k == 0) for k in offsets],
        list(offsets), format="csr",
    )
    return unit @ scipy.sparse.diags(rng.permutation(np.logspace(-6, 6, n)), format="csr")


def _pivoting_band():
    """A real band matrix (1 sub-, 2 superdiagonals) whose small diagonal
    makes ``?gbtrf`` swap rows."""
    return scipy.sparse.diags(
        [np.full(5, 2.0), np.full(6, 1e-3), np.full(5, 1.0), np.full(4, 3.0)],
        [-1, 0, 1, 2], format="csr",
    )


def _band_pivots(matrix):
    """The row swaps ``?gbtrf`` makes on ``matrix``."""
    coo = scipy.sparse.coo_matrix(matrix)
    kl, ku = int((coo.row - coo.col).max()), int((coo.col - coo.row).max())
    band = np.zeros((2 * kl + ku + 1, coo.shape[0]), dtype=coo.dtype, order="F")
    band[kl + ku + coo.row - coo.col, coo.col] = coo.data
    (gbtrf,) = scipy.linalg.get_lapack_funcs(("gbtrf",), (band,))
    piv = gbtrf(band, kl, ku)[1]
    return int(np.count_nonzero(piv != np.arange(coo.shape[0])))


@pytest.mark.parametrize(
    "build, swaps",
    [(_complex_band, 0), (_pivoting_band, 3), (_spread_band, 0)],
    ids=["complex", "pivoting", "spread-diagonal"],
)
def test_band_solve_matches_dense_solve(build, swaps):
    # the complex and the spread band take the two unit triangular solves,
    # the pivoting one the ?gbtrs branch
    matrix = build()
    assert _band_pivots(matrix) == swaps
    rng = np.random.default_rng(9)
    b = rng.normal(size=matrix.shape[0]).astype(matrix.dtype)
    x = propagation._band_factor(matrix)(b)
    exact = scipy.linalg.solve(matrix.toarray(), b)
    assert x.dtype == matrix.dtype
    assert np.max(np.abs(x - exact)) <= 64 * np.finfo(float).eps * np.max(np.abs(exact))


@pytest.mark.parametrize(
    "build", [_spread_band, _complex_band, _pivoting_band], ids=["real", "complex", "pivoting"]
)
def test_band_solve_leaves_its_input_untouched(build):
    # a Crank-Nicolson step reads x again after solve(x)
    matrix = build()
    b = np.random.default_rng(3).normal(size=matrix.shape[0]).astype(matrix.dtype)
    given = b.copy()
    solve = propagation._band_factor(matrix)
    solve(b)
    x = solve(b)
    assert np.array_equal(b, given)
    assert np.array_equal(x, solve(given))


def test_band_solve_of_the_readme_crank_nicolson_matrix():
    # its dense form would take 600 MB, so SuperLU's sparse solve is the
    # reference; ?gbtrf swaps no row, so two triangular band solves serve
    matrix = _readme_cn_matrix()
    assert matrix.shape == (8640, 8640) and matrix.dtype == np.float64
    assert _band_pivots(matrix) == 0
    b = np.random.default_rng(9).normal(size=matrix.shape[0])
    x = propagation._band_factor(matrix)(b)
    exact = scipy.sparse.linalg.spsolve(scipy.sparse.csc_matrix(matrix), b)
    assert np.max(np.abs(x - exact)) <= 64 * np.finfo(float).eps * np.max(np.abs(exact))
    assert np.max(np.abs(matrix @ x - b)) <= 64 * np.finfo(float).eps * np.max(np.abs(b))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hermitian_basis_is_unitary_and_hermitian(dim):
    t = hermitian_basis(dim)
    assert np.max(np.abs(t.conj().T @ t - np.eye(dim * dim))) <= 4 * np.finfo(float).eps
    for column in t.T:
        op = unvectorize(column, dim)
        assert np.array_equal(op, op.conj().T)


@pytest.mark.parametrize(
    "engine, build, model, domain",
    [
        (diffusion, build_fokker_planck_generator, homodyne_qubit(1.0, 1.0),
         ChargeGrid(-20.6, 0.99, 0.01)),
        (jumps, build_block_generator, _complex_three_level(31), ChargeWindow(-5, 3)),
        (diffusion, build_fokker_planck_generator, _homodyne_at_phase(math.pi / 3),
         ChargeGrid(-13.1, 0.98, 0.02)),
    ],
    ids=["homodyne-grid", "complex-three-level-window", "homodyne-phase-pi/3"],
)
def test_hermitian_basis_makes_generators_real(engine, build, model, domain, monkeypatch):
    # every block keeps each cell's density Hermitian, so the assembled
    # generator is the complex one of the engine's blocks, sum_nu
    # S_nu (x) B_nu for the cell shifts S_nu, mapped through the Hermitian
    # basis of every cell: real, to within the roundoff of the map
    seen = {}
    assemble = propagation.absorbing_generator

    def recording(blocks, domain):
        seen.update(blocks)
        return assemble(blocks, domain)

    monkeypatch.setattr(engine, "absorbing_generator", recording)
    gen = build(model, domain)
    m = domain.ncells
    complex_matrix = sum(
        scipy.sparse.kron(scipy.sparse.eye(m, k=-nu), b, format="csr") for nu, b in seen.items()
    )
    basis = scipy.sparse.kron(scipy.sparse.identity(m), hermitian_basis(gen.dim), format="csr")
    mapped = (basis.conj().T @ complex_matrix @ basis).toarray()
    eps = np.finfo(float).eps
    assert gen.matrix.dtype == np.float64
    assert np.max(np.abs(mapped - gen.matrix.toarray())) <= 8 * eps * np.max(np.abs(mapped))
    # the rows are real, the survival the trace row on every cell, and the
    # two fluxes carry the survival's loss
    assert all(r.dtype == np.float64 for r in (gen.survival_vector, gen.upper_flux, gen.lower_flux))
    survival = np.kron(domain.trace_weights, trace_functional(gen.dim))
    assert np.array_equal(gen.survival_vector, survival)
    loss = -(gen.matrix.T @ gen.survival_vector)
    assert np.max(np.abs(gen.flux_vector - loss)) <= 1e-12 * np.max(np.abs(loss))


def test_generator_refuses_a_block_that_breaks_hermiticity():
    # -iI maps every Hermitian block to an anti-Hermitian one: its image
    # in the Hermitian basis is -iI, all imaginary
    with pytest.raises(ModelError, match="imaginary residue 1.000e"):
        propagation.absorbing_generator({0: -1j * np.eye(4)}, ChargeWindow(-1, 1))


def test_dense_series_matches_laplace_inversion():
    # the README-like jump solve at threshold 3 runs on the 92-unknown
    # window [-20, 2], below DENSE_CUTOFF, so its series is exact in time;
    # measured 2.5e-11 in G and 6.4e-12 in f, bounded at 4x
    model = thermal_qubit(1.0, 1.0, 0.2)
    sol = solve_jump_fpt(model, threshold=3, horizon=10.0)
    assert sol.final_state.data.size == 92
    generator = build_block_generator(model, sol.domain)
    x0 = BlockState.initial(sol.domain, propagation.initial_density(model, "steady")).data
    times = sol.result.times
    at = [int(np.argmin(np.abs(times - t))) for t in (0.5, 2.0, 5.0, 9.5)]
    exact = laplace_series(generator, x0, times[at])
    assert np.max(np.abs(sol.result.survival[at] - exact[:, 0])) < 1e-10
    assert np.max(np.abs(sol.result.density[at] - exact[:, 1])) < 2.6e-11


def _cn_case(engine):
    """A solve on an explicit domain above DENSE_CUTOFF at step h, its
    generator, start and the three times checked."""
    if engine == "jump":
        model, domain = thermal_qubit(1.0, 1.0, 0.2), ChargeWindow(-300, 4)
        build, solve, horizon, points = build_block_generator, solve_jump_fpt, 10.0, (2.0, 5.0, 9.5)
        keyword = "window"
    else:
        model, domain = homodyne_qubit(1.0, 1.0), ChargeGrid(-9.98, 0.98, 0.02)
        build, solve, horizon, points = build_fokker_planck_generator, solve_diffusion_fpt, 1.0, (0.1, 0.5, 1.0)
        keyword = "grid"
    generator = build(model, domain)
    x0 = BlockState.initial(domain, propagation.initial_density(model, "steady")).data

    def run(dt):
        return solve(model, **{keyword: domain}, horizon=horizon, dt=dt).result

    return run, generator, x0, points


@pytest.mark.parametrize(
    "engine, dt", [("jump", 0.002), ("diffusion", 0.001)], ids=["jump-window", "diffusion-grid"]
)
def test_crank_nicolson_error_is_second_order_against_laplace_inversion(engine, dt):
    # CN's time error, measured against an exact-in-time reference, falls
    # about fourfold when the step halves (measured 3.77 to 4.02 on the
    # 1,220-unknown jump window and the 2,196-unknown homodyne grid)
    run, generator, x0, points = _cn_case(engine)
    assert x0.size > DENSE_CUTOFF
    coarse, fine = run(dt), run(dt / 2)
    at = [int(round(t / dt)) for t in points]
    fine_at = [2 * i for i in at]
    assert np.allclose(coarse.times[at], points) and np.allclose(fine.times[fine_at], points)
    exact = laplace_series(generator, x0, coarse.times[at])
    for series, column in (("survival", 0), ("density", 1)):
        coarse_error = np.abs(getattr(coarse, series)[at] - exact[:, column])
        fine_error = np.abs(getattr(fine, series)[fine_at] - exact[:, column])
        assert np.all(coarse_error >= 3.5 * fine_error)


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
    traces = np.array([0.25, low, 0.5, 0.25, 0.0])
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
