"""Discretized charge drift-diffusion with absorbing and reflecting edges."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import trapezoid
from scipy.linalg import expm

from qfpt import diffusion, propagation
from qfpt.diffusion import (
    ChargeGrid,
    build_drift_superoperator,
    build_fokker_planck_generator,
    conditioned_charge_distribution,
    peclet_number,
    solve_diffusion_fpt,
)
from qfpt.errors import ConfigError, ConvergenceError, DegenerateKernelError
from qfpt.models import drifted_charge, homodyne_qubit, wiener_charge
from qfpt.operators import (
    JumpChannel,
    LindbladModel,
    build_liouvillian,
    current_cumulants,
    hermitian_basis,
    hermitian_real,
    vectorize,
)
from qfpt.propagation import initial_density
from qfpt.trajectories import TrajectoryConfig

from .oracles import inverse_gaussian_density, wiener_fpt_density


def test_charge_grid_validation():
    with pytest.raises(ConfigError):
        ChargeGrid(0.1, 1.0, 0.1)
    with pytest.raises(ConfigError):
        ChargeGrid(-1.0, 1.0, -0.1)
    # zero must land on a node
    with pytest.raises(ConfigError):
        ChargeGrid(-0.25, 1.0, 0.1)
    grid = ChargeGrid(-1.0, 2.0, 0.5)
    assert grid.ncells == 7
    assert np.allclose(grid.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    w = grid.trace_weights
    assert w[0] == pytest.approx(0.25) and w[-1] == pytest.approx(0.25)
    assert w[1:-1] == pytest.approx(0.5)
    assert float(w.sum()) == pytest.approx(3.0)


def test_non_finite_thresholds_rejected():
    model = homodyne_qubit(1.0, 1.0)
    for bad in ({"threshold": math.nan}, {"threshold": math.inf},
                {"lower_threshold": -math.inf}):
        with pytest.raises(ConfigError, match="finite"):
            solve_diffusion_fpt(model, horizon=1.0, **bad)
        with pytest.raises(ConfigError, match="finite"):
            TrajectoryConfig(model, "diffusion", 10, 1.0, **bad)


def test_grid_and_thresholds_are_mutually_exclusive():
    with pytest.raises(ConfigError):
        solve_diffusion_fpt(
            wiener_charge(),
            threshold=1.0,
            grid=ChargeGrid(-1.0, 1.0, 0.1),
            initial=np.eye(1, dtype=complex),
        )


def test_grid_and_delta_are_mutually_exclusive():
    with pytest.raises(ConfigError, match="grid or delta"):
        solve_diffusion_fpt(
            wiener_charge(),
            grid=ChargeGrid(-1.0, 1.0, 0.05),
            delta=0.01,
            initial=np.eye(1, dtype=complex),
        )


def test_wiener_barrier_matches_level_crossing_density():
    sol = solve_diffusion_fpt(
        wiener_charge(),
        threshold=1.0,
        lower_threshold=-8.0,
        delta=0.01,
        initial=np.eye(1, dtype=complex),
        horizon=6.0,
    )
    expected = wiener_fpt_density(1.0, sol.result.times)
    num = np.sqrt(trapezoid((sol.result.density - expected) ** 2, sol.result.times))
    den = np.sqrt(trapezoid(expected**2, sol.result.times))
    assert num / den < 1e-2


def test_wiener_refinement_is_second_order():
    errors = []
    for delta in (0.04, 0.02, 0.01):
        sol = solve_diffusion_fpt(
            wiener_charge(),
            threshold=1.0,
            delta=delta,
            initial=np.eye(1, dtype=complex),
            horizon=4.0,
            dt=5e-4,
        )
        expected = wiener_fpt_density(1.0, sol.result.times)
        errors.append(
            float(np.sqrt(trapezoid((sol.result.density - expected) ** 2, sol.result.times)))
        )
    assert errors[0] > errors[1] > errors[2]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 < coarse / fine < 5.5


def test_drifted_charge_matches_inverse_gaussian():
    alpha = 0.5
    sol = solve_diffusion_fpt(
        drifted_charge(alpha),
        threshold=1.0,
        lower_threshold=-6.0,
        delta=0.01,
        initial=np.eye(1, dtype=complex),
        horizon=8.0,
    )
    expected = inverse_gaussian_density(1.0, 2.0 * alpha, 1.0, sol.result.times)
    num = np.sqrt(trapezoid((sol.result.density - expected) ** 2, sol.result.times))
    den = np.sqrt(trapezoid(expected**2, sol.result.times))
    assert num / den < 1e-2


def test_wide_grid_reproduces_unconditional_dynamics():
    # summing nodes telescopes the finite differences, so the error floor is
    # set by the edge truncation, not by the spacing
    model = homodyne_qubit(1.0, 1.0)
    grid = ChargeGrid(-8.0, 8.0, 0.0625)
    rho0 = np.diag([0.4, 0.6]).astype(complex)
    liou = build_liouvillian(model)
    t = 1.5
    out = solve_diffusion_fpt(model, grid=grid, initial=rho0, horizon=t).final_state
    marginal = out.total_state()
    reference = np.reshape(expm(liou * t) @ vectorize(rho0), (2, 2), order="F")
    assert np.max(np.abs(marginal - reference)) < 1e-6


def _reflecting(model, grid):
    """The generator with its edge rows changed to conserve the trapezoidal
    total weight exactly, which isolates integrator error."""
    gen = build_fokker_planck_generator(model, grid)
    drift, m, dn = build_drift_superoperator(model), grid.ncells, grid.delta
    t = hermitian_basis(gen.dim)
    # the generator's coordinates are real, in the Hermitian basis
    kmat = hermitian_real(t.conj().T @ drift.matrix @ t, "drift")
    eye = np.eye(gen.dim**2)
    up = -kmat / (2 * dn) + (drift.diffusion / (2 * dn**2)) * eye
    down = kmat / (2 * dn) + (drift.diffusion / (2 * dn**2)) * eye

    def cell(i, j):
        return scipy.sparse.coo_matrix(([1.0], ([i], [j])), shape=(m, m))

    matrix = (
        gen.matrix
        + scipy.sparse.kron(cell(0, 0), -kmat / dn, format="csr")
        + scipy.sparse.kron(cell(0, 1), up, format="csr")
        + scipy.sparse.kron(cell(m - 1, m - 1), kmat / dn, format="csr")
        + scipy.sparse.kron(cell(m - 1, m - 2), down, format="csr")
    )
    return dataclasses.replace(gen, matrix=matrix.tocsr())


def test_reflecting_edges_conserve_weight():
    model = homodyne_qubit(1.0, 1.0)
    grid = ChargeGrid(-5.0, 5.0, 0.05)
    gen = _reflecting(model, grid)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    x0 = propagation.BlockState.initial(grid, rho0).data
    drift = build_drift_superoperator(model)
    times = propagation.time_grid(1.0, diffusion._default_step(model, drift, math.inf))
    for _, obs, _ in propagation.propagate_uniform(
        gen.matrix, x0, times, rows=gen.survival_vector[None, :]
    ):
        pass
    assert obs[-1, 0] == pytest.approx(1.0, abs=1e-8)


def test_coarse_grid_warns_on_peclet():
    model = homodyne_qubit(1.0, 1.0)
    drift = build_drift_superoperator(model)
    delta = 2.0
    assert peclet_number(drift, delta) > 2.0
    with pytest.warns(RuntimeWarning, match="cell ratio"):
        build_fokker_planck_generator(model, ChargeGrid(-4.0, 4.0, delta))


def test_flux_splits_by_the_ghost_node_behind_it():
    model = homodyne_qubit(1.0, 1.0)
    gen = build_fokker_planck_generator(model, ChargeGrid(-1.0, 1.0, 0.01))
    # the split sums to the total weight loss of the survival functional
    loss = -(gen.matrix.T @ gen.survival_vector)
    assert np.max(np.abs(gen.lower_flux + gen.upper_flux - loss)) <= 1e-12 * np.max(np.abs(loss))
    blocks = {"lower": gen.lower_flux, "upper": gen.upper_flux}
    blocks = {side: flux.reshape(-1, gen.dim**2) for side, flux in blocks.items()}
    assert np.all(np.any(blocks["lower"][:2], axis=1)) and not np.any(blocks["lower"][2:])
    assert np.all(np.any(blocks["upper"][-2:], axis=1)) and not np.any(blocks["upper"][:-2])
    # on three nodes the middle one neighbours both edge nodes
    small = build_fokker_planck_generator(model, ChargeGrid(-0.1, 0.1, 0.1))
    middle = slice(small.dim**2, 2 * small.dim**2)
    assert np.any(small.lower_flux[middle]) and np.any(small.upper_flux[middle])


def test_density_vanishes_before_mass_reaches_an_edge():
    # the initial state sits on the interior node at charge 0, which no
    # flux functional reads, so the density at t=0 is exactly zero
    sol = solve_diffusion_fpt(homodyne_qubit(1.0, 1.0), threshold=1.0, horizon=0.5)
    assert sol.result.density[0] == 0.0


def test_conditioned_distribution_is_normalized():
    model = homodyne_qubit(1.0, 1.0)
    sol = solve_diffusion_fpt(model, threshold=1.0, delta=0.02, horizon=3.0)
    nodes, dens = conditioned_charge_distribution(sol.final_state)
    assert np.all(dens >= 0.0)
    assert trapezoid(dens, nodes) == pytest.approx(1.0, abs=1e-9)
    # the zeroed ghost sits exactly on the threshold, one spacing outside
    assert sol.domain.upper == pytest.approx(1.0 - 0.02)


def test_survival_ledger_closes():
    model = homodyne_qubit(1.0, 1.0)
    sol = solve_diffusion_fpt(model, threshold=1.0, delta=0.02, horizon=4.0)
    t, f, g = sol.result.times, sol.result.density, sol.result.survival
    absorbed = np.concatenate(
        ([0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * np.diff(t)))
    )
    assert np.max(np.abs(g + absorbed - 1.0)) < 1e-6


def test_dense_and_sparse_methods_agree(monkeypatch):
    model = homodyne_qubit(1.0, 1.0)
    kwargs = dict(threshold=1.0, delta=0.05, horizon=2.0, dt=5e-4)
    monkeypatch.setattr(propagation, "DENSE_CUTOFF", 10**9)
    dense = solve_diffusion_fpt(model, **kwargs)
    monkeypatch.setattr(propagation, "DENSE_CUTOFF", 0)
    implicit = solve_diffusion_fpt(model, **kwargs)
    assert np.max(np.abs(dense.result.density - implicit.result.density)) < 2e-4
    assert np.max(np.abs(dense.result.survival - implicit.result.survival)) < 1e-5


def test_evolve_on_sparse_grid_matches_heat_kernel():
    # 2,401 nodes puts the generator on the sparse Crank-Nicolson path
    grid = ChargeGrid(-6.0, 6.0, 0.005)
    out = solve_diffusion_fpt(
        wiener_charge(), grid=grid, initial=np.eye(1, dtype=complex), horizon=1.0
    ).final_state
    kernel = np.exp(-0.5 * grid.nodes**2) / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(out.traces() - kernel)) < 1e-4


def test_mean_charge_path_refuses_overflowing_rates():
    # a weight near the float limit overflows the current functional
    times = np.linspace(0.0, 1.0, 5)
    assert diffusion.mean_charge_path(drifted_charge(0.5), np.eye(1), times)[-1] == pytest.approx(1.0)
    with pytest.raises(ConvergenceError, match="grid index 0"):
        diffusion.mean_charge_path(drifted_charge(1.0, weight=1e308), np.eye(1), times)


def test_auto_tail_assembles_the_grid_once(monkeypatch):
    calls = []

    def counting(model, grid, **kwargs):
        calls.append(grid)
        return build_fokker_planck_generator(model, grid, **kwargs)

    monkeypatch.setattr(diffusion, "build_fokker_planck_generator", counting)
    sol = solve_diffusion_fpt(drifted_charge(0.5), threshold=1.0, horizon=30.0, auto_tail=True)
    assert sol.result.survival[-1] < 1e-6
    assert calls == [sol.domain]


def _recording_assembly(monkeypatch) -> list:
    calls = []

    def counting(model, grid, **kwargs):
        calls.append(grid)
        return build_fokker_planck_generator(model, grid, **kwargs)

    monkeypatch.setattr(diffusion, "build_fokker_planck_generator", counting)
    return calls


def test_drift_shortens_the_trailing_open_side(monkeypatch):
    # J = D = 1: the lower side needs depth ln(1e12)/2 = 13.8, not 8 sqrt(30)
    calls = _recording_assembly(monkeypatch)
    sol = solve_diffusion_fpt(drifted_charge(0.5), threshold=1.0, horizon=30.0, auto_tail=True)
    assert calls == [ChargeGrid(-14.82, 0.99, 0.01)]
    assert sol.domain == calls[0]


def test_readme_homodyne_keeps_the_diffusive_margin(monkeypatch):
    # J = 4/9 and D_J = 403/243 give a depth of 51.6, deeper than the
    # diffusive 8 sqrt(6), so the trailing side keeps its margin
    calls = _recording_assembly(monkeypatch)
    sol = solve_diffusion_fpt(homodyne_qubit(1.0, 1.0), threshold=1.0, horizon=6.0)
    assert calls == [ChargeGrid(-20.6, 0.99, 0.01)]
    assert sol.domain == calls[0]


@pytest.mark.parametrize(
    "model, margins",
    [
        # no current: both sides keep 8 sqrt(D T) + 1 at T = 4
        (wiener_charge(), (17.0, 17.0)),
        # a current of -1 drifts away from the upper side, which needs
        # depth ln(1e12)/2 < 16
        (drifted_charge(0.5, weight=-1.0), (17.0, 0.5 * math.log(1e12) + 1.0)),
    ],
)
def test_open_margins_follow_the_current(model, margins):
    drift = build_drift_superoperator(model)
    assert diffusion._open_margins(model, drift, 4.0) == pytest.approx(margins, rel=1e-12)


def test_degenerate_steady_state_keeps_the_diffusive_margin():
    # sigma_z dephasing leaves every diagonal state stationary, so there is
    # no steady current to set a depth; started in the +1 eigenstate the
    # charge drifts up at rate 2 and the lower side keeps 8 sqrt(2) + 1
    model = LindbladModel(np.zeros((2, 2)), (JumpChannel(np.diag([1.0, -1.0])),))
    with pytest.raises(DegenerateKernelError):
        current_cumulants(model, "diffusion")
    start = np.diag([1.0, 0.0]).astype(complex)
    sol = solve_diffusion_fpt(model, threshold=1.0, horizon=2.0, initial=start)
    assert sol.domain == ChargeGrid(-12.32, 0.99, 0.01)
    fixed = solve_diffusion_fpt(model, grid=sol.domain, horizon=2.0, initial=start)
    assert np.array_equal(sol.result.survival, fixed.result.survival)
    assert np.array_equal(sol.result.density, fixed.result.density)


def test_auto_tail_refuses_a_charge_drifting_away_before_stepping(monkeypatch):
    # the homodyne current J = 4/9 drifts away from the lower threshold, so
    # the open upper side is ever reached with probability 0.4496 however
    # wide the grid; the exit solves see it before any series is stepped
    horizons = []
    propagate = propagation.propagate_uniform

    def recording(matrix, x0, times, *, rows):
        horizons.append(float(times[-1]))
        return propagate(matrix, x0, times, rows=rows)

    monkeypatch.setattr(propagation, "propagate_uniform", recording)
    message = "upper-exit probability by T = inf is still up to 0.4496 "
    with pytest.raises(ConvergenceError, match=message):
        solve_diffusion_fpt(
            homodyne_qubit(1.0, 1.0),
            lower_threshold=-1.0,
            delta=0.05,
            horizon=3.0,
            auto_tail=True,
        )
    assert horizons == []


def test_auto_grid_refuses_a_lower_ghost_next_to_zero():
    # threshold 1 snaps the spacing to 0.01: a lower threshold of -0.01
    # leaves no node between its ghost and 0 and is refused, where the
    # grid once moved it out to -0.02; -0.02 itself has one
    model = homodyne_qubit(1.0, 1.0)
    drift, rho0 = build_drift_superoperator(model), initial_density(model, "steady")
    with pytest.raises(ConfigError, match="pass a finer delta or an explicit grid"):
        diffusion._auto_grid(model, drift, rho0, 1.0, -0.01, None, 1.0)
    grid = diffusion._auto_grid(model, drift, rho0, 1.0, -0.02, None, 1.0)
    assert (grid.lower, grid.upper, grid.delta) == pytest.approx((-0.01, 0.99, 0.01), abs=1e-15)
    finer = diffusion._auto_grid(model, drift, rho0, 1.0, -0.01, 0.005, 1.0)
    assert (finer.lower, finer.delta) == pytest.approx((-0.005, 0.005), abs=1e-15)
