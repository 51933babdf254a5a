"""Propagation backends and the resolvent solves of absorbing generators."""

from __future__ import annotations

import logging
import types

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from qfpt import propagation
from qfpt.diffusion import mean_charge_path
from qfpt.errors import ConvergenceError
from qfpt.jumps import ChargeWindow
from qfpt.models import homodyne_qubit, wiener_charge
from qfpt.operators import build_liouvillian, vectorize
from qfpt.propagation import (
    MAX_GRID_POINTS,
    STARTUP_STEPS,
    absorption_horizon_guess,
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


def test_unknown_method_refused():
    with pytest.raises(ValueError):
        propagate_uniform(np.array([[-1.0]]), np.ones(1), np.linspace(0, 1, 3), method="krylov")
    with pytest.raises(ValueError):
        propagate_uniform(np.array([[-1.0]]), np.ones(1), np.linspace(0, 1, 3), rows=np.ones((1, 2)))


def test_capped_time_grid_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="qfpt.propagation"):
        times = time_grid(1e6, 1.0)
    assert times.size == MAX_GRID_POINTS
    assert "capping time grid" in caplog.text


class _Growing(propagation.Discretisation):
    """A one-level generator that grows like exp(800 t) in every cell."""

    provenance = "growing"

    def assemble(self, domain):
        n = domain.ncells
        return types.SimpleNamespace(
            dim=1,
            matrix=800.0 * scipy.sparse.identity(n, format="csr"),
            survival_vector=np.ones(n),
            flux_vector=np.zeros(n),
        )


def test_absorbing_solve_refuses_overflow():
    # exp(800) overflows double precision within the horizon; the series
    # check refuses before any physics check reads the values
    disc = _Growing(wiener_charge(), np.eye(1))
    message = "non-finite values at grid index"
    with pytest.raises(ConvergenceError, match=message), np.errstate(all="ignore"):
        propagation.solve_absorbing(
            disc, ChargeWindow(-2, 2), lower_open=False, upper_open=False,
            horizon=1.0, dt=0.1, auto_tail=False, tail_epsilon=1e-6,
        )


def test_resolvent_solves_give_exponential_moments():
    rate = 2.0
    y1, y2 = resolvent_solves(scipy.sparse.csr_matrix([[-rate]]), np.array([1.0]))
    assert -y1[0].real == pytest.approx(1.0 / rate, rel=1e-15)
    assert 2.0 * y2[0].real == pytest.approx(2.0 / rate**2, rel=1e-15)
    assert absorption_horizon_guess(
        np.array([[-rate]]), np.array([1.0]), np.array([1.0])
    ) == pytest.approx(17.0 / rate)


def test_resolvent_solves_refuse_singular_generator():
    # the second level is never absorbed
    singular = np.array([[-1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConvergenceError, match="singular"):
        resolvent_solves(singular, np.array([0.5, 0.5]))
    assert absorption_horizon_guess(singular, np.ones(2), np.array([0.5, 0.5])) is None


def test_dense_chunks_observe_exact_powers(monkeypatch):
    # a small budget caps the block at 4 points and a chunk at 10 blocks,
    # so grids of 2 to 100 points cover plain steps, whole blocks, a block
    # plus one and minus one step, and several chunks
    monkeypatch.setattr(propagation, "CHUNK_BYTES", 4 * 16 * 3 * 5)
    a, rows, x0 = _stable_system()
    dt = 0.05
    seen, most = set(), 0
    for num in range(2, 101):
        times = dt * np.arange(num)
        obs, state, chunks = _collect(
            propagate_uniform(a, x0, times, rows=rows, method="dense"), num, 3
        )
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
    a, rows, x0 = _stable_system()
    num, dt = 60, 0.05
    times = dt * np.arange(num)
    obs, state, chunks = _collect(propagate_uniform(a, x0, times, rows=rows, method="cn"), num, 3)
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
