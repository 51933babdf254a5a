"""Propagation backends and the resolvent solves of absorbing generators."""

from __future__ import annotations

import logging

import numpy as np
import pytest
import scipy.sparse

from qfpt.errors import ConvergenceError
from qfpt.propagation import (
    MAX_GRID_POINTS,
    absorption_horizon_guess,
    evolve_to,
    propagate_uniform,
    resolvent_solves,
    time_grid,
)


def test_unknown_method_refused():
    with pytest.raises(ValueError):
        propagate_uniform(np.array([[-1.0]]), np.ones(1), np.linspace(0, 1, 3), method="krylov")


def test_capped_time_grid_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="qfpt.propagation"):
        times = time_grid(1e6, 1.0)
    assert times.size == MAX_GRID_POINTS
    assert "capping time grid" in caplog.text


def test_evolve_to_refuses_overflow():
    # exp(800) overflows double precision; the final-state check catches it
    with pytest.raises(ConvergenceError, match="non-finite"), np.errstate(all="ignore"):
        evolve_to(np.array([[800.0]]), np.array([1.0]), 1.0, 0.1)


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
