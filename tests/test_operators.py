"""Superoperator algebra, steady states and group-inverse identities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qfpt.errors import ConfigError, DegenerateKernelError, ModelError
from qfpt.jumps import passage_moments
from qfpt.models import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    decay_qubit,
    drifted_charge,
    homodyne_qubit,
    thermal_qubit,
)
from qfpt.operators import (
    JumpChannel,
    LindbladModel,
    build_drift_superoperator,
    build_liouvillian,
    build_split_generators,
    current_cumulants,
    drazin_inverse,
    kron,
    left_multiplier,
    right_multiplier,
    sandwich,
    stationary_projector,
    steady_state,
    trace_functional,
    unvectorize,
    validate_density_matrix,
    vectorize,
)

from scipy.linalg import expm


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def random_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_vectorize_roundtrip():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 5):
        rho = random_matrix(rng, dim)
        assert np.array_equal(unvectorize(vectorize(rho), dim), rho)


def test_kron_is_numpy_kron_bit_for_bit():
    # the superoperator builders and the edge fluxes take the broadcast
    # product for np.kron; both multiply the same entries
    rng = np.random.default_rng(4)
    for (m, n), (p, q) in [((2, 2), (2, 2)), ((3, 1), (2, 4)), ((1, 3), (3, 3))]:
        a, b = rng.normal(size=(m, n)), rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
        for x, y in [(a, b), (b.conj(), b), (np.eye(p), b), (b.T, np.eye(q))]:
            assert np.array_equal(kron(x, y), np.kron(x, y))
    e, v = rng.exponential(size=7), rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.array_equal(kron(e, v), np.kron(e, v))


def test_multiplier_identities():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 4):
        a = random_matrix(rng, dim)
        b = random_matrix(rng, dim)
        rho = random_matrix(rng, dim)
        assert np.allclose(
            unvectorize(left_multiplier(a) @ vectorize(rho), dim), a @ rho,
            atol=1e-13,
        )
        assert np.allclose(
            unvectorize(right_multiplier(b) @ vectorize(rho), dim), rho @ b,
            atol=1e-13,
        )
        assert np.allclose(
            unvectorize(sandwich(a) @ vectorize(rho), dim),
            a @ rho @ a.conj().T,
            atol=1e-13,
        )


def test_trace_functional():
    rng = np.random.default_rng(2)
    rho = random_matrix(rng, 4)
    assert abs(trace_functional(4) @ vectorize(rho) - rho.trace()) < 1e-13


def test_decay_liouvillian_matches_hand_built():
    gamma = 0.7
    liou = build_liouvillian(decay_qubit(gamma))
    # column stacking (vec by columns): basis order ee index 3, eg 2, ge 1, gg 0
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = gamma
    expected[3, 3] = -gamma
    expected[1, 1] = -gamma / 2.0
    expected[2, 2] = -gamma / 2.0
    assert np.allclose(liou, expected, atol=1e-14)


def test_liouvillian_preserves_trace_hermiticity_positivity():
    model = thermal_qubit(1.0, 1.3, 0.4)
    liou = build_liouvillian(model)
    assert np.max(np.abs(trace_functional(2) @ liou)) < 1e-12
    rng = np.random.default_rng(3)
    prop = expm(liou * 2.0)
    for _ in range(5):
        rho = unvectorize(prop @ vectorize(random_density(rng, 2)), 2)
        assert abs(rho.trace() - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_split_generators_sum_to_liouvillian():
    # build_liouvillian is the sum of the two halves, so they agree exactly
    for model in (thermal_qubit(1.0, 1.0, 0.2), decay_qubit(0.5)):
        left, right = build_split_generators(model)
        assert np.array_equal(left + right, build_liouvillian(model))


@pytest.mark.parametrize("weights", [(1e200,), (1e154, 1e154)], ids=["square", "sum"])
def test_drift_refuses_a_diffusion_constant_that_is_not_finite(weights):
    # D = sum_k w_k^2 has one owner, which refuses it whether a square
    # overflows or only the sum does
    channels = tuple(JumpChannel(np.eye(1), weight=w) for w in weights)
    with pytest.raises(ModelError, match="the diffusion constant D"):
        build_drift_superoperator(LindbladModel(np.zeros((1, 1)), channels))


def test_steady_state_thermal_closed_form():
    gamma, nbar = 1.0, 0.3
    model = thermal_qubit(gamma, 0.0, nbar)
    rho = steady_state(build_liouvillian(model))
    z = 2.0 * nbar + 1.0
    assert abs(rho[0, 0] - (nbar + 1.0) / z) < 1e-12
    assert abs(rho[1, 1] - nbar / z) < 1e-12


def test_steady_state_invariants():
    model = thermal_qubit(0.8, 1.2, 0.5)
    liou = build_liouvillian(model)
    rho = steady_state(liou)
    assert np.max(np.abs(unvectorize(liou @ vectorize(rho), 2))) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert abs(rho.trace() - 1.0) < 1e-12


def test_steady_state_degenerate_kernel_raises():
    # decay on the first qubit only: any state of the second is stationary
    op = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)).astype(complex)
    model = LindbladModel(np.zeros((4, 4), dtype=complex), (JumpChannel(op),))
    with pytest.raises(DegenerateKernelError):
        steady_state(build_liouvillian(model))


def test_drazin_identities():
    model = thermal_qubit(1.0, 1.0, 0.2)
    liou = build_liouvillian(model)
    rho_ss = steady_state(liou)
    inv = drazin_inverse(liou, rho_ss)
    comp = np.eye(4) - stationary_projector(rho_ss)
    assert np.max(np.abs(liou @ inv - comp)) < 1e-9
    assert np.max(np.abs(inv @ liou - comp)) < 1e-9
    assert np.max(np.abs(inv @ vectorize(rho_ss))) < 1e-9


def test_drazin_rejects_degenerate_generator():
    op = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)).astype(complex)
    model = LindbladModel(np.zeros((4, 4), dtype=complex), (JumpChannel(op),))
    with pytest.raises(DegenerateKernelError):
        drazin_inverse(build_liouvillian(model))


def _doubled_charges(model: LindbladModel) -> LindbladModel:
    channels = tuple(JumpChannel(ch.operator, weight=2 * ch.weight) for ch in model.channels)
    return LindbladModel(model.hamiltonian, channels)


FCS_MODELS = [
    thermal_qubit(1.0, 1.0, 0.2),
    thermal_qubit(1.0, 0.3, 0.5),
    thermal_qubit(2.0, 1.5, 0.0),
    # weights +2 and -2: the charge stays on even levels, so an even
    # threshold is hit exactly and the squared weight enters the noise
    _doubled_charges(thermal_qubit(1.0, 1.0, 0.2)),
    # a silent dephasing channel shapes the dynamics but counts nothing
    LindbladModel(
        0.7 * SIGMA_X,
        (
            JumpChannel(math.sqrt(1.2) * SIGMA_MINUS, weight=1.0),
            JumpChannel(math.sqrt(0.2) * SIGMA_PLUS, weight=-1.0),
            JumpChannel(math.sqrt(0.5) * np.diag([1.0, -1.0]), weight=0.0, monitored=False),
        ),
    ),
]


@pytest.mark.parametrize("model", FCS_MODELS)
def test_jump_cumulants_give_the_passage_moment_slopes(model):
    # E[T_n] = n/J + c1 and Var[T_n] = n D/J^3 + c2 up to corrections that
    # vanish with n, so the exact moments grow by 1/J and D/J^3 per unit
    current, noise = current_cumulants(model, "jump")
    moments = {n: passage_moments(model, n) for n in (20, 40, 80)}
    for lo, hi in ((20, 40), (40, 80)):
        mean_slope = (moments[hi].mean - moments[lo].mean) / (hi - lo)
        var_slope = (moments[hi].variance - moments[lo].variance) / (hi - lo)
        assert mean_slope == pytest.approx(1.0 / current, rel=1e-9)
        assert var_slope == pytest.approx(noise / current**3, rel=1e-9)


@pytest.mark.parametrize(
    "model, current, noise",
    [
        (homodyne_qubit(1.0, 1.0), 4.0 / 9.0, 403.0 / 243.0),
        # drifted_charge(alpha, w) is a Brownian charge of drift 2 alpha w
        # and variance rate w^2
        (drifted_charge(0.5), 1.0, 1.0),
        (drifted_charge(0.3, weight=-2.0), -1.2, 4.0),
    ],
)
def test_diffusion_cumulants_closed_forms(model, current, noise):
    assert current_cumulants(model, "diffusion") == pytest.approx((current, noise), rel=1e-12)


def test_cumulants_refuse_degenerate_model_and_unknown_unravelling():
    op = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)).astype(complex)
    model = LindbladModel(np.zeros((4, 4), dtype=complex), (JumpChannel(op),))
    with pytest.raises(DegenerateKernelError):
        current_cumulants(model, "jump")
    with pytest.raises(ConfigError, match="unravelling"):
        current_cumulants(thermal_qubit(1.0, 1.0, 0.2), "counting")


def test_validate_density_matrix_rejections():
    with pytest.raises(ModelError):
        validate_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ModelError):
        validate_density_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ModelError):
        validate_density_matrix(np.eye(2))
    good = validate_density_matrix(np.eye(2) / 2.0)
    assert good.dtype == complex


def test_model_rejects_non_hermitian_hamiltonian():
    with pytest.raises(ModelError):
        LindbladModel(
            np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
            (JumpChannel(np.eye(2, dtype=complex)),),
        )


def test_channel_phase_rotation():
    op = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    ch = JumpChannel(op, phase=-np.pi / 2.0)
    assert np.allclose(ch.rotated_operator(), op * np.exp(1j * np.pi / 2.0))
