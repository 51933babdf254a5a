"""Metamorphic oracles: exact relations between solves of transformed models.

Each relation needs no reference solution.  A rotated basis leaves every
charge statistic unchanged, negating every weight mirrors the charge,
scaling every weight and the diffusion grid alike scales the charge, and
splitting each channel into two halves of the same weight changes
nothing, so the two solves must agree to roundoff; an unmonitored zero
channel adds nothing at all, so they must agree bit for bit.  The built-in models' operators
are real, which hides a slip between an operator and its transpose or
conjugate; a complex rotation exposes it.  On a domain that loses no
weight, the generating function of a solve's charge-resolved state is
exp(t L_theta) of the tilted Liouvillian, exactly at any spacing, so the
full-counting-statistics identity checks each engine's assembly with no
time or spatial error to bound.

Each bound is a stated multiple of the worst difference measured for the
transformation below, so that roundoff passes and a wrong assembly does
not.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from qfpt.diffusion import (
    ChargeGrid,
    build_fokker_planck_generator,
    conditioned_charge_distribution,
    solve_diffusion_fpt,
)
from qfpt.jumps import ChargeWindow, passage_moments, solve_jump_fpt
from qfpt.models import SIGMA_MINUS, SIGMA_X, homodyne_qubit, thermal_qubit
from qfpt.operators import JumpChannel, LindbladModel
from qfpt.propagation import initial_density

from .oracles import (
    generating_function,
    mirror,
    rotate,
    scale_weights,
    silent_zero,
    split,
    tilted_generator,
)


def _unitary(dim: int, seed: int) -> np.ndarray:
    """U = expm(iK) for a seeded complex Hermitian K."""
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return expm(0.5j * (k + k.conj().T))


U = _unitary(2, 2024)
# a pure initial state off the steady state, so its rotation matters
EXCITED = np.diag([0.0, 1.0]).astype(complex)


def _series_gap(a, b) -> tuple[float, float]:
    """Largest difference in G, and in f relative to the peak of f, of two
    solves on one time grid."""
    ra, rb = a.result, b.result
    assert np.array_equal(ra.times, rb.times)
    gap_g = float(np.max(np.abs(ra.survival - rb.survival)))
    gap_f = float(np.max(np.abs(ra.density - rb.density)) / np.max(np.abs(ra.density)))
    return gap_g, gap_f


def test_rotation_keeps_passage_moments():
    # measured: 2.2e-16 in the mean and 4.4e-16 in the variance, relative;
    # bound about 200x
    model = thermal_qubit(1.0, 1.0, 1.0)
    plain = passage_moments(model, 5)
    turned = passage_moments(rotate(model, U), 5)
    assert turned.mean == pytest.approx(plain.mean, rel=1e-13, abs=0)
    assert turned.variance == pytest.approx(plain.variance, rel=1e-13, abs=0)
    assert turned.absorbed_probability == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "solve, plain, turned, bound",
    [
        # measured: 4.2e-14 in G and 3.1e-14 in f; bound about 25x
        pytest.param(
            solve_jump_fpt,
            dict(model=thermal_qubit(1.0, 1.0, 0.2), threshold=3, horizon=10.0),
            dict(model=rotate(thermal_qubit(1.0, 1.0, 0.2), U), threshold=3, horizon=10.0),
            1e-12,
            id="jump",
        ),
        # measured: 5.3e-13 in G and 4.8e-13 in f; bound about 20x
        pytest.param(
            solve_diffusion_fpt,
            dict(model=homodyne_qubit(1.0, 1.0), threshold=1.0, lower_threshold=-0.7,
                 horizon=3.0, initial=EXCITED),
            dict(model=rotate(homodyne_qubit(1.0, 1.0), U), threshold=1.0,
                 lower_threshold=-0.7, horizon=3.0, initial=U @ EXCITED @ U.conj().T),
            1e-11,
            id="diffusion",
        ),
    ],
)
def test_rotation_keeps_the_series(solve, plain, turned, bound):
    a, b = solve(**plain), solve(**turned)
    assert a.domain == b.domain
    gap_g, gap_f = _series_gap(a, b)
    assert gap_g < bound
    assert gap_f < bound


@pytest.mark.parametrize(
    "solve, plain, mirrored, bound",
    [
        # measured: 2.0e-14 in G and 2.3e-14 in f; bound about 40x
        pytest.param(
            solve_jump_fpt,
            dict(model=thermal_qubit(1.0, 1.0, 0.2), threshold=3, horizon=10.0),
            dict(model=mirror(thermal_qubit(1.0, 1.0, 0.2)), lower_threshold=-3,
                 horizon=10.0),
            1e-12,
            id="jump",
        ),
        # measured: 5.3e-13 in G and 7.6e-13 in f; bound about 13x
        pytest.param(
            solve_diffusion_fpt,
            dict(model=homodyne_qubit(1.0, 1.0), threshold=1.0, lower_threshold=-0.7,
                 horizon=3.0),
            dict(model=mirror(homodyne_qubit(1.0, 1.0)), threshold=0.7,
                 lower_threshold=-1.0, horizon=3.0),
            1e-11,
            id="diffusion",
        ),
    ],
)
def test_mirror_keeps_the_series(solve, plain, mirrored, bound):
    a, b = solve(**plain), solve(**mirrored)
    # the mirrored domain is the original's reflected through 0
    assert (b.domain.lower, b.domain.upper) == pytest.approx(
        (-a.domain.upper, -a.domain.lower), abs=1e-12
    )
    gap_g, gap_f = _series_gap(a, b)
    assert gap_g < bound
    assert gap_f < bound


def test_split_channels_keep_passage_moments():
    # two channels of one weight share a charge shift and its block;
    # measured: bit-equal; bound 1e-14 relative, about 45 ulps
    model = thermal_qubit(1.0, 1.0, 1.0)
    plain = passage_moments(model, 5)
    halves = passage_moments(split(model), 5)
    assert halves.mean == pytest.approx(plain.mean, rel=1e-14, abs=0)
    assert halves.variance == pytest.approx(plain.variance, rel=1e-14, abs=0)
    assert halves.absorbed_probability == pytest.approx(plain.absorbed_probability, rel=1e-14)


def test_split_channels_keep_the_series():
    # the split changes the rate scale and so the default step, which is
    # therefore given; measured: 5.6e-16 in G and 8.2e-16 in f; bound
    # about 18x and 12x
    model = thermal_qubit(1.0, 1.0, 0.2)
    a = solve_jump_fpt(model, threshold=3, horizon=10.0, dt=1 / 600)
    b = solve_jump_fpt(split(model), threshold=3, horizon=10.0, dt=1 / 600)
    assert a.domain == b.domain
    gap_g, gap_f = _series_gap(a, b)
    assert gap_g < 1e-14
    assert gap_f < 1e-14


def test_silent_zero_channel_keeps_passage_moments():
    # the zero channel adds zero blocks and zero rates; measured: bit-equal
    model = thermal_qubit(1.0, 1.0, 1.0)
    plain = passage_moments(model, 5)
    padded = passage_moments(silent_zero(model), 5)
    assert (padded.mean, padded.variance, padded.absorbed_probability) == (
        plain.mean, plain.variance, plain.absorbed_probability
    )


@pytest.mark.parametrize(
    "solve, options",
    [
        # measured: bit-equal in G and f
        pytest.param(
            solve_jump_fpt, dict(model=thermal_qubit(1.0, 1.0, 0.2), threshold=3, horizon=10.0),
            id="jump",
        ),
        pytest.param(
            solve_diffusion_fpt,
            dict(model=homodyne_qubit(1.0, 1.0), threshold=1.0, lower_threshold=-1.0,
                 delta=0.02, horizon=3.0),
            id="diffusion",
        ),
    ],
)
def test_silent_zero_channel_keeps_the_series(solve, options):
    a = solve(**options)
    b = solve(**dict(options, model=silent_zero(options["model"])))
    assert a.domain == b.domain
    assert np.array_equal(a.result.survival, b.result.survival)
    assert np.array_equal(a.result.density, b.result.density)


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "c, bound",
    [
        # a power of two scales every entry exactly; measured: bit-equal
        # generator, G and f, and rows exactly c times the original
        (2.0, 0.0),
        # measured: bit-equal generator, 4.4e-16 in the fluxes, 7.8e-16 in
        # G and 1.1e-15 in f (peak 1.66); bound 16 eps, relative to the
        # largest entry
        (3.0, 16 * EPS),
    ],
    ids=["c2", "c3"],
)
def test_scaled_weights_and_grid_keep_the_series(c, bound):
    # drift/delta and diffusion/delta^2 are unchanged, and the trace
    # weights and edge deficits scale with delta, so the generator is the
    # same while the survival and both fluxes scale by c, against a start
    # scaled by 1/c; the step is given, as the default depends on the rates
    model, grid = homodyne_qubit(1.0, 1.0), ChargeGrid(-0.98, 0.68, 0.02)
    scaled_model, scaled_grid = scale_weights(model, c), ChargeGrid(-0.98 * c, 0.68 * c, 0.02 * c)
    plain = build_fokker_planck_generator(model, grid)
    scaled = build_fokker_planck_generator(scaled_model, scaled_grid)
    assert abs(scaled.matrix - plain.matrix).max() <= bound * abs(plain.matrix).max()
    for name in ("survival_vector", "upper_flux", "lower_flux"):
        row, scaled_row = getattr(plain, name), getattr(scaled, name)
        assert np.max(np.abs(scaled_row - c * row)) <= bound * c * np.max(np.abs(row))
    a = solve_diffusion_fpt(model, grid=grid, horizon=2.0, dt=0.001)
    b = solve_diffusion_fpt(scaled_model, grid=scaled_grid, horizon=2.0, dt=0.001)
    assert np.array_equal(a.result.times, b.result.times)
    assert np.max(np.abs(b.result.survival - a.result.survival)) <= bound
    assert np.max(np.abs(b.result.density - a.result.density)) <= bound * np.max(a.result.density)
    nodes, density = conditioned_charge_distribution(a.final_state)
    scaled_nodes, scaled_density = conditioned_charge_distribution(b.final_state)
    assert np.max(np.abs(scaled_nodes - c * nodes)) <= bound * c * np.max(np.abs(nodes))
    assert np.max(np.abs(scaled_density - density / c)) <= bound * np.max(density) / c


def _tilted_trace(model, theta, horizon, delta=None) -> float:
    """tr[exp(horizon L_theta) rho_ss] from the steady state."""
    rho0 = initial_density(model, "steady")
    rho = expm(horizon * tilted_generator(model, theta, delta)) @ rho0.ravel()
    return float(np.trace(rho.reshape(model.dim, model.dim)).real)


# a weight-2 and a weight -1 channel beside a silent dephasing one
TWO_STEP = LindbladModel(
    SIGMA_X,
    (
        JumpChannel(SIGMA_MINUS, weight=2.0),
        JumpChannel(0.5 * SIGMA_MINUS.T, weight=-1.0),
        JumpChannel(0.3 * np.diag([1.0, -1.0]), monitored=False),
    ),
)


@pytest.mark.parametrize(
    "model, bound",
    [
        # measured: 7.5e-14 to 9.5e-14 relative; bound about 10x
        pytest.param(thermal_qubit(1.0, 1.0, 0.2), 1e-12, id="thermal"),
        # measured: at most 6.0e-14 relative; bound about 17x
        pytest.param(TWO_STEP, 1e-12, id="two-step-silent"),
    ],
)
def test_jump_state_has_the_tilted_generating_function(model, bound):
    # dense backend on [-40, 40], horizon 3: exp(3 L_theta) with every
    # monitored jump of weight nu tilted by e^(theta nu)
    sol = solve_jump_fpt(model, window=ChargeWindow(-40, 40), horizon=3.0)
    for theta in (-1.0, 0.5, 1.0):
        exact = _tilted_trace(model, theta, 3.0)
        assert generating_function(sol.final_state, theta) == pytest.approx(exact, rel=bound, abs=0)


@pytest.mark.parametrize(
    "model, bound",
    [
        # measured: at most 1.5e-14 relative; bound about 13x
        pytest.param(homodyne_qubit(1.0, 1.0), 2e-13, id="homodyne"),
        # measured: at most 3.0e-14 relative; bound about 10x
        pytest.param(
            LindbladModel(SIGMA_X, (JumpChannel(SIGMA_MINUS, phase=np.pi / 3),)), 3e-13,
            id="phase-pi/3",
        ),
    ],
)
def test_diffusion_state_has_the_lattice_generating_function(model, bound):
    # dense backend on [-12, 12] at spacing 0.1 (964 unknowns), horizon 1,
    # against the central-difference symbol, which is exact at any
    # spacing; for the homodyne qubit the continuum symbol misses it by
    # 8e-5 to 1.8e-3
    sol = solve_diffusion_fpt(model, grid=ChargeGrid(-12.0, 12.0, 0.1), horizon=1.0)
    for theta in (-1.0, -0.3, 0.5, 1.0):
        exact = _tilted_trace(model, theta, 1.0, delta=0.1)
        assert generating_function(sol.final_state, theta) == pytest.approx(exact, rel=bound, abs=0)
