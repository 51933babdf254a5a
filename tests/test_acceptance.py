"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
``criterion N: PASS`` line with the measured figure of merit.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid
from scipy.linalg import expm

from qfpt.analysis import integrate_moments, ks_distance
from qfpt.diffusion import conditioned_charge_distribution, solve_diffusion_fpt
from qfpt.jumps import charge_distribution, solve_jump_fpt
from qfpt.kur import (
    dynamical_activity,
    kur_scan,
    quantum_correction,
    qubit_activity,
    qubit_quantum_correction,
)
from qfpt.models import (
    decay_qubit,
    drifted_charge,
    homodyne_qubit,
    thermal_qubit,
    wiener_charge,
)
from qfpt.operators import (
    JumpChannel,
    LindbladModel,
    build_liouvillian,
    build_split_generators,
    drazin_inverse,
    stationary_projector,
    steady_state,
    vectorize,
)
from qfpt.trajectories import TrajectoryConfig, simulate

from .oracles import BirthDeathChain, cell_traces, exponential_density, wiener_fpt_density


def _trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def test_criterion_01_decay_counting_density():
    gamma = 1.0
    excited = np.diag([0.0, 1.0]).astype(complex)
    t0 = time.time()
    sol = solve_jump_fpt(
        decay_qubit(gamma), threshold=1, initial=excited, horizon=10.0
    )
    elapsed = time.time() - t0
    err = float(np.max(np.abs(sol.result.density - exponential_density(gamma, sol.result.times))))
    assert err < 1e-6
    assert elapsed < 1.0
    print(f"criterion 1: PASS - max density error {err:.3e} in {elapsed:.2f}s")


def test_criterion_02_incoherent_limit_matches_classical_chain():
    worst_f, worst_p = 0.0, 0.0
    for nbar in (0.1, 1.0):
        model = thermal_qubit(1.0, 0.0, nbar)
        sol = solve_jump_fpt(model, threshold=5, horizon=10.0)
        chain = BirthDeathChain(1.0, nbar, sol.domain.lower, sol.domain.upper)
        density, surv, cells = chain.run(sol.result.times)
        worst_f = max(
            worst_f,
            float(np.max(np.abs(sol.result.density - density))),
            float(np.max(np.abs(sol.result.survival - surv))),
        )
        worst_p = max(worst_p, float(np.max(np.abs(cell_traces(model, sol) - cells))))
    assert worst_f < 1e-8
    assert worst_p < 1e-8
    print(
        "criterion 2: PASS - max |f,G| error "
        f"{worst_f:.3e}, max P(N,t) error {worst_p:.3e}"
    )


def test_criterion_03_open_window_counting_statistics():
    model = thermal_qubit(1.0, 1.0, 0.2)
    sol = solve_jump_fpt(model, horizon=10.0)
    rho_ss = steady_state(build_liouvillian(model))
    liou = build_liouvillian(model)
    worst = 0.0
    for t in (1.0, 2.5, 5.0, 10.0):
        out = solve_jump_fpt(model, window=sol.domain, initial=rho_ss, horizon=t).final_state
        dist = charge_distribution(out)
        total = sum(dist.values())
        assert abs(total - 1.0) < 1e-9
        reference = np.reshape(expm(liou * t) @ vectorize(rho_ss), (2, 2), order="F")
        worst = max(worst, _trace_distance(out.total_state(), reference))
    assert worst < 1e-8
    print(f"criterion 3: PASS - worst trace distance {worst:.3e} over t <= 10")


def test_criterion_04_jump_monte_carlo_agrees():
    model = thermal_qubit(1.0, 1.0, 0.2)
    t0 = time.time()
    det = solve_jump_fpt(model, threshold=5, horizon=20.0)
    cfg = TrajectoryConfig(
        model, "jump", 10_000, 20.0, seed=1, threshold=5
    )
    ens = simulate(cfg)
    elapsed = time.time() - t0
    ks = ks_distance(det.result, ens)
    g_end = det.result.survival[-1]
    sigma = np.sqrt(g_end * (1.0 - g_end) / cfg.ntraj)
    diff = abs(ens.censored_fraction() - g_end)
    assert ks < 0.03
    assert diff < 3.0 * sigma
    assert elapsed < 120.0
    print(
        f"criterion 4: PASS - ks {ks:.4f} < 0.03, censored err {diff:.4f} "
        f"< {3 * sigma:.4f}, {elapsed:.1f}s"
    )


def test_criterion_05_closed_form_bounds():
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for omega in (0.5, 1.0, 2.0):
            for nbar in (0.1, 0.5, 1.0):
                model = thermal_qubit(gamma, omega, nbar)
                k_ref = qubit_activity(gamma, omega, nbar)
                q_ref = qubit_quantum_correction(gamma, omega, nbar)
                worst = max(
                    worst,
                    abs(dynamical_activity(model) - k_ref) / k_ref,
                    abs(quantum_correction(model) - q_ref) / q_ref,
                )
    assert worst < 1e-8
    q_zero = max(
        abs(quantum_correction(thermal_qubit(g, 0.0, nb)))
        for g in (0.5, 1.0, 2.0)
        for nb in (0.1, 0.5, 1.0)
    )
    assert q_zero < 1e-10
    print(
        f"criterion 5: PASS - worst closed-form deviation {worst:.3e}, "
        f"max |Q(omega=0)| {q_zero:.3e}"
    )


def test_criterion_06_violation_scan():
    omegas = [0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]
    reports = kur_scan(omegas, gamma=1.0, nbar=0.1, threshold=5)
    assert all(r.status == "ok" for r in reports)
    classical = [r.omega for r in reports if r.classical_violated]
    quantum = [r.omega for r in reports if r.quantum_violated]
    assert len(classical) >= 1
    assert not quantum

    hot = kur_scan([0.1, 0.5, 1.0, 2.0, 5.0], gamma=1.0, nbar=1.0, threshold=5)
    assert all(r.status == "ok" for r in hot)
    assert not any(r.quantum_violated for r in hot)
    hot_classical = [r.omega for r in hot if r.classical_violated]
    print(
        f"criterion 6: PASS - nbar=0.1 classical violations at omega={classical}, "
        f"quantum none; nbar=1.0 classical at omega={hot_classical or 'none'}, quantum none"
    )


def test_criterion_07_wiener_resolution_scaling():
    errors = []
    rel = None
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
        err = float(np.sqrt(trapezoid((sol.result.density - expected) ** 2, sol.result.times)))
        errors.append(err)
        rel = err / float(np.sqrt(trapezoid(expected**2, sol.result.times)))
    assert rel < 1e-2
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    assert all(3.0 < r < 5.5 for r in ratios)
    print(
        f"criterion 7: PASS - relative L2 error {rel:.3e} at spacing 0.01, "
        f"refinement ratios {ratios[0]:.2f}, {ratios[1]:.2f}"
    )


def test_criterion_08_drifted_mean_first_passage():
    alpha = 0.5
    sol = solve_diffusion_fpt(
        drifted_charge(alpha),
        threshold=1.0,
        initial=np.eye(1, dtype=complex),
        horizon=30.0,
        auto_tail=True,
    )
    moments = integrate_moments(sol.result)
    err = abs(moments.mean - 1.0)
    assert err < 1e-3
    print(f"criterion 8: PASS - mean hit time error {err:.2e} against b/(2 alpha)")


def test_criterion_09_homodyne_multimodal_and_conditioned():
    model = homodyne_qubit(1.0, 1.0)
    t0 = time.time()
    sol = solve_diffusion_fpt(model, threshold=1.0, horizon=6.0)
    det = sol.result
    interior = det.density[1:-1]
    maxima = np.flatnonzero(
        (interior > det.density[:-2]) & (interior > det.density[2:])
    )
    peaks = det.times[1 + maxima]
    assert maxima.size >= 2

    cfg = TrajectoryConfig(
        model, "diffusion", 10_000, 6.0, dt=0.002, seed=42,
        threshold=1.0,
    )
    ens = simulate(cfg)
    ks = ks_distance(det, ens)
    assert ks < 0.05

    nodes, q = conditioned_charge_distribution(sol.final_state)
    dn = nodes[1] - nodes[0]
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (q[1:] + q[:-1]) * dn)))
    cdf /= cdf[-1]
    nbins = 15
    qs = np.linspace(0.0, 1.0, nbins + 1)
    inner = np.interp(qs[1:-1], cdf, nodes)
    edges = np.concatenate(([nodes[0] - 1.0], inner, [nodes[-1] + 1.0]))
    cens = ens.final_charges[ens.censored]
    obs, _ = np.histogram(cens, bins=edges)
    exp = np.full(nbins, cens.size / nbins)
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    pval = float(stats.chi2.sf(chi2, nbins - 1))
    elapsed = time.time() - t0
    assert pval > 0.01
    print(
        f"criterion 9: PASS - ks {ks:.4f} < 0.05, density maxima at "
        f"t={np.round(peaks, 2)}, conditioned chi2 p={pval:.3f}, {elapsed:.1f}s"
    )


def test_criterion_10_threshold_sweep_against_monte_carlo():
    model = homodyne_qubit(1.0, 1.0)
    thresholds = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    det_means, lines = [], []
    for nth in thresholds:
        horizon = 2.0 + 2.0 * nth
        sol = solve_diffusion_fpt(model, threshold=nth, horizon=horizon)
        mom = integrate_moments(sol.result, require_tail=False)
        cfg = TrajectoryConfig(
            model, "diffusion", 1000, horizon, dt=0.001, seed=11,
            threshold=nth,
        )
        hits = simulate(cfg).absorbed_times()
        se = float(hits.std(ddof=1)) / np.sqrt(hits.size)
        diff = abs(mom.mean - float(hits.mean()))
        assert diff < 3.0 * se, f"threshold {nth}: |{diff:.4f}| >= 3 x {se:.4f}"
        det_means.append(mom.mean)
        lines.append(f"{nth}:{diff / se:.1f}se")
    assert all(b > a for a, b in zip(det_means, det_means[1:]))
    print(
        "criterion 10: PASS - mean hit time strictly increasing, all within "
        f"3 SE of Monte Carlo ({', '.join(lines)})"
    )


def test_criterion_11_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(3)

    def random_model(d=3):
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        return LindbladModel(
            0.5 * (h + h.conj().T),
            (
                JumpChannel(0.6 * ops[0], weight=1),
                JumpChannel(0.4 * ops[1], weight=-1, phase=0.3),
            ),
        )

    # propagation preserves trace, Hermiticity and positivity
    model = random_model()
    liou = build_liouvillian(model)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    for t in (0.1, 0.5, 2.0):
        out = np.reshape(expm(liou * t) @ vectorize(rho), (3, 3), order="F")
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(0.5 * (out + out.conj().T))) > -1e-10

    # generator halves recombine exactly
    left, right = build_split_generators(model)
    assert np.max(np.abs((left + right) - liou)) < 1e-12

    # group inverse identities
    rho_ss = steady_state(liou)
    drazin = drazin_inverse(liou, rho_ss)
    proj = stationary_projector(rho_ss)
    eye = np.eye(liou.shape[0])
    assert np.max(np.abs(drazin @ liou - (eye - proj))) < 1e-8
    assert np.max(np.abs(drazin @ proj)) < 1e-10

    # first-passage outputs keep their ledgers and monotone survival
    jump_sol = solve_jump_fpt(thermal_qubit(1.0, 1.0, 0.2), threshold=3, horizon=8.0)
    g = jump_sol.result.survival
    absorbed = trapezoid(jump_sol.result.density, jump_sol.result.times)
    assert np.all(np.diff(g) <= 1e-12)
    assert abs(g[-1] + absorbed - 1.0) < 1e-6
    diff_sol = solve_diffusion_fpt(homodyne_qubit(1.0, 1.0), threshold=1.0, horizon=3.0)
    g = diff_sol.result.survival
    absorbed = trapezoid(diff_sol.result.density, diff_sol.result.times)
    assert np.all(np.diff(g) <= 1e-12)
    assert abs(g[-1] + absorbed - 1.0) < 1e-6

    # seeded trajectory reruns are bit identical
    for unravelling, m in (
        ("jump", thermal_qubit(1.0, 1.0, 0.2)),
        ("diffusion", homodyne_qubit(1.0, 1.0)),
    ):
        cfg = TrajectoryConfig(
            m, unravelling, 64, 2.0, dt=0.005, seed=7, threshold=1
        )
        a, b = simulate(cfg), simulate(cfg)
        assert np.array_equal(a.hit_times, b.hit_times, equal_nan=True)
        assert np.array_equal(a.final_states, b.final_states)

    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"criterion 11: PASS - property suite in {elapsed:.1f}s")
