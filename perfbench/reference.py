"""Independent numpy-only references for the benchmark's output checks.

Nothing here imports the package under test: the driven thermal qubit,
its charge-resolved absorbing generator and the laws the engines must
reproduce are rebuilt from Kronecker products and closed forms, so an
agreement between the two is evidence rather than bookkeeping.

Run ``python3 perfbench/reference.py`` for the self-tests (about a second).
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

# Exit through the open lower side of the reference window must stay below
# this, so that truncating the window changes no moment at checked precision.
LOWER_EXIT_TOLERANCE = 1e-13


def thermal_qubit_channels(gamma: float, omega: float, nbar: float):
    """Hamiltonian plus (operator, charge) pairs of the driven thermal qubit:
    emission at rate gamma (nbar + 1) counts +1, absorption at gamma nbar
    counts -1, drive omega * sigma_x in the rotating frame."""
    hamiltonian = omega * (SIGMA_MINUS + SIGMA_PLUS)
    channels = [(math.sqrt(gamma * (nbar + 1.0)) * SIGMA_MINUS, +1)]
    if nbar > 0:
        channels.append((math.sqrt(gamma * nbar) * SIGMA_PLUS, -1))
    return hamiltonian, channels


def _vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def _superops(hamiltonian, channels):
    """No-jump generator and per-channel jump superoperators on
    column-stacked states: vec(A rho B) = kron(B.T, A) vec(rho)."""
    d = hamiltonian.shape[0]
    eye = np.eye(d)
    heff = hamiltonian - 0.5j * sum(op.conj().T @ op for op, _ in channels)
    no_jump = -1j * (np.kron(eye, heff) - np.kron(heff.conj(), eye))
    jumps = [(np.kron(op.conj(), op), nu) for op, nu in channels]
    return no_jump, jumps


def steady_state(hamiltonian, channels) -> np.ndarray:
    """Trace-one kernel vector of the full Liouvillian, from its SVD."""
    no_jump, jumps = _superops(hamiltonian, channels)
    liouvillian = no_jump + sum(j for j, _ in jumps)
    _, svals, vh = np.linalg.svd(liouvillian)
    if svals[-2] < 1e-8 * svals[0]:
        raise ValueError("steady state is not unique")
    d = hamiltonian.shape[0]
    rho = vh[-1].conj().reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho)


def activity(gamma: float, omega: float, nbar: float) -> float:
    """Closed-form steady-state detection rate of the driven thermal qubit."""
    num = 2.0 * gamma * (2.0 * nbar + 1.0) * (gamma**2 * nbar * (nbar + 1.0) + 2.0 * omega**2)
    den = gamma**2 * (2.0 * nbar + 1.0) ** 2 + 8.0 * omega**2
    return num / den


def quantum_correction(gamma: float, omega: float, nbar: float) -> float:
    """Closed-form coherent loosening of the activity bound."""
    return 32.0 * omega**2 / (gamma**2 * (2.0 * nbar + 1.0) ** 2) * activity(gamma, omega, nbar)


def numeric_activity(gamma: float, omega: float, nbar: float) -> float:
    """Sum over channels of tr(L^dag L rho_ss), from the reference steady state."""
    hamiltonian, channels = thermal_qubit_channels(gamma, omega, nbar)
    rho = steady_state(hamiltonian, channels)
    return float(sum(np.trace(op.conj().T @ op @ rho).real for op, _ in channels))


def window_moments(gamma: float, omega: float, nbar: float, lower: int, upper: int):
    """Mean and variance of the time the thermal-qubit charge, started at 0
    from the steady state, first leaves the window [lower, upper], plus the
    probability that it leaves through the lower side.

    The phase-type formulas E[T] = -w A^-1 x0 and E[T^2] = 2 w A^-2 x0 on
    the absorbing block generator A built from Kronecker products.
    """
    hamiltonian, channels = thermal_qubit_channels(gamma, omega, nbar)
    d = hamiltonian.shape[0]
    ncells = upper - lower + 1
    no_jump, jumps = _superops(hamiltonian, channels)
    gen = np.kron(np.eye(ncells), no_jump)
    lower_flux = np.zeros(ncells * d * d, dtype=complex)
    for (op, nu), (jump, _) in zip(channels, jumps):
        # shift[i, j] = 1 when a click in cell j lands in cell i = j + nu
        gen = gen + np.kron(np.eye(ncells, k=-nu), jump)
        if nu < 0:
            gram_row = _vec((op.conj().T @ op).T)
            for cell in range(min(-nu, ncells)):
                lower_flux[cell * d * d : (cell + 1) * d * d] += gram_row
    x0 = np.zeros(ncells * d * d, dtype=complex)
    zero = -lower
    x0[zero * d * d : (zero + 1) * d * d] = _vec(steady_state(hamiltonian, channels))
    w = np.tile(_vec(np.eye(d)), ncells)
    y1 = np.linalg.solve(gen, x0)
    y2 = np.linalg.solve(gen, y1)
    mean = -float(np.real(w @ y1))
    second = 2.0 * float(np.real(w @ y2))
    lower_exit = -float(np.real(lower_flux @ y1))
    return mean, second - mean**2, lower_exit


def resolvent_moments(gamma: float, omega: float, nbar: float, threshold: int):
    """Exact mean and variance of the first time the thermal-qubit charge,
    started at 0 from the steady state, reaches ``threshold``; the open
    lower side is deepened until its exit probability is negligible."""
    depth = 16
    while True:
        mean, var, lower_exit = window_moments(gamma, omega, nbar, -depth, threshold - 1)
        if abs(lower_exit) < LOWER_EXIT_TOLERANCE:
            return mean, var
        if depth >= 4096:
            raise ValueError(f"lower exit {lower_exit:.3e} does not vanish")
        depth *= 2


def birth_death_moments(gamma: float, nbar: float, lower: int, upper: int):
    """Mean and variance of the exit time of the undriven qubit as a
    classical chain over (level, net count), started in thermal populations
    at count 0; jumps leaving [lower, upper] absorb."""
    up, down = gamma * (nbar + 1.0), gamma * nbar
    ncells = upper - lower + 1
    n = 2 * ncells
    gen = np.zeros((n, n))
    for cell in range(ncells):
        ground, excited = 2 * cell, 2 * cell + 1
        gen[excited, excited] -= up
        if cell + 1 < ncells:
            gen[2 * (cell + 1), excited] += up
        gen[ground, ground] -= down
        if cell > 0:
            gen[2 * (cell - 1) + 1, ground] += down
    z = 2.0 * nbar + 1.0
    x0 = np.zeros(n)
    x0[-2 * lower : -2 * lower + 2] = [(nbar + 1.0) / z, nbar / z]
    y1 = np.linalg.solve(gen, x0)
    mean = -float(np.sum(y1))
    second = 2.0 * float(np.sum(np.linalg.solve(gen, y1)))
    return mean, second - mean**2


def inverse_gaussian_density(barrier: float, drift: float, diffusion: float, times) -> np.ndarray:
    """Hit-time density of Brownian motion with the given drift and variance
    rate at a single barrier above its start."""
    t = np.asarray(times, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = barrier / np.sqrt(2.0 * np.pi * diffusion * tp**3) * np.exp(
        -((barrier - drift * tp) ** 2) / (2.0 * diffusion * tp)
    )
    return out


def kolmogorov_survival(x: float) -> float:
    """P(sqrt(n) D_n > x) in the large-n limit."""
    if x <= 0.0:
        return 1.0
    k = np.arange(1, 101)
    return float(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * x**2)))


def ks_critical_value(n: int, p: float) -> float:
    """KS distance exceeded with probability p for n samples: the inverse
    Kolmogorov law by bisection, with Stephens' finite-n scaling."""
    lo, hi = 0.2, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_survival(mid) > p:
            lo = mid
        else:
            hi = mid
    root_n = math.sqrt(n)
    return 0.5 * (lo + hi) / (root_n + 0.12 + 0.11 / root_n)


def ks_distance(times, density, hits) -> float:
    """KS distance between sampled hit times (NaN = censored, dropped) and a
    density series, both conditioned on absorption within the horizon."""
    t = np.asarray(times, dtype=float)
    f = np.asarray(density, dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))))
    cdf = cum / cum[-1]
    h = np.sort(np.asarray(hits, dtype=float))
    h = h[np.isfinite(h)]
    at = np.interp(h, t, cdf)
    n = h.size
    return float(max(np.max(np.arange(1, n + 1) / n - at), np.max(at - np.arange(n) / n)))


def self_test() -> None:
    # without drive the resolvent is the classical chain; the undriven
    # charge only alternates between two values, so only the one-cell
    # window is left with certainty
    for nbar in (0.1, 0.5, 1.0):
        mean, var, _ = window_moments(1.0, 0.0, nbar, 0, 0)
        chain_mean, chain_var = birth_death_moments(1.0, nbar, 0, 0)
        assert abs(mean - chain_mean) < 1e-10 * chain_mean, (nbar, mean, chain_mean)
        assert abs(var - chain_var) < 1e-10 * chain_var, (nbar, var, chain_var)
    # a farther threshold takes longer to reach
    m3, _ = resolvent_moments(1.0, 1.0, 0.2, 3)
    m6, _ = resolvent_moments(1.0, 1.0, 0.2, 6)
    assert m6 > m3 > 0
    # closed-form activity against the reference steady state
    for gamma, omega, nbar in ((1.0, 1.0, 0.2), (0.5, 2.0, 1.0), (2.0, 0.3, 0.1)):
        exact = activity(gamma, omega, nbar)
        assert abs(numeric_activity(gamma, omega, nbar) - exact) < 1e-10 * exact
    # inverse-Gaussian law: unit mass and mean barrier / drift
    t = np.linspace(0.0, 60.0, 600_001)
    f = inverse_gaussian_density(1.0, 1.0, 1.0, t)
    mass = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(t)))
    g = t * f
    mean = float(np.sum(0.5 * (g[1:] + g[:-1]) * np.diff(t)))
    assert abs(mass - 1.0) < 1e-8 and abs(mean - 1.0) < 1e-8, (mass, mean)
    # tabulated asymptotic Kolmogorov quantiles
    for p, c in ((0.05, 1.35810), (0.01, 1.62762), (0.001, 1.94947)):
        big = 10**12
        assert abs(ks_critical_value(big, p) * math.sqrt(big) - c) < 2e-5, p
    # an exact sample of a uniform law sits at distance 1/n
    n = 500
    u = (np.arange(n) + 0.5) / n
    assert abs(ks_distance([0.0, 1.0], [1.0, 1.0], u) - 0.5 / n) < 1e-12


if __name__ == "__main__":
    self_test()
    print("reference self-test: ok")
