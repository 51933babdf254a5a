"""Independent reference implementations used to pin expected values.

Everything here is built directly on numpy/scipy primitives without
importing the package under test, so agreement between the two is
meaningful evidence rather than circular bookkeeping.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm


def exponential_density(gamma: float, times: np.ndarray) -> np.ndarray:
    """Hit-time density of a single decay at rate gamma."""
    t = np.asarray(times, dtype=float)
    return gamma * np.exp(-gamma * t)


def wiener_fpt_density(barrier: float, times: np.ndarray) -> np.ndarray:
    """Level-crossing density of a driftless unit-diffusion Wiener path."""
    t = np.asarray(times, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = barrier / np.sqrt(2.0 * np.pi * tp**3) * np.exp(
        -(barrier**2) / (2.0 * tp)
    )
    return out


def inverse_gaussian_density(
    barrier: float, drift: float, diffusion: float, times: np.ndarray
) -> np.ndarray:
    """Hit-time density of drifted Brownian motion at a single barrier."""
    t = np.asarray(times, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = barrier / np.sqrt(2.0 * np.pi * diffusion * tp**3) * np.exp(
        -((barrier - drift * tp) ** 2) / (2.0 * diffusion * tp)
    )
    return out


class BirthDeathChain:
    """Two-level classical birth-death chain resolved by net charge.

    With no drive the populations decouple from the coherences and the
    monitored qubit reduces to a Markov chain over (level, net count):
    emission (excited -> ground) at rate ``gamma * (nbar + 1)`` raises the
    count, absorption (ground -> excited) at rate ``gamma * nbar`` lowers
    it.  Counts live on the inclusive window [lower, upper]; transitions
    leaving the window are absorbing and feed the hit-time density.
    """

    def __init__(self, gamma: float, nbar: float, lower: int, upper: int):
        if not lower <= 0 <= upper:
            raise ValueError("window must contain 0")
        self.gamma = float(gamma)
        self.nbar = float(nbar)
        self.lower = int(lower)
        self.upper = int(upper)
        self.ncells = self.upper - self.lower + 1
        up_rate = self.gamma * (self.nbar + 1.0)
        down_rate = self.gamma * self.nbar
        n = 2 * self.ncells
        gen = np.zeros((n, n))
        flux = np.zeros(n)
        for cell in range(self.ncells):
            ground = 2 * cell
            excited = 2 * cell + 1
            gen[excited, excited] -= up_rate
            if cell + 1 < self.ncells:
                gen[2 * (cell + 1), excited] += up_rate
            else:
                flux[excited] += up_rate
            gen[ground, ground] -= down_rate
            if cell - 1 >= 0:
                gen[2 * (cell - 1) + 1, ground] += down_rate
            else:
                flux[ground] += down_rate
        self.generator = gen
        self.upper_flux = flux * (flux > 0)
        # flux through the upper edge only, for single-threshold runs
        self.upper_edge_flux = np.zeros(n)
        self.upper_edge_flux[2 * (self.ncells - 1) + 1] = up_rate

    def thermal_populations(self) -> np.ndarray:
        z = 2.0 * self.nbar + 1.0
        return np.array([(self.nbar + 1.0) / z, self.nbar / z])

    def initial_vector(self, populations: np.ndarray | None = None) -> np.ndarray:
        pops = (
            self.thermal_populations() if populations is None else np.asarray(populations)
        )
        vec = np.zeros(2 * self.ncells)
        cell = -self.lower
        vec[2 * cell : 2 * cell + 2] = pops
        return vec

    def run(self, times: np.ndarray, populations: np.ndarray | None = None):
        """Propagate on a uniform grid; density, survival, cell marginals."""
        times = np.asarray(times, dtype=float)
        dt = times[1] - times[0]
        step = expm(self.generator * dt)
        vec = self.initial_vector(populations)
        density = np.empty(times.size)
        surv = np.empty(times.size)
        cells = np.empty((times.size, self.ncells))
        for i in range(times.size):
            if i > 0:
                vec = step @ vec
            density[i] = float(self.upper_edge_flux @ vec)
            surv[i] = float(vec.sum())
            cells[i] = vec.reshape(self.ncells, 2).sum(axis=1)
        return density, surv, cells

    def moments(self, populations: np.ndarray | None = None):
        """Probability of leaving through the upper edge, and the mean and
        variance of the hit time conditioned on it.

        Phase-type formulas on ``upper_edge_flux`` u: P = -u A^-1 x0,
        E[T; up] = u A^-2 x0 and E[T^2; up] = -2 u A^-3 x0.  A generator
        that traps weight forever is singular and raises LinAlgError.
        """
        gen = self.generator
        if np.linalg.matrix_rank(gen) < gen.shape[0]:
            raise np.linalg.LinAlgError("the chain traps weight forever")
        y1 = np.linalg.solve(gen, self.initial_vector(populations))
        y2 = np.linalg.solve(gen, y1)
        y3 = np.linalg.solve(gen, y2)
        u = self.upper_edge_flux
        prob = -float(u @ y1)
        mean = float(u @ y2) / prob
        second = -2.0 * float(u @ y3) / prob
        return prob, mean, second - mean**2
