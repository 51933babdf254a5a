"""Independent reference implementations used to pin expected values.

Every reference is built directly on numpy/scipy primitives without
importing the package under test, so agreement between the two is
meaningful evidence rather than circular bookkeeping; ``laplace_series``
reads its generator from an engine, but steps no time.  ``cell_traces`` is
no reference: it replays a jump solve through the package's own
propagator to read the per-cell traces that the solve does not observe.
``rotate``, ``mirror``, ``split``, ``silent_zero`` and ``scale_weights``
are no references either: they transform a model into one whose
first-passage statistics are known to be the same, or known to map
exactly, so a solve of each checks the engines against themselves.
``tilted_generator`` builds its superoperators from the model's
operators alone; ``generating_function`` reads an engine's state.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import expm

from qfpt.jumps import build_block_generator
from qfpt.operators import JumpChannel, LindbladModel, trace_functional
from qfpt.propagation import BlockState, initial_density, propagate_uniform


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


def diffusive_trajectories(model, rho0, ntraj, nsteps, dt, seed, upper, lower, block=256):
    """Diffusive trajectories stepped one at a time with plain matrix
    products: hit times (nan when censored), final charges and final
    states.

    A step applies K = 1 - dt (i H + G/2) + sum_k dy_k A_k, with A_k the
    monitored operators times exp(-i phase_k), G the sum of L^dag L over
    all channels and dy_k = 2 Re tr(A_k rho) dt + sqrt(dt) w_k; the state
    becomes the Hermitian part of K rho K^dag + dt sum_silent L rho L^dag
    over its trace, and the charge grows by sum_k weight_k dy_k.  A
    crossing is stamped by linear interpolation inside its step.
    Trajectory k draws its normals w from ``SeedSequence(seed,
    spawn_key=(k,))``, ``block`` steps at a time while it runs.
    """
    monitored = [ch for ch in model.channels if ch.monitored]
    a_ops = [ch.operator * np.exp(-1j * ch.phase) for ch in monitored]
    weights = np.array([ch.weight for ch in monitored])
    silent = [ch.operator for ch in model.channels if not ch.monitored]
    gram = sum(ch.operator.conj().T @ ch.operator for ch in model.channels)
    stem = np.eye(rho0.shape[0]) - dt * (1j * model.hamiltonian + 0.5 * gram)
    hit = np.full(ntraj, np.nan)
    states = np.empty((ntraj, *rho0.shape), dtype=complex)
    charges = np.zeros(ntraj)
    for k in range(ntraj):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        rho, charge = np.array(rho0, dtype=complex), 0.0
        for step in range(nsteps):
            if step % block == 0:
                noise = rng.standard_normal((min(block, nsteps - step), len(a_ops)))
            x = np.array([2.0 * np.trace(a @ rho).real for a in a_ops])
            dy = x * dt + np.sqrt(dt) * noise[step % block]
            kraus = stem + sum(y * a for y, a in zip(dy, a_ops))
            new = kraus @ rho @ kraus.conj().T
            for op in silent:
                new = new + dt * (op @ rho @ op.conj().T)
            new = 0.5 * (new + new.conj().T)
            rho = new / np.trace(new).real
            if np.linalg.eigvalsh(rho)[0] < -1e-10:
                raise ValueError("reference state lost positivity")
            old, charge = charge, charge + float(dy @ weights)
            if charge >= upper or charge <= lower:
                target = upper if charge >= upper else lower
                frac = min(max((target - old) / (charge - old), 0.0), 1.0)
                hit[k] = (step + frac) * dt
                break
        states[k] = rho
        charges[k] = charge
    return hit, charges, states


def cell_traces(model, sol, initial="steady") -> np.ndarray:
    """Per-cell traces of a jump solve at each of its grid points, shape
    (points, cells): the solve's generator on its final window, propagated
    from ``initial`` over its time grid with one trace row per cell."""
    window = sol.domain
    gen = build_block_generator(model, window)
    rows = scipy.sparse.kron(
        scipy.sparse.identity(window.ncells, format="csr"),
        trace_functional(gen.dim)[None, :],
        format="csr",
    )
    x0 = BlockState.initial(window, initial_density(model, initial)).data
    times = sol.result.times
    out = np.empty((times.size, window.ncells))
    for start, chunk, _ in propagate_uniform(gen.matrix, x0, times, rows=rows):
        out[start : start + chunk.shape[0]] = chunk
    return out


def laplace_series(generator, x0, times, terms=16) -> np.ndarray:
    """Survival G(t) = w exp(tA) x0 and first-passage density
    f(t) = u exp(tA) x0 of a ``BlockGenerator`` at each t > 0 of ``times``,
    shape (len(times), 2), with no time step.

    The Euler algorithm of Abate and Whitt (INFORMS J. Comput. 18, 408,
    2006) inverts their Laplace transforms w (sI - A)^-1 x0 and
    u (sI - A)^-1 x0: with M = ``terms``, g(t) = (1/t) sum_k eta_k
    Re F(beta_k / t) over k = 0..2M, beta_k = M ln(10)/3 + i pi k and
    eta_k = 10^(M/3) (-1)^k xi_k, where xi_0 = 1/2, xi_k = 1 for k <= M,
    xi_2M = 2^-M and xi_(2M-k) = xi_(2M-k+1) + 2^-M C(M, k) for 0 < k < M.
    Each of the 2M + 1 complex sparse LUs per time serves both G and f.
    """
    m = terms
    xi = np.ones(2 * m + 1)
    xi[0], xi[2 * m] = 0.5, 2.0**-m
    for k in range(1, m):
        xi[2 * m - k] = xi[2 * m - k + 1] + 2.0**-m * math.comb(m, k)
    k = np.arange(2 * m + 1)
    eta = 10.0 ** (m / 3) * (-1.0) ** k * xi
    beta = m * math.log(10.0) / 3 + 1j * math.pi * k
    matrix = scipy.sparse.csc_matrix(generator.matrix, dtype=complex)
    ident = scipy.sparse.identity(matrix.shape[0], format="csc", dtype=complex)
    rows = np.vstack([generator.survival_vector, generator.flux_vector])
    x0 = np.asarray(x0, dtype=complex)
    out = np.empty((len(times), 2))
    for i, t in enumerate(times):
        total = np.zeros(2)
        for b, e in zip(beta, eta):
            # the natural order keeps the factors of a cell-major generator
            # inside its band
            lu = scipy.sparse.linalg.splu(b / t * ident - matrix, permc_spec="NATURAL")
            total += e * np.real(rows @ lu.solve(x0))
        out[i] = total / t
    return out


def rotate(model, u):
    """The model in another basis: H -> U H U^dag and L -> U L U^dag for
    every channel, keeping weights, phases and monitoring.  Every charge
    statistic is unchanged when the initial state is rotated alike (the
    steady state rotates by itself)."""
    ud = u.conj().T
    return LindbladModel(
        u @ model.hamiltonian @ ud,
        tuple(dataclasses.replace(ch, operator=u @ ch.operator @ ud) for ch in model.channels),
    )


def mirror(model):
    """The model with every channel weight negated: its charge is the
    negative of the original's, so an upper threshold c becomes a lower
    threshold -c and the other way round."""
    return LindbladModel(
        model.hamiltonian,
        tuple(dataclasses.replace(ch, weight=-ch.weight) for ch in model.channels),
    )


def silent_zero(model):
    """The model with an unmonitored zero channel appended: it adds nothing
    to the generator and counts nothing, so every charge statistic is
    unchanged."""
    dim = model.dim
    return LindbladModel(
        model.hamiltonian,
        (*model.channels, JumpChannel(np.zeros((dim, dim)), monitored=False)),
    )


def scale_weights(model, c):
    """The model with every channel weight multiplied by ``c``: its charge
    is c times the original's, so a diffusion grid scaled by c, bounds and
    spacing alike, has the same first-passage series, and its charge
    density maps nodes x to c x and density p to p / c."""
    return LindbladModel(
        model.hamiltonian,
        tuple(dataclasses.replace(ch, weight=c * ch.weight) for ch in model.channels),
    )


def split(model):
    """The model with every channel L replaced by two copies of L/sqrt(2)
    of the same weight, phase and monitoring: the copies' jumps sum to the
    original one, so every charge statistic is unchanged."""
    return LindbladModel(
        model.hamiltonian,
        tuple(
            dataclasses.replace(ch, operator=ch.operator / np.sqrt(2.0))
            for ch in model.channels
            for _ in range(2)
        ),
    )


def tilted_generator(model, theta: float, delta: float | None = None) -> np.ndarray:
    """The Liouvillian tilted by the counting field ``theta``, on the
    row-major vec(rho), such that tr[exp(t L_theta) rho0] is the generating
    function E[exp(theta Q_t)] of the charge Q counted from 0 up to t.

    For jumps (``delta`` None) each monitored jump L rho L^dag of weight nu
    gains exp(theta nu).  For the central-difference diffusion grid of
    spacing ``delta`` it is the lattice symbol
    L + K sinh(theta delta) / delta + D (cosh(theta delta) - 1) / delta^2
    of its drift K rho = sum_k w_k (A_k rho + rho A_k^dag), with
    A_k = L_k exp(-i phi_k), and diffusion D = sum_k w_k^2 over the
    monitored channels: exact at any spacing, as long as no weight
    reaches the grid's edges.
    """
    eye = np.eye(model.dim)

    def sup(a, b):
        # vec(a rho b) for the row-major vec
        return np.kron(a, b.T)

    h = model.hamiltonian
    out = -1j * (sup(h, eye) - sup(eye, h))
    for ch in model.channels:
        gram = ch.operator.conj().T @ ch.operator
        tilt = math.exp(theta * ch.weight) if ch.monitored and delta is None else 1.0
        out = out + tilt * sup(ch.operator, ch.operator.conj().T)
        out = out - 0.5 * (sup(gram, eye) + sup(eye, gram))
    if delta is not None:
        monitored = [ch for ch in model.channels if ch.monitored]
        rotated = [ch.operator * np.exp(-1j * ch.phase) for ch in monitored]
        drift = sum(
            ch.weight * (sup(a, eye) + sup(eye, a.conj().T)) for ch, a in zip(monitored, rotated)
        )
        diffusion = sum(ch.weight**2 for ch in monitored)
        out = out + drift * (math.sinh(theta * delta) / delta)
        out = out + (diffusion * (math.cosh(theta * delta) - 1.0) / delta**2) * np.eye(out.shape[0])
    return out


def generating_function(state, theta: float) -> float:
    """sum_i w_i exp(theta q_i) tr rho_i of a charge-resolved ``BlockState``:
    its cells' charges q_i = lower + i c for the charge c per cell, and
    the trace weights w_i of its window or grid."""
    domain = state.domain
    charges = domain.lower + domain.cell_width * np.arange(domain.ncells)
    return float(domain.trace_weights @ (np.exp(theta * charges) * state.traces()))
