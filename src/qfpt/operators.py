"""Operator and superoperator algebra for Lindblad models.

Column-stacking convention throughout: ``vectorize`` stacks the columns of a
matrix, so ``vec(A @ rho @ B) == np.kron(B.T, A) @ vec(rho)``.  Every builder
in this module returns a dense ``(d*d, d*d)`` complex array acting on such
vectorized states.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateKernelError, ModelError

logger = logging.getLogger(__name__)

HERMITICITY_TOL = 1e-12
KERNEL_RTOL = 1e-9
DRAZIN_RESIDUAL_TOL = 1e-9
STATE_HERMITICITY_TOL = 1e-10
STATE_POSITIVITY_TOL = 1e-9
STATE_TRACE_TOL = 1e-9


def _as_complex_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ModelError(f"{name} contains non-finite entries")
    return arr


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def wrap_phase(phase: float) -> float:
    """Map an angle to the interval (-pi, pi]."""
    p = math.fmod(float(phase), 2.0 * math.pi)
    if p <= -math.pi:
        p += 2.0 * math.pi
    elif p > math.pi:
        p -= 2.0 * math.pi
    return p


@dataclass(frozen=True)
class JumpChannel:
    """One monitored (or silent) dissipation channel.

    Parameters
    ----------
    operator : array_like
        The (d, d) channel operator.
    weight : float
        Charge carried by one detection event.  The jump engine requires a
        nonzero integer; the diffusion engine accepts any nonzero real.
    phase : float
        Detection phase, wrapped into (-pi, pi].
    monitored : bool
        Silent channels contribute to the dynamics but not to the charge.
    """

    operator: np.ndarray
    weight: float = 1.0
    phase: float = 0.0
    monitored: bool = True

    def __post_init__(self):
        op = _as_complex_matrix(self.operator, "channel operator")
        object.__setattr__(self, "operator", _frozen_copy(op))
        w = float(self.weight)
        if not math.isfinite(w):
            raise ModelError("channel weight must be finite")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "phase", wrap_phase(self.phase))
        if self.monitored and w == 0.0:
            raise ModelError("monitored channel must carry a nonzero weight")

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    def rotated_operator(self) -> np.ndarray:
        """Operator dressed by the detection phase, L * exp(-i * phase)."""
        return self.operator * np.exp(-1j * self.phase)


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus a set of jump channels on a d-dimensional system."""

    hamiltonian: np.ndarray
    channels: tuple[JumpChannel, ...] = ()

    def __post_init__(self):
        h = _as_complex_matrix(self.hamiltonian, "hamiltonian")
        defect = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
        if defect > HERMITICITY_TOL:
            raise ModelError(
                f"hamiltonian is not Hermitian: max |H - H^dag| = {defect:.3e}"
            )
        object.__setattr__(self, "hamiltonian", _frozen_copy(h))
        chans = tuple(self.channels)
        for ch in chans:
            if not isinstance(ch, JumpChannel):
                raise ModelError("channels must be JumpChannel instances")
            if ch.dim != h.shape[0]:
                raise ModelError(
                    f"channel dimension {ch.dim} does not match dim {h.shape[0]}"
                )
        object.__setattr__(self, "channels", chans)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def monitored(self) -> tuple[JumpChannel, ...]:
        return tuple(ch for ch in self.channels if ch.monitored)

    @property
    def silent(self) -> tuple[JumpChannel, ...]:
        return tuple(ch for ch in self.channels if not ch.monitored)

    def require_channels(self) -> None:
        if not self.channels:
            raise ModelError("operation requires at least one jump channel")

    def rate_scale(self) -> float:
        """Largest rate in the model, used for default step sizes."""
        scale = float(np.linalg.norm(self.hamiltonian, 2)) if self.dim else 0.0
        for ch in self.channels:
            scale = max(scale, float(np.linalg.norm(ch.operator, 2)) ** 2)
        return scale


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into a vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvectorize(vec: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    d = int(round(math.isqrt(v.size))) if dim is None else int(dim)
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((d, d), order="F")


def left_multiplier(a: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> A @ rho."""
    a = np.asarray(a, dtype=complex)
    return np.kron(np.eye(a.shape[0]), a)


def right_multiplier(b: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> rho @ B."""
    b = np.asarray(b, dtype=complex)
    return np.kron(b.T, np.eye(b.shape[0]))


def sandwich(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Superoperator for rho -> A @ rho @ B^dag.  Defaults to B = A."""
    a = np.asarray(a, dtype=complex)
    b = a if b is None else np.asarray(b, dtype=complex)
    return np.kron(b.conj(), a)


def trace_functional(dim: int) -> np.ndarray:
    """Row vector w such that w @ vec(rho) == trace(rho)."""
    return vectorize(np.eye(dim))


def dissipator(operator: np.ndarray) -> np.ndarray:
    """Superoperator for the single-channel dissipator
    rho -> L rho L^dag - (L^dag L rho + rho L^dag L) / 2.
    """
    op = np.asarray(operator, dtype=complex)
    gram = op.conj().T @ op
    return sandwich(op) - 0.5 * (left_multiplier(gram) + right_multiplier(gram))


def build_liouvillian(model: LindbladModel) -> np.ndarray:
    """Full generator of the unconditional master equation."""
    h = model.hamiltonian
    gen = -1j * (left_multiplier(h) - right_multiplier(h))
    for ch in model.channels:
        gen += dissipator(ch.operator)
    return gen


def effective_hamiltonian(model: LindbladModel) -> np.ndarray:
    """Non-Hermitian drift Hamiltonian H - (i/2) sum_k L_k^dag L_k."""
    heff = model.hamiltonian.astype(complex).copy()
    for ch in model.channels:
        heff -= 0.5j * (ch.operator.conj().T @ ch.operator)
    return heff


def build_no_jump(model: LindbladModel) -> np.ndarray:
    """Between-jump part of the generator,
    rho -> -i (H_eff rho - rho H_eff^dag)."""
    heff = effective_hamiltonian(model)
    return -1j * (left_multiplier(heff) - right_multiplier(heff.conj().T))


def build_jump_super(channel: JumpChannel) -> np.ndarray:
    """Sharp jump superoperator rho -> L rho L^dag for one channel."""
    return sandwich(channel.operator)


@dataclass(frozen=True)
class DriftSuperoperator:
    """Operator-valued drift and scalar diffusion of the charge equation."""

    matrix: np.ndarray
    diffusion: float


def build_drift_superoperator(model: LindbladModel) -> DriftSuperoperator:
    """Weighted sum of (A rho + rho A') over monitored channels, with the
    squared weights accumulating into the scalar diffusion constant."""
    model.require_channels()
    if not model.monitored:
        raise ModelError("diffusive monitoring needs at least one monitored channel")
    d = model.dim
    kmat = np.zeros((d * d, d * d), dtype=complex)
    kdiff = 0.0
    for ch in model.monitored:
        a = ch.rotated_operator()
        kmat += ch.weight * (left_multiplier(a) + right_multiplier(a.conj().T))
        kdiff += ch.weight**2
    kmat.setflags(write=False)
    return DriftSuperoperator(kmat, float(kdiff))


def build_split_generators(model: LindbladModel) -> tuple[np.ndarray, np.ndarray]:
    """Split the Liouvillian into its left-acting and right-acting halves.

    The first half collects every term that multiplies the state from the
    left (plus the shared sandwich term at half strength); the second half
    collects the right-acting terms.  Their sum is the full generator, and
    the pair enters the coherent correction to the activity bound.
    """
    h = model.hamiltonian
    left = -1j * left_multiplier(h)
    right = 1j * right_multiplier(h)
    for ch in model.channels:
        gram = ch.operator.conj().T @ ch.operator
        shared = 0.5 * sandwich(ch.operator)
        left += shared - 0.5 * left_multiplier(gram)
        right += shared - 0.5 * right_multiplier(gram)
    return left, right


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, positivity and unit trace.

    Returns the validated array as a fresh complex copy.
    """
    arr = _as_complex_matrix(rho, "density matrix")
    herm_defect = np.max(np.abs(arr - arr.conj().T)) if arr.size else 0.0
    if herm_defect > STATE_HERMITICITY_TOL:
        raise ModelError(f"density matrix not Hermitian: defect {herm_defect:.3e}")
    eigs = np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))
    if eigs.size and eigs[0] < -STATE_POSITIVITY_TOL:
        raise ModelError(f"density matrix not positive: min eigenvalue {eigs[0]:.3e}")
    tr = float(arr.trace().real)
    if abs(tr - 1.0) > STATE_TRACE_TOL:
        raise ModelError(f"density matrix trace {tr!r} differs from 1")
    return arr


def steady_state(liouvillian: np.ndarray) -> np.ndarray:
    """Unique trace-one fixed point of a generator.

    The kernel is extracted from an SVD of the generator; a kernel dimension
    other than one raises :class:`DegenerateKernelError`.
    """
    gen = np.asarray(liouvillian, dtype=complex)
    n = gen.shape[0]
    d = int(round(math.isqrt(n)))
    if d * d != n:
        raise ValueError("generator size is not a perfect square")
    _, svals, vh = np.linalg.svd(gen)
    cutoff = max(KERNEL_RTOL * (svals[0] if svals.size else 0.0), n * np.finfo(float).eps)
    kernel_dim = int(np.count_nonzero(svals <= cutoff))
    if kernel_dim != 1:
        raise DegenerateKernelError(
            f"generator kernel has dimension {kernel_dim}, expected 1 "
            f"(singular values {svals[-max(kernel_dim, 2):]})"
        )
    rho = unvectorize(vh[-1].conj(), d)
    rho = 0.5 * (rho + rho.conj().T)
    tr = rho.trace()
    if abs(tr) < 1e-14:
        raise DegenerateKernelError("kernel vector is traceless; no physical fixed point")
    rho = rho / tr
    return rho


def stationary_projector(rho_ss: np.ndarray) -> np.ndarray:
    """Spectral projector x -> rho_ss * trace(x) in vectorized form."""
    d = rho_ss.shape[0]
    return np.outer(vectorize(rho_ss), trace_functional(d))


def drazin_inverse(
    liouvillian: np.ndarray,
    rho_ss: np.ndarray | None = None,
) -> np.ndarray:
    """Group inverse of a generator with a simple zero eigenvalue.

    Solves on the complement of the kernel/cokernel pair: with the projector
    P x = rho_ss tr(x), the inverse is (L + P)^{-1} (1 - P).  The defining
    identities are verified and a failure reports the condition number.
    """
    gen = np.asarray(liouvillian, dtype=complex)
    if rho_ss is None:
        rho_ss = steady_state(gen)
    proj = stationary_projector(rho_ss)
    comp = np.eye(gen.shape[0]) - proj
    try:
        inv = np.linalg.solve(gen + proj, comp)
    except np.linalg.LinAlgError as exc:
        raise DegenerateKernelError(f"shifted generator is singular: {exc}") from exc
    residual = max(
        np.max(np.abs(gen @ inv - comp)),
        np.max(np.abs(inv @ gen - comp)),
        np.max(np.abs(inv @ vectorize(rho_ss))),
    )
    if residual > DRAZIN_RESIDUAL_TOL:
        cond = np.linalg.cond(gen + proj)
        raise DegenerateKernelError(
            f"group-inverse identities violated: residual {residual:.3e}, "
            f"condition number of shifted generator {cond:.3e}"
        )
    return inv


def current_cumulants(model: LindbladModel, unravelling: str) -> tuple[float, float]:
    """Mean current J and noise D of the monitored charge in the steady
    state, so that E[N_t] ~ J t and Var[N_t] ~ D t at long times.

    They are the first two cumulants of the tilted generator:
    J = tr(J1 rho) and D = tr(J2 rho) - 2 tr(J1 L^D J1 rho), with rho the
    steady state and L^D the Drazin inverse of the Liouvillian.  For the
    ``"jump"`` unravelling J1 and J2 sum the monitored channels' jump
    superoperators weighted by their charge and its square; for
    ``"diffusion"`` J1 is the drift superoperator and tr(J2 rho) its
    scalar diffusion.  A steady state that is not unique raises
    :class:`DegenerateKernelError`.
    """
    liou = build_liouvillian(model)
    rho_ss = steady_state(liou)
    rho = vectorize(rho_ss)
    tr = trace_functional(model.dim)
    if unravelling == "jump":
        jumps = [(ch.weight, build_jump_super(ch)) for ch in model.monitored]
        first = sum((w * s for w, s in jumps), np.zeros_like(liou))
        second = sum(w * w * (tr @ s @ rho) for w, s in jumps)
    elif unravelling == "diffusion":
        drift = build_drift_superoperator(model)
        first, second = drift.matrix, drift.diffusion
    else:
        raise ConfigError(f"unknown unravelling {unravelling!r}")
    current = first @ rho
    noise = second - 2.0 * tr @ first @ drazin_inverse(liou, rho_ss) @ current
    return float((tr @ current).real), float(noise.real)
