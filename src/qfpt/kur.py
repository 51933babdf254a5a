"""Kinetic uncertainty bounds on first-passage signal-to-noise ratios.

For a stationary monitored process the squared mean hit time over its
variance is bounded by the mean hit time times the dynamical activity; a
coherent drive loosens the bound by an additive correction computed from
the group inverse of the generator.  Both bounds are evaluated per scan
point together with the exact first-passage moments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError, QfptError
from .jumps import integer_threshold, passage_moments
from .models import thermal_qubit
from .operators import (
    LindbladModel,
    build_liouvillian,
    build_split_generators,
    drazin_inverse,
    steady_state,
    trace_functional,
    vectorize,
)

logger = logging.getLogger(__name__)

IMAG_RESIDUE_TOL = 1e-9
QUANTUM_SLACK = 1e-6


@dataclass(frozen=True)
class KurReport:
    """Bounds, moments and violation flags at one scan point."""

    omega: float
    gamma: float
    nbar: float
    activity: float
    quantum_correction: float
    mean_fpt: float
    var_fpt: float
    snr: float
    classical_bound: float
    quantum_bound: float
    classical_violated: bool
    quantum_violated: bool
    absorbed_probability: float
    status: str = "ok"

    @classmethod
    def failed(cls, omega: float, gamma: float, nbar: float, reason: str) -> "KurReport":
        nan = float("nan")
        return cls(
            omega, gamma, nbar, nan, nan, nan, nan, nan, nan, nan,
            False, False, nan, status=f"failed: {reason}",
        )


def dynamical_activity(model: LindbladModel) -> float:
    """Total detection rate of the monitored channels in the steady state."""
    model.require_channels()
    rho_ss = steady_state(build_liouvillian(model))
    total = 0.0
    for ch in model.monitored:
        gram = ch.operator.conj().T @ ch.operator
        total += float(np.real(np.trace(gram @ rho_ss)))
    return total


def quantum_correction(model: LindbladModel) -> float:
    """Coherent loosening of the activity bound.

    Contracts the two one-sided halves of the generator through the group
    inverse against the steady state.  The imaginary residue must stay
    below 1e-9; it is dropped after the check.
    """
    gen = build_liouvillian(model)
    rho_ss = steady_state(gen)
    drazin = drazin_inverse(gen, rho_ss)
    s_left, s_right = build_split_generators(model)
    if np.max(np.abs((s_left + s_right) - gen)) > 1e-12:
        raise PhysicsError("generator halves do not sum to the full generator")
    v = vectorize(rho_ss)
    w = trace_functional(model.dim)
    value = -4.0 * (w @ (s_left @ (drazin @ (s_right @ v)))) - 4.0 * (
        w @ (s_right @ (drazin @ (s_left @ v)))
    )
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise PhysicsError(
            f"quantum correction has imaginary residue {value.imag:.3e}"
        )
    if abs(value.imag) > 0:
        logger.debug("dropping quantum-correction imaginary residue %.3e", value.imag)
    return float(value.real)


def qubit_activity(gamma: float, omega: float, nbar: float) -> float:
    """Closed-form steady-state activity of the driven thermal qubit."""
    num = 2.0 * gamma * (2.0 * nbar + 1.0) * (
        gamma**2 * nbar * (nbar + 1.0) + 2.0 * omega**2
    )
    den = gamma**2 * (2.0 * nbar + 1.0) ** 2 + 8.0 * omega**2
    return num / den


def qubit_quantum_correction(gamma: float, omega: float, nbar: float) -> float:
    """Closed-form coherent correction of the driven thermal qubit."""
    return (
        32.0 * omega**2 / (gamma**2 * (2.0 * nbar + 1.0) ** 2)
    ) * qubit_activity(gamma, omega, nbar)


def kur_point(model: LindbladModel, *, threshold: int) -> dict:
    """Bounds and exact FPT moments for one model.

    The moments are those of the first time the charge, started in the
    steady state with the lower side open, reaches ``threshold``; see
    ``jumps.passage_moments``.  Their ``absorbed_probability`` is the
    probability of reaching the threshold.
    """
    activity = dynamical_activity(model)
    correction = quantum_correction(model)
    moments = passage_moments(model, threshold)
    snr = moments.snr
    classical_bound = moments.mean * activity
    quantum_bound = moments.mean * (activity + correction)
    return {
        "activity": activity,
        "quantum_correction": correction,
        "moments": moments,
        "snr": snr,
        "classical_bound": classical_bound,
        "quantum_bound": quantum_bound,
        "classical_violated": snr > classical_bound,
        "quantum_violated": snr > quantum_bound + QUANTUM_SLACK,
    }


def _scan_one(omega: float, gamma: float, nbar: float, threshold: int) -> KurReport:
    try:
        point = kur_point(thermal_qubit(gamma, omega, nbar), threshold=threshold)
    except (QfptError, ValueError) as exc:
        logger.warning("scan point omega=%g failed: %s", omega, exc)
        return KurReport.failed(omega, gamma, nbar, str(exc))
    m = point.pop("moments")
    return KurReport(
        omega, gamma, nbar, mean_fpt=m.mean, var_fpt=m.variance,
        absorbed_probability=m.absorbed_probability, **point,
    )


def kur_scan(
    omegas,
    *,
    gamma: float = 1.0,
    nbar: float = 0.0,
    threshold: int = 5,
) -> list[KurReport]:
    """Scan the driven thermal qubit over a grid of drive amplitudes.

    A threshold that is not a positive integer is refused before any
    point runs.  Points whose moments do not exist or fail to converge are
    marked failed and the scan continues.  Results come in grid order.
    """
    threshold = integer_threshold(threshold, +1)
    return [
        _scan_one(float(o), float(gamma), float(nbar), threshold)
        for o in np.asarray(omegas, dtype=float)
    ]
