"""Built-in models and the on-disk model format.

A model file is JSON with three top-level keys:

``dim``
    Hilbert-space dimension d (positive integer).
``hamiltonian``
    Row-major flat list of d*d entries, each a ``[re, im]`` pair.
``channels``
    List of objects with keys ``operator`` (same encoding as the
    Hamiltonian), ``weight`` (charge per detection event), ``phase``
    (radians, optional, default 0) and ``monitored`` (optional, default
    true).

Unknown keys anywhere in the file are rejected.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .operators import JumpChannel, LindbladModel, positive_finite

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_X = SIGMA_MINUS + SIGMA_PLUS


def thermal_qubit(gamma: float, omega: float, nbar: float) -> LindbladModel:
    """Coherently driven qubit exchanging excitations with a thermal bath.

    Emission carries charge +1, absorption charge -1, so the counted signal
    is the net number of excitations handed to the bath.  The drive is taken
    in the frame rotating at the qubit frequency, H = omega * (sp + sm).
    At ``nbar == 0`` the absorption channel is omitted.
    """
    gamma = positive_finite(gamma, "gamma")
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ConfigError(f"nbar must be nonnegative and finite, got {nbar!r}")
    channels = [
        JumpChannel(math.sqrt(gamma * (nbar + 1.0)) * SIGMA_MINUS, weight=+1.0)
    ]
    if nbar > 0:
        channels.append(JumpChannel(math.sqrt(gamma * nbar) * SIGMA_PLUS, weight=-1.0))
    return LindbladModel(omega * SIGMA_X, tuple(channels))


def homodyne_qubit(gamma: float, omega: float) -> LindbladModel:
    """Driven qubit whose emission is monitored in a fixed quadrature.

    Single channel sqrt(gamma) * sm at detection phase -pi/2, so the drift
    of the integrated signal follows the y component of the Bloch vector.
    """
    gamma = positive_finite(gamma, "gamma")
    channel = JumpChannel(math.sqrt(gamma) * SIGMA_MINUS, weight=1.0, phase=-math.pi / 2.0)
    return LindbladModel(omega * SIGMA_X, (channel,))


def decay_qubit(gamma: float) -> LindbladModel:
    """Undriven qubit with a single emission channel of charge +1."""
    channel = JumpChannel(math.sqrt(positive_finite(gamma, "gamma")) * SIGMA_MINUS, weight=+1.0)
    return LindbladModel(np.zeros((2, 2)), (channel,))


def wiener_charge(weight: float = 1.0) -> LindbladModel:
    """Trivial one-level system whose diffusive charge is a pure Wiener path."""
    return LindbladModel(
        np.zeros((1, 1)), (JumpChannel(np.zeros((1, 1)), weight=weight),)
    )


def drifted_charge(alpha: float, weight: float = 1.0) -> LindbladModel:
    """One-level system with channel alpha * identity: diffusive charge is a
    Brownian path with drift 2 * alpha * weight."""
    return LindbladModel(
        np.zeros((1, 1)),
        (JumpChannel(np.array([[alpha]], dtype=complex), weight=weight),),
    )


BUILTIN_PARAMS = {
    "thermal-qubit": ("gamma", "omega", "nbar"),
    "homodyne-qubit": ("gamma", "omega"),
}
BUILTIN_DEFAULTS = {"gamma": 1.0, "omega": 1.0, "nbar": 0.0}


def builtin_model(name: str, **params) -> LindbladModel:
    """Instantiate a named built-in model, rejecting stray parameters."""
    if name not in BUILTIN_PARAMS:
        known = ", ".join(sorted(BUILTIN_PARAMS))
        raise ConfigError(f"unknown builtin {name!r}; known builtins: {known}")
    allowed = BUILTIN_PARAMS[name]
    extra = set(params) - set(allowed)
    if extra:
        raise ConfigError(
            f"builtin {name!r} does not accept parameters {sorted(extra)}"
        )
    kwargs = {k: float(params.get(k, BUILTIN_DEFAULTS[k])) for k in allowed}
    if name == "thermal-qubit":
        return thermal_qubit(**kwargs)
    return homodyne_qubit(**kwargs)


def _parse_complex_matrix(entries, dim: int, label: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ConfigError(f"{label} must be a flat list of {dim * dim} [re, im] pairs")
    flat = []
    for item in entries:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(type(x) in (int, float) for x in item)
        ):
            raise ConfigError(f"{label} entries must be [re, im] number pairs")
        flat.append(complex(item[0], item[1]))
    return np.array(flat, dtype=complex).reshape((dim, dim))


def _encode_complex_matrix(mat: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(mat).reshape(-1)]


def load_model(path: str | Path) -> LindbladModel:
    """Parse a model file, rejecting unknown keys and non-Hermitian input."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("model file must hold a JSON object")
    unknown = set(raw) - {"dim", "hamiltonian", "channels"}
    if unknown:
        raise ConfigError(f"model file has unknown keys: {sorted(unknown)}")
    for key in ("dim", "hamiltonian", "channels"):
        if key not in raw:
            raise ConfigError(f"model file is missing required key {key!r}")
    dim = raw["dim"]
    # exact types: JSON true and false load as bool, a subclass of int
    if type(dim) is not int or dim < 1:
        raise ConfigError("dim must be a positive integer")
    ham = _parse_complex_matrix(raw["hamiltonian"], dim, "hamiltonian")
    if not isinstance(raw["channels"], list) or not raw["channels"]:
        raise ConfigError("channels must be a non-empty list")
    channels = []
    for i, entry in enumerate(raw["channels"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"channel {i} must be an object")
        unknown = set(entry) - {"operator", "weight", "phase", "monitored"}
        if unknown:
            raise ConfigError(f"channel {i} has unknown keys: {sorted(unknown)}")
        if "operator" not in entry:
            raise ConfigError(f"channel {i} is missing its operator")
        op = _parse_complex_matrix(entry["operator"], dim, f"channel {i} operator")
        weight = entry.get("weight", 1.0)
        phase = entry.get("phase", 0.0)
        monitored = entry.get("monitored", True)
        if type(weight) not in (int, float):
            raise ConfigError(f"channel {i} weight must be a number")
        if type(phase) not in (int, float):
            raise ConfigError(f"channel {i} phase must be a number")
        if not isinstance(monitored, bool):
            raise ConfigError(f"channel {i} monitored flag must be boolean")
        channels.append(
            JumpChannel(op, weight=float(weight), phase=float(phase), monitored=monitored)
        )
    try:
        return LindbladModel(ham, tuple(channels))
    except Exception as exc:
        raise ConfigError(f"model file {path} is invalid: {exc}") from exc


def model_payload(model: LindbladModel) -> dict:
    """Model as a plain dict in the documented file format."""
    return {
        "dim": model.dim,
        "hamiltonian": _encode_complex_matrix(model.hamiltonian),
        "channels": [
            {
                "operator": _encode_complex_matrix(ch.operator),
                "weight": ch.weight,
                "phase": ch.phase,
                "monitored": ch.monitored,
            }
            for ch in model.channels
        ],
    }


def save_model(model: LindbladModel, path: str | Path) -> None:
    """Write a model in the documented file format."""
    Path(path).write_text(json.dumps(model_payload(model), indent=2) + "\n")
