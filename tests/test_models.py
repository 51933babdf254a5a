"""Built-in models and the JSON model file format."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from qfpt.errors import ConfigError
from qfpt.models import (
    SIGMA_MINUS,
    builtin_model,
    decay_qubit,
    homodyne_qubit,
    load_model,
    model_payload,
    save_model,
    thermal_qubit,
)


def test_thermal_qubit_structure():
    model = thermal_qubit(2.0, 0.7, 0.3)
    assert model.dim == 2
    assert len(model.channels) == 2
    down, up = model.channels
    assert np.allclose(down.operator, np.sqrt(2.0 * 1.3) * SIGMA_MINUS)
    assert np.allclose(up.operator, np.sqrt(2.0 * 0.3) * SIGMA_MINUS.conj().T)
    assert down.weight == 1.0 and up.weight == -1.0
    assert np.allclose(model.hamiltonian, 0.7 * (SIGMA_MINUS + SIGMA_MINUS.conj().T))


def test_thermal_qubit_zero_nbar_drops_absorption():
    model = thermal_qubit(1.0, 1.0, 0.0)
    assert len(model.channels) == 1


def test_homodyne_qubit_structure():
    model = homodyne_qubit(1.0, 1.0)
    (ch,) = model.channels
    assert ch.phase == pytest.approx(-np.pi / 2.0)
    assert ch.weight == 1.0
    # measured quadrature follows the y component of the Bloch vector
    quad = ch.rotated_operator() + ch.rotated_operator().conj().T
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    assert np.allclose(quad, -sigma_y)


def test_builtin_model_dispatch_and_rejection():
    model = builtin_model("thermal-qubit", gamma=1.0, omega=0.5, nbar=0.2)
    assert len(model.channels) == 2
    with pytest.raises(ConfigError):
        builtin_model("homodyne-qubit", nbar=0.5)
    with pytest.raises(ConfigError):
        builtin_model("unknown-model")


def test_parameter_validation():
    with pytest.raises(ConfigError):
        thermal_qubit(-1.0, 1.0, 0.2)
    with pytest.raises(ConfigError):
        thermal_qubit(1.0, 1.0, -0.1)
    with pytest.raises(ConfigError):
        decay_qubit(0.0)


def test_save_load_roundtrip(tmp_path):
    model = thermal_qubit(1.2, 0.8, 0.15)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.allclose(loaded.hamiltonian, model.hamiltonian)
    assert len(loaded.channels) == len(model.channels)
    for a, b in zip(loaded.channels, model.channels):
        assert np.allclose(a.operator, b.operator)
        assert a.weight == b.weight
        assert a.phase == b.phase
        assert a.monitored == b.monitored


def test_load_rejects_unknown_keys(tmp_path):
    payload = model_payload(decay_qubit(1.0))
    payload["typo_key"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="typo_key"):
        load_model(path)

    payload = model_payload(decay_qubit(1.0))
    payload["channels"][0]["wieght"] = 2
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="wieght"):
        load_model(path)


def test_load_rejects_non_hermitian_hamiltonian(tmp_path):
    payload = model_payload(decay_qubit(1.0))
    payload["hamiltonian"] = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "nonherm.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="Hermitian"):
        load_model(path)


def test_readme_model_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Model file format", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme_model.json"
    path.write_text(block)
    model = load_model(path)
    assert np.array_equal(model.hamiltonian, [[0.0, 1.0], [1.0, 0.0]])
    (channel,) = model.channels
    assert np.allclose(channel.operator, 1.4142 * SIGMA_MINUS)
    assert channel.weight == 1.0 and channel.monitored
