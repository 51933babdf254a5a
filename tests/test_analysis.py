"""Result containers, moment integration, and empirical comparisons."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.stats import gamma as gamma_dist

from qfpt.analysis import (
    FptResult,
    format_float,
    integrate_moments,
    ks_distance,
    write_series_csv,
)
from qfpt.errors import PhysicsError, TailNotConvergedError


def _erlang_result(k=3, rate=2.0, horizon=25.0, n=20001):
    t = np.linspace(0.0, horizon, n)
    f = gamma_dist.pdf(t, a=k, scale=1.0 / rate)
    g = gamma_dist.sf(t, a=k, scale=1.0 / rate)
    return FptResult(t, f, g, "deterministic-jump")


def test_erlang_moments():
    k, rate = 3, 2.0
    moments = integrate_moments(_erlang_result(k, rate))
    assert moments.mean == pytest.approx(k / rate, rel=1e-6)
    assert moments.variance == pytest.approx(k / rate**2, rel=1e-5)
    assert moments.snr == pytest.approx(k, rel=1e-5)
    assert moments.absorbed_probability == pytest.approx(1.0, abs=1e-6)


def test_truncated_tail_refuses():
    t = np.linspace(0.0, 1.0, 2001)
    f = np.exp(-t)
    g = np.exp(-t)
    res = FptResult(t, f, g, "deterministic-jump")
    with pytest.raises(TailNotConvergedError):
        integrate_moments(res)
    moments = integrate_moments(res, require_tail=False)
    assert moments.absorbed_probability == pytest.approx(1.0 - np.exp(-1.0), rel=1e-4)


def test_ledger_violation_rejected():
    t = np.linspace(0.0, 5.0, 501)
    f = np.exp(-t)
    g = np.full_like(t, 1.0)
    g[1:] = 0.9
    with pytest.raises(PhysicsError, match="ledger"):
        FptResult(t, f, g, "deterministic-jump")


def test_increasing_survival_rejected():
    t = np.linspace(0.0, 1.0, 11)
    f = np.zeros_like(t)
    g = np.ones_like(t)
    g[5:] = 1.001
    with pytest.raises(PhysicsError):
        FptResult(t, f, g, "deterministic-jump")


def test_negative_density_rejected():
    t = np.linspace(0.0, 1.0, 11)
    f = np.zeros_like(t)
    f[3] = -1e-6
    g = np.ones_like(t)
    with pytest.raises(PhysicsError):
        FptResult(t, f, g, "deterministic-jump")


def test_nonuniform_grid_rejected():
    t = np.array([0.0, 0.1, 0.3, 0.35])
    f = np.zeros_like(t)
    g = np.ones_like(t)
    with pytest.raises(ValueError):
        FptResult(t, f, g, "deterministic-jump")


def test_conditional_cdf_properties():
    res = _erlang_result()
    cdf = res.conditional_cdf()
    assert cdf[0] == 0.0
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(cdf) >= -1e-15)


def test_ks_distance_detects_rate_mismatch():
    # exact sup distance between exp(1) and exp(2) CDFs is 0.25 at t = ln 2
    t = np.linspace(0.0, 30.0, 30001)
    res = FptResult(t, np.exp(-t), np.exp(-t), "deterministic-jump")
    rng = np.random.default_rng(123)
    samples = rng.exponential(scale=0.5, size=20000)
    d = ks_distance(res, samples)
    assert d == pytest.approx(0.25, abs=0.03)


def test_ks_distance_small_for_matching_samples():
    t = np.linspace(0.0, 30.0, 30001)
    res = FptResult(t, np.exp(-t), np.exp(-t), "deterministic-jump")
    rng = np.random.default_rng(7)
    samples = rng.exponential(scale=1.0, size=20000)
    assert ks_distance(res, samples) < 0.02


def test_format_float_is_stable():
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.1"
    assert format_float(1e-300) == "1e-300"


def test_write_series_csv_matches_per_value_formatting(tmp_path):
    # the streamed writer must keep the bytes of joining format_float values
    values = np.array([0.0, 1e-05, 1e-300, 0.1, 123456789012345.0, 1.0 / 3.0, 2.5e-7])
    res = SimpleNamespace(
        times=values, survival=values[::-1].copy(), density=np.roll(values, 2),
        provenance="deterministic-jump",
    )
    path = tmp_path / "series.csv"
    write_series_csv(path, res, config_hash="abc123")
    lines = ["# provenance=deterministic-jump", "# config_hash=abc123", "t,G,f"]
    for row in zip(res.times, res.survival, res.density):
        lines.append(",".join(format_float(v) for v in row))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert "\n1.23456789012e+14,1e-300,1e-300\n" in path.read_text()


def test_write_series_csv_roundtrip(tmp_path):
    res = _erlang_result(n=501, horizon=25.0)
    path = tmp_path / "series.csv"
    write_series_csv(path, res, config_hash="abc123")
    text = path.read_text()
    assert text.startswith("# provenance=deterministic-jump\n# config_hash=abc123\n")
    write_series_csv(tmp_path / "again.csv", res, config_hash="abc123")
    assert (tmp_path / "again.csv").read_text() == text

    body = np.loadtxt(path, delimiter=",", skiprows=3)
    assert body.shape == (501, 3)
    assert np.allclose(body[:, 0], res.times, rtol=1e-11)
    assert np.allclose(body[:, 1], res.survival, rtol=1e-11)
    assert np.allclose(body[:, 2], res.density, rtol=1e-11)


def test_absorbed_probability_matches_density_integral():
    res = _erlang_result()
    assert res.absorbed_probability == pytest.approx(
        float(trapezoid(res.density, res.times)), abs=1e-6
    )
