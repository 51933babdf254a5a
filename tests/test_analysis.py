"""Result containers, moment integration, and empirical comparisons."""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.stats import gamma as gamma_dist

import qfpt.analysis as analysis
from qfpt.analysis import (
    CSV_CHUNK_ROWS,
    FptResult,
    format_float,
    formatted_bytes,
    integrate_moments,
    ks_distance,
    trapezoid_steps,
    write_series_csv,
)
from qfpt.errors import PhysicsError, TailNotConvergedError
from qfpt.jumps import solve_jump_fpt
from qfpt.models import thermal_qubit


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


def _assert_formats_like_format_float(values):
    values = np.asarray(values, dtype=float)
    # 100,000 values at a time keep the test's own memory small
    for part in np.array_split(values, -(-values.size // 100_000)):
        got = formatted_bytes(part, np.full(part.size, ord("\n"), np.uint8)).decode()
        assert got.split("\n")[:-1] == [format_float(v) for v in part.tolist()]


def test_formatted_bytes_matches_format_float_on_random_bit_patterns():
    bits = np.random.default_rng(26).integers(0, 2**64, size=1_100_000, dtype=np.uint64)
    values = bits.view(np.float64)
    _assert_formats_like_format_float(values[np.isfinite(values)][:1_000_000])


def test_formatted_bytes_matches_format_float_on_uniform_magnitudes():
    rng = np.random.default_rng(7)
    values = rng.uniform(1.0, 10.0, 200_000) * 10.0 ** rng.integers(-12, 16, 200_000)
    _assert_formats_like_format_float(np.concatenate((values, -values)))


def _with_ulps(values):
    values = np.asarray(values, dtype=float)
    # the step up from the largest double is inf, which format_float writes
    with np.errstate(over="ignore"):
        up = np.nextafter(values, np.inf)
    return np.concatenate((values, np.nextafter(values, -np.inf), up, -values))


def test_formatted_bytes_matches_format_float_around_powers_of_ten():
    _assert_formats_like_format_float(_with_ulps([float(f"1e{k}") for k in range(-323, 309)]))


def test_formatted_bytes_matches_format_float_around_ties():
    # (d + 1/2) 10^k for 12-digit d, whose 13th significant digit is a 5,
    # and for one-digit d
    rng = np.random.default_rng(3)
    long = [
        float(f"{d}5e{k}") for d in rng.integers(10**11, 10**12, 40) for k in range(-310, 296, 3)
    ]
    short = [float(f"{d}.5e{k}") for d in range(1, 10) for k in range(-300, 300)]
    _assert_formats_like_format_float(_with_ulps(long + short))


def test_formatted_bytes_matches_format_float_on_edge_values():
    values = [
        9.9999999999995, 9.99999999999949, 0.99999999999995, 999999999999.5,
        999999999999.4999, 99999999999.95, 9.9999999999995e-5, 9.9999999999995e11,
        0.0001, 0.00009999999999995, 1e11, 1e12, 123456789012.5, 0.5, 2.5e-7,
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        1e-290, 1e290, 1e-300, 1e-308, 1e300, 1e308, 1.7976931348623157e308,
    ]
    values += [float(f"{m}e{k}") for m in (1, 3.7, 9.99) for k in range(-308, -289)]
    values += [float(f"{m}e{k}") for m in (1, 3.7, 1.79) for k in range(289, 309)]
    _assert_formats_like_format_float(_with_ulps(values))


def test_formatted_bytes_corrects_a_log10_that_overshoots(monkeypatch):
    # numpy's log10 overshoots only within roundoff below a power of ten,
    # where either exponent gives the same digits; one that overshoots by
    # a whole decade shows the correction, which keeps the values off the
    # per-value path
    log10, handed_back = np.log10, []
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + 1.0)
    monkeypatch.setattr(
        analysis, "format_float", lambda v: handed_back.append(v) or format_float(v)
    )
    magnitudes = 10.0 ** np.arange(-100, 100).repeat(10)
    values = np.random.default_rng(5).uniform(1.0, 10.0, magnitudes.size) * magnitudes
    _assert_formats_like_format_float(values)
    assert len(handed_back) < values.size // 100


def _series(body):
    body = np.asarray(body, dtype=float)
    return SimpleNamespace(
        times=body, survival=body[::-1].copy(), density=np.roll(body, 1),
        provenance="deterministic-jump",
    )


def _joined_lines(res):
    lines = ["# provenance=deterministic-jump", "# config_hash=h", "t,G,f"]
    lines += [",".join(map(format_float, row)) for row in zip(
        res.times.tolist(), res.survival.tolist(), res.density.tolist()
    )]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("rows", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
def test_write_series_csv_chunks_keep_the_bytes(rows, tmp_path):
    rng = np.random.default_rng(rows)
    body = rng.exponential(size=rows) * 10.0 ** rng.integers(-20, 14, rows)
    # values left to format_float, on either side of each chunk edge
    edges = [i for i in (0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, rows - 1) if i < rows]
    body[edges] = [123456789012.5, 5e-324, -1e-300, 1e300][: len(edges)]
    res = _series(body)
    write_series_csv(tmp_path / "s.csv", res, config_hash="h")
    assert (tmp_path / "s.csv").read_bytes() == _joined_lines(res)


def test_write_series_csv_raises_no_runtime_warning(tmp_path):
    res = _series([0.0, -0.0, 5e-324, -1e-310, 1e-300, 1e300, np.inf, -np.inf, np.nan, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_series_csv(tmp_path / "w.csv", res, config_hash="h")
    assert (tmp_path / "w.csv").read_bytes() == _joined_lines(res)


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


def _assert_scipy_trapezoid_bits(y, x):
    steps = trapezoid_steps(y, x)
    assert steps.sum() == trapezoid(y, x)
    assert np.array_equal(
        np.concatenate(([0.0], np.cumsum(steps))), cumulative_trapezoid(y, x, initial=0.0)
    )


@pytest.mark.parametrize("n", [2, 3, 17, 4096])
def test_trapezoid_steps_match_scipy_on_nonuniform_grids(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(1e-3, 1.0, n)) - 0.5
    _assert_scipy_trapezoid_bits(rng.standard_normal(n), x)


def test_trapezoid_steps_match_scipy_on_an_engine_series():
    res = solve_jump_fpt(thermal_qubit(1.0, 1.0, 0.2), threshold=3, horizon=10.0).result
    t, f = res.times, res.density
    for y in (f, t * f, t * t * f, res.survival):
        _assert_scipy_trapezoid_bits(y, t)


def test_fpt_result_refuses_a_rising_survival():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(PhysicsError, match="survival increases by 1.000e-01"):
        FptResult(t, np.zeros(5), np.array([1.0, 0.5, 0.6, 0.6, 0.6]), "deterministic-jump")


def test_fpt_result_refuses_a_first_survival_other_than_one():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(PhysicsError, match="survival at the first grid point is 0.9, not 1"):
        FptResult(t, np.zeros(5), np.full(5, 0.9), "deterministic-jump")
