"""Kinetic uncertainty bounds: closed forms, flags, and scan bookkeeping."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from qfpt.errors import ConvergenceError
from qfpt.kur import (
    KurReport,
    dynamical_activity,
    kur_point,
    kur_scan,
    quantum_correction,
    qubit_activity,
    qubit_quantum_correction,
)
from qfpt.models import thermal_qubit

from .oracles import BirthDeathChain


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("omega", [0.5, 2.0])
@pytest.mark.parametrize("nbar", [0.1, 1.0])
def test_closed_forms_match_generic_evaluation(gamma, omega, nbar):
    model = thermal_qubit(gamma, omega, nbar)
    assert dynamical_activity(model) == pytest.approx(
        qubit_activity(gamma, omega, nbar), rel=1e-10
    )
    assert quantum_correction(model) == pytest.approx(
        qubit_quantum_correction(gamma, omega, nbar), rel=1e-10
    )


def test_correction_vanishes_without_drive():
    model = thermal_qubit(1.0, 0.0, 0.3)
    assert abs(quantum_correction(model)) < 1e-10
    assert qubit_quantum_correction(1.0, 0.0, 0.3) == 0.0


def test_correction_is_nonnegative():
    for omega in (0.1, 0.5, 1.0, 3.0):
        assert qubit_quantum_correction(1.0, omega, 0.2) > 0.0


def test_kur_point_flags_are_consistent():
    model = thermal_qubit(1.0, 0.5, 0.1)
    point = kur_point(model, threshold=5)
    assert point["quantum_bound"] >= point["classical_bound"]
    assert point["classical_violated"] == (point["snr"] > point["classical_bound"])
    assert point["quantum_violated"] == (point["snr"] > point["quantum_bound"] + 1e-6)
    assert point["moments"].absorbed_probability > 1.0 - 1e-5
    # the rate bound itself: variance times activity-corrected rate >= mean
    assert point["snr"] <= point["quantum_bound"] + 1e-6


def test_scan_marks_dead_points_failed():
    # without drive or thermal occupation the counter never fires
    reports = kur_scan([0.0], gamma=1.0, nbar=0.0, threshold=5)
    (rep,) = reports
    assert rep.status.startswith("failed")
    assert math.isnan(rep.snr) and math.isnan(rep.mean_fpt)
    assert not rep.classical_violated and not rep.quantum_violated


def test_failed_report_constructor():
    rep = KurReport.failed(1.0, 2.0, 0.3, "because")
    assert rep.omega == 1.0 and rep.gamma == 2.0 and rep.nbar == 0.3
    assert rep.status == "failed: because"
    assert math.isnan(rep.activity)


def test_scan_keeps_grid_order():
    omegas = [0.4, 0.6]
    kwargs = dict(gamma=1.0, nbar=0.1, threshold=3)
    serial = kur_scan(omegas, **kwargs)
    assert [r.omega for r in serial] == omegas


def test_scan_point_agrees_with_direct_point():
    omega, gamma, nbar = 0.5, 1.0, 0.1
    (rep,) = kur_scan([omega], gamma=gamma, nbar=nbar, threshold=3)
    assert rep.status == "ok"
    model = thermal_qubit(gamma, omega, nbar)
    point = kur_point(model, threshold=3)
    assert rep.snr == pytest.approx(point["snr"], rel=1e-12)
    assert rep.activity == pytest.approx(point["activity"], rel=1e-12)


def test_activity_is_positive_and_scales_with_rate():
    a1 = qubit_activity(1.0, 1.0, 0.2)
    a2 = qubit_activity(2.0, 2.0, 0.2)
    assert a1 > 0
    assert a2 == pytest.approx(2.0 * a1, rel=1e-12)


def test_unreachable_point_fails_fast():
    t0 = time.perf_counter()
    (rep,) = kur_scan([0.0], gamma=1.0, nbar=0.0, threshold=5)
    assert "threshold 5 is unreachable" in rep.status
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize(
    "nbar, mean, variance",
    [
        # mean 1059: a time series would need a horizon near 15,000
        (1.0, 240395 / 227, 37637268965 / 51529),
        (0.1, 3508 / 19, 13907926 / 1805),
    ],
)
def test_weak_drive_points_are_exact(nbar, mean, variance):
    (rep,) = kur_scan([0.1], gamma=1.0, nbar=nbar, threshold=5)
    assert rep.status == "ok"
    assert rep.mean_fpt == pytest.approx(mean, rel=1e-9)
    assert rep.var_fpt == pytest.approx(variance, rel=1e-9)
    assert rep.absorbed_probability == pytest.approx(1.0, abs=1e-9)


def test_hot_point_matches_exact_mean():
    # a time series cut where the survival falls below 1e-6 misses these
    # exact rationals by 1.3e-5 (mean) and 2.9e-4 (variance)
    point = kur_point(thermal_qubit(1.0, 1.0, 1.0), threshold=5)
    assert point["moments"].mean == pytest.approx(679 / 34, rel=1e-9)
    assert point["moments"].variance == pytest.approx(136093 / 578, rel=1e-9)


def test_chain_moments_on_one_cell_window():
    # only an excited start leaves upwards, after one exponential wait
    nbar = 0.5
    prob, mean, variance = BirthDeathChain(1.0, nbar, 0, 0).moments()
    up = nbar + 1.0
    assert prob == pytest.approx(nbar / (2.0 * nbar + 1.0), rel=1e-12)
    assert mean == pytest.approx(1.0 / up, rel=1e-12)
    assert variance == pytest.approx(1.0 / up**2, rel=1e-12)


@pytest.mark.parametrize("nbar", [0.1, 1.0])
def test_undriven_threshold_is_unreachable_like_the_chain(nbar):
    # without drive every emission is undone by the next absorption: the
    # charge alternates between two values and never reaches 5, so the
    # chain traps weight and the moments do not exist
    with pytest.raises(np.linalg.LinAlgError):
        BirthDeathChain(1.0, nbar, -64, 4).moments()
    with pytest.raises(ConvergenceError, match="threshold 5 is unreachable"):
        kur_point(thermal_qubit(1.0, 0.0, nbar), threshold=5)
