"""The benchmark's three workloads: their inputs, operations and checks.

A workload is built once per process, then runs whole rounds: each round
performs the same operations in the same order.  Only the Monte Carlo
workload draws inputs from the seed (its two ensemble seeds).  ``check``
compares the outputs with the numpy-only references in ``reference.py`` or
with properties the method must have, never with a stored copy of earlier
output.  The package is looked up through its module attributes at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import random
from pathlib import Path

import numpy as np

import reference

LEDGER_TOL = 1e-6
MEAN_RTOL = 1e-4
VAR_RTOL = 1e-3
ACTIVITY_RTOL = 1e-8
QUANTUM_SLACK = 1e-6
KS_P = 0.001
CENSOR_SIGMAS = 4.0


def _trapezoid(y, x) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def _csv_columns(path: Path) -> np.ndarray:
    """Numeric columns of a CSV written by the package: comment lines and
    the header row dropped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).T


def _kur_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _series_problems(label: str, t, g, f) -> list[str]:
    """Ledger, monotone survival and nonnegative density."""
    problems = []
    residue = abs(g[-1] + _trapezoid(f, t) - 1.0)
    if residue > LEDGER_TOL:
        problems.append(f"{label}: ledger |G(T)+int f-1| = {residue:.3e}")
    if np.any(np.diff(g) > 0.0):
        problems.append(f"{label}: survival increases")
    if np.any(f < 0.0):
        problems.append(f"{label}: negative density {f.min():.3e}")
    return problems


def _moment_problems(label: str, mean: float, var: float, ref_mean: float, ref_var: float):
    problems = []
    if abs(mean - ref_mean) > MEAN_RTOL * ref_mean:
        problems.append(f"{label}: mean {mean!r} vs resolvent {ref_mean!r}")
    if abs(var - ref_var) > VAR_RTOL * ref_var:
        problems.append(f"{label}: variance {var!r} vs resolvent {ref_var!r}")
    return problems


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class CliWorkload:
    """Rounds of in-process ``qfpt`` command lines, each writing into its
    own output directory; every rerun must write byte-identical CSVs.

    ``ops`` lists (label, zero-argument callable returning success, number
    of FPT solves it performs)."""

    def __init__(self, qfpt, outdir: Path, seed: int):
        self.qfpt = qfpt
        self.outdir = outdir
        # fixed inputs and order: the seed has nothing to vary here, and the
        # order of the operations moves the peak RSS by up to 4 %
        self.ops = self.operations()
        self.digests = set()

    def cli(self, label: str, argv: list[str]) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.qfpt.cli.main([*argv, "--outdir", str(self.outdir / label)]) == 0

    def cli_op(self, label: str, argv: list[str], solves: int):
        return (label, functools.partial(self.cli, label, argv), solves)

    def after_round(self) -> None:
        self.digests.add(_digest(sorted(self.outdir.glob("*/*.csv"))))

    def check(self) -> list[str]:
        problems = []
        if len(self.digests) != 1:
            problems.append(f"reruns wrote {len(self.digests)} different sets of CSV bytes")
        return problems + self.check_outputs()


class JumpEngine(CliWorkload):
    """The README ``fpt-jump`` and ``kur-scan`` commands plus a hot-bath scan."""

    FPT_JUMP = ("fpt-jump --builtin thermal-qubit --gamma 1 --omega 1 --nbar 0.2 "
                "--threshold 5 --horizon 50 --auto-tail").split()
    HOT_OMEGAS = (1.0, 2.0, 5.0)

    @staticmethod
    def models(qfpt):
        return [qfpt.thermal_qubit(1.0, w, nbar) for w, nbar in
                [(1.0, 0.2), *((float(w), 0.1) for w in np.linspace(0.1, 5, 10)),
                 *((w, 1.0) for w in JumpEngine.HOT_OMEGAS)]]

    def operations(self):
        ops = [
            self.cli_op("fpt-jump", self.FPT_JUMP, 1),
            self.cli_op("kur-scan", "kur-scan --omega-range 0.1:5:10 --nbar 0.1 "
                        "--threshold 5 --workers 1".split(), 10),
        ]
        for w in self.HOT_OMEGAS:
            argv = f"kur-scan --omega-range {w:g}:{w:g}:1 --nbar 1.0 --threshold 5 --workers 1"
            ops.append(self.cli_op(f"hot-{w:g}", argv.split(), 1))
        return ops

    def check_outputs(self) -> list[str]:
        problems = []
        t, g, f = _csv_columns(self.outdir / "fpt-jump" / "fpt_jump.csv")
        problems += _series_problems("fpt_jump.csv", t, g, f)
        absorbed = _trapezoid(f, t)
        mean = _trapezoid(t * f, t) / absorbed
        var = _trapezoid(t * t * f, t) / absorbed - mean**2
        problems += _moment_problems(
            "fpt_jump.csv", mean, var, *reference.resolvent_moments(1.0, 1.0, 0.2, 5)
        )
        rows = _kur_rows(self.outdir / "kur-scan" / "kur_scan.csv")
        for w in self.HOT_OMEGAS:
            rows += _kur_rows(self.outdir / f"hot-{w:g}" / "kur_scan.csv")
        if len(rows) != 10 + len(self.HOT_OMEGAS):
            problems.append(f"kur scans wrote {len(rows)} rows")
        for row in rows:
            gamma, omega, nbar = (float(row[k]) for k in ("gamma", "omega", "nbar"))
            label = f"kur point omega={omega:g} nbar={nbar:g}"
            if row["status"] != "ok":
                problems.append(f"{label}: status {row['status']}")
                continue
            mean, var, snr = (float(row[k]) for k in ("mean_fpt", "var_fpt", "snr"))
            problems += _moment_problems(
                label, mean, var, *reference.resolvent_moments(gamma, omega, nbar, 5)
            )
            k_ref = reference.activity(gamma, omega, nbar)
            q_ref = reference.quantum_correction(gamma, omega, nbar)
            if abs(float(row["activity"]) - k_ref) > ACTIVITY_RTOL * k_ref:
                problems.append(f"{label}: activity {row['activity']} vs closed form {k_ref!r}")
            if row["quantum_violated"] != "0" or snr > mean * (k_ref + q_ref) + QUANTUM_SLACK:
                problems.append(f"{label}: SNR {snr!r} breaks the quantum bound")
        return problems


class DiffusionEngine(CliWorkload):
    """The README ``fpt-diffusion`` command and a drifted-charge auto-tail
    solve whose exact answer is the inverse-Gaussian law."""

    FPT_DIFFUSION = ("fpt-diffusion --builtin homodyne-qubit --gamma 1 --omega 1 "
                     "--threshold 1 --horizon 6").split()
    ALPHA = 0.5
    BARRIER = 1.0
    DRIFT_HORIZON = 30.0

    @staticmethod
    def models(qfpt):
        return [qfpt.homodyne_qubit(1.0, 1.0), qfpt.drifted_charge(DiffusionEngine.ALPHA)]

    def operations(self):
        return [self.cli_op("fpt-diffusion", self.FPT_DIFFUSION, 1), ("drifted", self.drifted, 1)]

    def drifted(self) -> bool:
        qfpt = self.qfpt
        self.drift_solution = qfpt.diffusion.solve_diffusion_fpt(
            qfpt.drifted_charge(self.ALPHA), threshold=self.BARRIER,
            horizon=self.DRIFT_HORIZON, auto_tail=True,
        )
        return True

    def check_outputs(self) -> list[str]:
        problems = []
        out = self.outdir / "fpt-diffusion"
        t, g, f = _csv_columns(out / "fpt_diffusion.csv")
        problems += _series_problems("fpt_diffusion.csv", t, g, f)
        inner = f[1:-1]
        peaks = np.flatnonzero((inner > f[:-2]) & (inner >= f[2:]) & (inner > 1e-3 * f.max()))
        if peaks.size < 2:
            problems.append(f"homodyne density has {peaks.size} interior maxima, expected >= 2")
        charge, density = _csv_columns(out / "final_distribution.csv")
        mass = _trapezoid(density, charge)
        if abs(mass - 1.0) > 1e-8:
            problems.append(f"final_distribution.csv integrates to {mass!r}")

        result = self.drift_solution.result
        t, g, f = result.times, result.survival, result.density
        problems += _series_problems("drifted charge", t, g, f)
        exact_mean = self.BARRIER / (2.0 * self.ALPHA)
        mean = _trapezoid(t * f, t) / _trapezoid(f, t)
        if abs(mean - exact_mean) > 1e-3:
            problems.append(f"drifted charge: mean {mean!r} vs exact {exact_mean!r}")
        law = reference.inverse_gaussian_density(self.BARRIER, 2.0 * self.ALPHA, 1.0, t)
        l2 = float(np.linalg.norm(f - law) / np.linalg.norm(law))
        if l2 > 1e-2:
            problems.append(f"drifted charge: relative L2 {l2:.3e} from the inverse-Gaussian law")
        return problems


class McOracle:
    """A jump and a diffusive trajectory ensemble through
    ``trajectories.simulate``; their deterministic references are solved
    after the timed rounds, only for the checks."""

    JUMP_NTRAJ = 500
    DIFFUSION_NTRAJ = 500

    @staticmethod
    def models(qfpt):
        return [qfpt.thermal_qubit(1.0, 1.0, 0.2), qfpt.homodyne_qubit(1.0, 1.0)]

    def __init__(self, qfpt, outdir: Path, seed: int):
        self.qfpt = qfpt
        rng = random.Random(seed)
        config = qfpt.trajectories.TrajectoryConfig
        jump_model, homodyne = self.models(qfpt)
        self.configs = {
            "jump": config(jump_model, "jump", ntraj=self.JUMP_NTRAJ, horizon=20.0,
                           seed=rng.getrandbits(63), threshold=5, keep_paths=False),
            "diffusion": config(homodyne, "diffusion", ntraj=self.DIFFUSION_NTRAJ,
                                horizon=6.0, dt=0.002, seed=rng.getrandbits(63),
                                threshold=1.0, keep_paths=False),
        }
        self.ops = [(name, functools.partial(self.simulate, name), cfg.ntraj)
                    for name, cfg in self.configs.items()]
        self.ensembles = {}
        self.reruns_differ = []

    def simulate(self, name: str) -> bool:
        ensemble = self.qfpt.trajectories.simulate(self.configs[name])
        first = self.ensembles.setdefault(name, ensemble)
        if ensemble is not first and not _same_ensemble(first, ensemble):
            self.reruns_differ.append(name)
        return True

    def after_round(self) -> None:
        pass

    def check(self) -> list[str]:
        qfpt = self.qfpt
        problems = [f"{name}: rerun with the same seed differs" for name in self.reruns_differ]
        for name, config in self.configs.items():
            parts = qfpt.trajectories.partition_config(config, 2)
            merged = qfpt.trajectories.merge_ensembles([qfpt.trajectories.simulate(p) for p in parts])
            if not _same_ensemble(self.ensembles[name], merged):
                problems.append(f"{name}: two-block partition differs from the single run")
        jump_cfg, diff_cfg = self.configs["jump"], self.configs["diffusion"]
        references = {
            "jump": qfpt.jumps.solve_jump_fpt(jump_cfg.model, threshold=5, horizon=jump_cfg.horizon),
            # twice the default charge spacing halves the solve; its error
            # is far below the KS critical value of a few hundred samples
            "diffusion": qfpt.diffusion.solve_diffusion_fpt(
                diff_cfg.model, threshold=1.0, horizon=diff_cfg.horizon, delta=0.02),
        }
        for name, solution in references.items():
            ensemble = self.ensembles[name]
            res = solution.result
            hits = ensemble.hit_times[np.isfinite(ensemble.hit_times)]
            ks = reference.ks_distance(res.times, res.density, hits)
            crit = reference.ks_critical_value(hits.size, KS_P)
            if ks >= crit:
                problems.append(f"{name}: KS {ks:.4f} >= critical {crit:.4f} at p={KS_P}")
            g_end = float(res.survival[-1])
            sigma = math.sqrt(g_end * (1.0 - g_end) / ensemble.ntraj)
            censored = float(np.mean(~np.isfinite(ensemble.hit_times)))
            if abs(censored - g_end) > CENSOR_SIGMAS * sigma:
                problems.append(f"{name}: censored {censored:.4f} vs G(T) {g_end:.4f}")
        return problems


def _same_ensemble(a, b) -> bool:
    return (
        np.array_equal(a.hit_times, b.hit_times, equal_nan=True)
        and np.array_equal(a.censored, b.censored)
        and np.array_equal(a.final_charges, b.final_charges)
        and np.array_equal(a.final_states, b.final_states)
    )


WORKLOADS = {
    "jump-engine": JumpEngine,
    "diffusion-engine": DiffusionEngine,
    "mc-oracle": McOracle,
}


def setup_models(qfpt, name: str) -> None:
    """What a fresh process must build before its first operation: the
    workload's models and their steady states."""
    for model in WORKLOADS[name].models(qfpt):
        qfpt.steady_state(qfpt.build_liouvillian(model))
