"""Command line front end for the first-passage engines.

Subcommands
-----------
``fpt-jump``
    Hit-time and final charge distributions for counting-type monitoring.
``fpt-diffusion``
    Deterministic hit-time distribution for diffusive monitoring, plus
    the final charge distribution conditioned on survival.
``trajectories``
    Monte Carlo ensemble for either unravelling.
``kur-scan``
    Precision bounds and violation flags over a drive-amplitude range.
``validate``
    Dry-run configuration report without executing a solve.

Artifacts land in ``--outdir`` (default: ``$QFPT_OUTDIR`` or the current
directory).  Every run writes a ``manifest.json`` with the configuration
echo, library versions, and wall time; CSV bodies are deterministic
functions of the configuration (identical configuration, identical
bytes) and each embeds the configuration hash.

Exit codes: 0 success, 2 configuration or model error, 3 convergence
failure, 4 physics assertion (for example a quantum bound violation).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from .analysis import TAIL_EPSILON, format_float, integrate_moments, write_series_csv
from .diffusion import (
    DEFAULT_RESOLUTION,
    PECLET_LIMIT,
    ChargeGrid,
    build_drift_superoperator,
    conditioned_charge_distribution,
    peclet_number,
    real_threshold,
    solve_diffusion_fpt,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateKernelError,
    ModelError,
    PhysicsError,
    TailNotConvergedError,
)
from .jumps import ChargeWindow, charge_distribution, integer_weight, preview_window, solve_jump_fpt
from .kur import KurReport, kur_scan
from .models import BUILTIN_DEFAULTS, BUILTIN_PARAMS, builtin_model, load_model, model_payload
from .operators import build_liouvillian, positive_finite, steady_state
from .propagation import default_step, time_grid
from .trajectories import (
    TrajectoryConfig,
    fpt_histogram,
    merge_ensembles,
    partition_config,
    simulate,
)

try:
    from importlib.metadata import version as _dist_version

    PACKAGE_VERSION = _dist_version("qfpt")
except Exception:  # pragma: no cover - not installed
    PACKAGE_VERSION = "unknown"

OUTDIR_ENV = "QFPT_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_PHYSICS = 4


def _split_spec(spec: str, kind: str, types: tuple, bad: str) -> list:
    """Split a ``lo:hi[:count]`` spec into one field per converter in
    ``types``; a wrong field count or a field its converter refuses is a
    ``ConfigError`` naming the spec's ``kind``."""
    parts = spec.split(":")
    if len(parts) != len(types):
        form = ":".join(("lo", "hi", "count")[: len(types)])
        raise ConfigError(f"{kind} {spec!r} is not of the form {form}")
    try:
        return [convert(part) for convert, part in zip(types, parts)]
    except ValueError as exc:
        raise ConfigError(f"{kind} {spec!r} has {bad}") from exc


def parse_range(spec: str) -> np.ndarray:
    """Parse ``lo:hi:count`` into a linearly spaced grid."""
    lo, hi, count = _split_spec(spec, "range", (float, float, int), "a non-numeric part")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"range {spec!r} has a non-finite bound")
    if count < 1:
        raise ConfigError("range count must be at least 1")
    if count == 1 and hi != lo:
        raise ConfigError("a single-point range needs lo == hi")
    return np.linspace(lo, hi, count)


def parse_window(spec: str) -> ChargeWindow:
    """Parse ``lo:hi`` into an explicit integer charge window."""
    return ChargeWindow(*_split_spec(spec, "window", (int, int), "a non-integer bound"))


def parse_grid(spec: str, delta: float | None) -> ChargeGrid:
    """Parse ``lo:hi`` plus a node spacing into an explicit charge grid."""
    lo, hi = _split_spec(spec, "grid", (float, float), "a non-numeric bound")
    if delta is None:
        raise ConfigError("an explicit --grid needs --delta as well")
    return ChargeGrid(lo, hi, delta)


def resolve_model(args):
    """Model from --model or --builtin, enforcing mutual exclusion."""
    builtin_values = {
        key: getattr(args, key)
        for key in ("gamma", "omega", "nbar")
        if getattr(args, key, None) is not None
    }
    if args.model is not None:
        if args.builtin is not None:
            raise ConfigError("--model and --builtin are mutually exclusive")
        if builtin_values:
            raise ConfigError(
                "--gamma/--omega/--nbar apply only to --builtin models"
            )
        return load_model(args.model)
    if args.builtin is None:
        raise ConfigError("pass either --model FILE or --builtin NAME")
    return builtin_model(args.builtin, **builtin_values)


def config_hash(payload: dict) -> str:
    """Stable hash of the physics configuration (not the plumbing)."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run_payload(command: str, args, model) -> dict:
    """Configuration echo used for hashing and the manifest."""
    skip = {"model", "builtin", "gamma", "omega", "nbar", "outdir", "workers", "func"}
    payload = {
        "command": command,
        "model": model_payload(model),
    }
    for key, value in sorted(vars(args).items()):
        if key in skip or key == "command":
            continue
        payload[key] = value
    return payload


def _csv_cell(cell) -> str:
    if isinstance(cell, bool):
        return "1" if cell else "0"
    if isinstance(cell, float):
        return format_float(cell)
    return str(cell)


def _rows_writer(header: list[str], rows):
    """Artifact writer of a deterministic CSV with the configuration hash
    embedded, for ``publish``; a cell holding a comma or a quote is quoted."""
    def write(path: Path, chash: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# config_hash={chash}\n")
            table = csv.writer(fh, lineterminator="\n")
            table.writerows(map(_csv_cell, row) for row in [header, *rows])
    return write


def _series_writer(result):
    """Artifact writer of an FPT series, for ``publish``."""
    return lambda path, chash: write_series_csv(path, result, config_hash=chash)


def publish(args, payload: dict, writers: dict, results: dict, t0: float) -> list[Path]:
    """Write a run's artifacts and its ``manifest.json`` into the outdir.

    ``writers`` maps each artifact name to ``writer(path, config_hash)``;
    the payload's hash goes into every artifact and the manifest.  Returns
    the artifact paths in ``writers`` order.
    """
    chash = config_hash(payload)
    outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, writer in writers.items():
        writer(outdir / name, chash)
    manifest = {
        "config": payload,
        "config_hash": chash,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "qfpt": PACKAGE_VERSION,
        },
        "artifacts": list(writers),
        "wall_time_s": time.perf_counter() - t0,
        "results": results,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    )
    return [outdir / name for name in writers]


def conditional_moment_summary(result, explicit_domain: bool) -> dict:
    """Moments of the hit time conditioned on absorption before the
    horizon, for the manifest.

    A run on an explicit domain may absorb nothing, as when it reads the
    charge distribution before any weight reaches an edge; its moments
    are then null.  A threshold that absorbs nothing is refused.
    """
    try:
        moments = integrate_moments(result, require_tail=False)
    except TailNotConvergedError:
        if not explicit_domain:
            raise
        mean = variance = snr = None
    else:
        mean, variance, snr = moments.mean, moments.variance, moments.snr
    return {
        "absorbed_probability": result.absorbed_probability,
        "mean_fpt_given_absorbed": mean,
        "var_fpt_given_absorbed": variance,
        "snr_given_absorbed": snr,
        "horizon": result.horizon,
    }


def _fpt_options(args, domain, domain_flag: str) -> dict:
    """The solve options both FPT engines take from their shared flags.

    A run needs an absorbing side: a threshold, or the explicit ``domain``
    that ``domain_flag`` gave.
    """
    if domain is None and args.threshold is None and args.lower_threshold is None:
        raise ConfigError(
            f"a first-passage run needs --threshold, --lower-threshold or {domain_flag}"
        )
    keys = ("threshold", "lower_threshold", "horizon", "dt", "auto_tail", "tail_epsilon")
    return {key: getattr(args, key) for key in keys}


def run_fpt_jump(args) -> int:
    model = resolve_model(args)
    window = parse_window(args.window) if args.window else None
    options = _fpt_options(args, window, "--window")
    t0 = time.perf_counter()
    solution = solve_jump_fpt(model, window=window, initial=args.start, **options)
    # a threshold run that cannot summarise its series writes nothing
    results = conditional_moment_summary(solution.result, window is not None)
    results["window"] = [solution.domain.lower, solution.domain.upper]
    writers = {"fpt_jump.csv": _series_writer(solution.result)}
    if float(solution.result.survival[-1]) > 1e-9:
        charges = charge_distribution(solution.final_state)
        total = sum(charges.values())
        rows = [(n, p / total) for n, p in charges.items()]
        writers["final_distribution.csv"] = _rows_writer(["N", "probability"], rows)
    paths = publish(args, run_payload("fpt-jump", args, model), writers, results, t0)
    print(
        f"fpt-jump: wrote {', '.join(map(str, paths))} "
        f"(absorbed {results['absorbed_probability']:.6f}, {solution.domain})"
    )
    return EXIT_OK


def run_fpt_diffusion(args) -> int:
    model = resolve_model(args)
    grid = parse_grid(args.grid, args.delta) if args.grid else None
    options = _fpt_options(args, grid, "--grid")
    t0 = time.perf_counter()
    solution = solve_diffusion_fpt(
        model, grid=grid, delta=args.delta if grid is None else None, initial=args.start,
        **options,
    )
    # a threshold run that cannot summarise its series writes nothing
    results = conditional_moment_summary(solution.result, grid is not None)
    results["grid"] = [solution.domain.lower, solution.domain.upper]
    results["delta"] = solution.domain.delta
    writers = {"fpt_diffusion.csv": _series_writer(solution.result)}
    if float(solution.result.survival[-1]) > 1e-9:
        nodes, dens = conditioned_charge_distribution(solution.final_state)
        rows = zip(nodes.tolist(), dens.tolist())
        writers["final_distribution.csv"] = _rows_writer(["N", "density"], rows)
    paths = publish(args, run_payload("fpt-diffusion", args, model), writers, results, t0)
    print(
        f"fpt-diffusion: wrote {', '.join(map(str, paths))} "
        f"(absorbed {results['absorbed_probability']:.6f})"
    )
    return EXIT_OK


def run_trajectories(args) -> int:
    model = resolve_model(args)
    config = TrajectoryConfig(
        model,
        args.unravelling,
        ntraj=args.ntraj,
        horizon=args.horizon,
        dt=args.dt,
        seed=args.seed,
        initial=args.start,
        threshold=args.threshold,
        lower_threshold=args.lower_threshold,
    )
    t0 = time.perf_counter()
    if args.workers > 1:
        parts = partition_config(config, args.workers)
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            ensemble = merge_ensembles(list(pool.map(simulate, parts)))
    else:
        ensemble = simulate(config)
    rows = (
        (i, float(t), bool(c), float(q))
        for i, (t, c, q) in enumerate(
            zip(ensemble.hit_times, ensemble.censored, ensemble.final_charges)
        )
    )
    header = ["trajectory", "hit_time", "censored", "final_charge"]
    writers = {"trajectories.csv": _rows_writer(header, rows)}
    results = {
        "ntraj": ensemble.ntraj,
        "absorbed": int(ensemble.ntraj - ensemble.censored.sum()),
        "censored_fraction": ensemble.censored_fraction(),
        "dt": ensemble.dt,
        "positivity_repairs": ensemble.positivity_repairs,
    }
    hits = ensemble.absorbed_times()
    if hits.size > 0:
        writers["fpt_mc.csv"] = _series_writer(fpt_histogram(ensemble, args.bins))
        results["mean_hit_time"] = float(hits.mean())
    paths = publish(args, run_payload("trajectories", args, model), writers, results, t0)
    print(
        f"trajectories: wrote {', '.join(map(str, paths))} "
        f"(absorbed {results['absorbed']}/{ensemble.ntraj})"
    )
    return EXIT_OK


# kur_scan.csv columns, in KurReport field order
KUR_COLUMNS = [f.name for f in dataclasses.fields(KurReport)]


def run_kur_scan(args) -> int:
    if args.builtin not in (None, "thermal-qubit"):
        raise ConfigError("kur-scan supports only the thermal-qubit builtin")
    if args.model is not None:
        raise ConfigError(
            "kur-scan scans the thermal-qubit builtin; --model is not supported"
        )
    if args.omega is not None:
        raise ConfigError("kur-scan takes --omega-range, not --omega")
    omegas = parse_range(args.omega_range)
    gamma = args.gamma if args.gamma is not None else BUILTIN_DEFAULTS["gamma"]
    nbar = args.nbar if args.nbar is not None else BUILTIN_DEFAULTS["nbar"]
    t0 = time.perf_counter()
    reports = kur_scan(
        omegas,
        gamma=gamma,
        nbar=nbar,
        threshold=args.threshold,
    )
    payload = {
        "command": "kur-scan",
        "omega_range": args.omega_range,
        "gamma": gamma,
        "nbar": nbar,
        "threshold": args.threshold,
    }
    rows = [
        [getattr(r, col) for col in KUR_COLUMNS]
        for r in reports
    ]
    failed = [r for r in reports if r.status != "ok"]
    classical = [r for r in reports if r.status == "ok" and r.classical_violated]
    quantum = [r for r in reports if r.status == "ok" and r.quantum_violated]
    results = {
        "points": len(reports),
        "failed": len(failed),
        "classical_violations": len(classical),
        "quantum_violations": len(quantum),
    }
    paths = publish(args, payload, {"kur_scan.csv": _rows_writer(KUR_COLUMNS, rows)}, results, t0)
    print(
        f"kur-scan: wrote {paths[0]} "
        f"({len(reports)} points, {len(classical)} classical violations, "
        f"{len(failed)} failed)"
    )
    if failed and len(failed) == len(reports):
        raise ConvergenceError("every scan point failed; see the status column")
    if failed:
        print(f"warning: {len(failed)} scan points failed; see the status column",
              file=sys.stderr)
    if quantum:
        worst = max(quantum, key=lambda r: r.snr - r.quantum_bound)
        print(
            "physics assertion failed: SNR exceeds the quantum bound at "
            f"omega={worst.omega:g} (snr={worst.snr:.6g} > "
            f"bound={worst.quantum_bound:.6g})",
            file=sys.stderr,
        )
        return EXIT_PHYSICS
    return EXIT_OK


def run_validate(args) -> int:
    model = resolve_model(args)
    horizon = positive_finite(args.horizon, "horizon")
    delta = DEFAULT_RESOLUTION if args.delta is None else positive_finite(args.delta, "delta")
    if model.monitored:
        # refuse what no engine takes; a threshold only the jump engine
        # refuses is reported below
        real_threshold(args.threshold, +1)
    lines = [f"model: dim {model.dim}, {len(model.channels)} channels "
             f"({len(model.monitored)} monitored)"]
    lines.append("hamiltonian: Hermitian")
    generator = build_liouvillian(model)
    try:
        steady_state(generator)
    except DegenerateKernelError as exc:
        lines.append(f"steady state: NOT unique ({exc})")
        print("\n".join(lines))
        return EXIT_CONVERGENCE
    lines.append("steady state: unique")

    if np.abs(model.hamiltonian).max() == 0.0:
        lines.append("note: incoherent regime: Q=0 expected")

    jump_weights = bool(model.monitored)
    try:
        for ch in model.monitored:
            integer_weight(ch)
    except ModelError:
        jump_weights = False
    if jump_weights:
        # the same --threshold may still be a valid diffusion charge, so a
        # refused jump threshold is reported, not an error
        try:
            window, lower_open, upper_open = preview_window(
                model, args.threshold, None, horizon
            )
        except ConfigError as exc:
            lines.append(f"jump window preview: refused ({exc})")
        else:
            sides = (
                f"lower {'auto' if lower_open else 'fixed'}, "
                f"upper {'auto' if upper_open else 'fixed'}"
            )
            lines.append(
                f"jump window preview: [{window.lower}, {window.upper}] ({sides}), "
                f"{window.ncells * model.dim**2} coupled components"
            )
        scale = model.rate_scale()
        if scale == 0:
            # a model that only diffuses has no jump rate to set a step from
            lines.append("default jump step: none, the model has no jump dynamics")
        else:
            # the grid a solve would step, capped and logged as a solve does
            times = time_grid(horizon, default_step(scale))
            lines.append(f"default jump step: {times[1]:.3g} ({times.size} grid points)")

    if model.monitored:
        drift = build_drift_superoperator(model)
        if drift.diffusion > 0:
            pe = peclet_number(drift, delta)
            if pe > PECLET_LIMIT:
                lines.append(
                    f"warning: Peclet number {pe:.3g} at delta {delta:g} exceeds "
                    f"{PECLET_LIMIT:g}; refine --delta for a stable diffusion grid"
                )
            else:
                lines.append(f"diffusion grid: Peclet number {pe:.3g} at delta {delta:g}")

    print("\n".join(lines))
    return EXIT_OK


def _count(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model")
    group.add_argument("--model", help="model description file (JSON)")
    group.add_argument(
        "--builtin",
        choices=sorted(BUILTIN_PARAMS),
        help="named built-in model",
    )
    group.add_argument("--gamma", type=float, help="builtin decay rate")
    group.add_argument("--omega", type=float, help="builtin drive amplitude")
    group.add_argument("--nbar", type=float, help="builtin thermal occupation")


def _add_run_parser(sub, name: str, help: str, func) -> argparse.ArgumentParser:
    """A subcommand that solves a model and publishes into --outdir."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func)
    _add_model_arguments(parser)
    parser.add_argument(
        "--outdir",
        help=f"artifact directory (default: ${OUTDIR_ENV} or the current directory)",
    )
    return parser


START_HELP = "initial state: steady, maximally-mixed or basis:K (default: steady)"


def _add_fpt_arguments(parser: argparse.ArgumentParser, number_type, noun: str) -> None:
    """The flags both FPT engines take; thresholds are parsed as
    ``number_type`` and described as a ``noun``."""
    parser.add_argument(
        "--threshold", type=number_type, help=f"absorbing {noun} (positive)"
    )
    parser.add_argument(
        "--lower-threshold", type=number_type, help=f"absorbing {noun} (negative)"
    )
    parser.add_argument("--start", default="steady", help=START_HELP)
    parser.add_argument("--horizon", type=float, default=10.0)
    parser.add_argument("--dt", type=float, help="output time step")
    parser.add_argument(
        "--auto-tail", action="store_true",
        help="extend the horizon until the tail converges",
    )
    parser.add_argument("--tail-epsilon", type=float, default=TAIL_EPSILON)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfpt",
        description="First-passage-time engines for monitored open quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jump = _add_run_parser(sub, "fpt-jump", "deterministic counting-monitor FPT", run_fpt_jump)
    _add_fpt_arguments(jump, int, "count")
    jump.add_argument(
        "--window",
        help="explicit charge window lo:hi, containing 0",
    )

    diff = _add_run_parser(
        sub, "fpt-diffusion", "deterministic diffusive-monitor FPT", run_fpt_diffusion
    )
    _add_fpt_arguments(diff, float, "charge")
    diff.add_argument(
        "--grid",
        help="explicit charge grid lo:hi, straddling 0 (needs --delta)",
    )
    diff.add_argument("--delta", type=float, help="charge node spacing")

    traj = _add_run_parser(
        sub, "trajectories", "Monte Carlo trajectory ensemble", run_trajectories
    )
    traj.add_argument(
        "--unravelling", choices=("jump", "diffusion"), required=True
    )
    traj.add_argument("--ntraj", type=int, default=1000)
    traj.add_argument("--seed", type=int, default=0)
    traj.add_argument("--threshold", type=float)
    traj.add_argument("--lower-threshold", type=float)
    traj.add_argument("--start", default="steady", help=START_HELP)
    traj.add_argument("--horizon", type=float, default=10.0)
    traj.add_argument(
        "--dt", type=float,
        help="diffusion: integration step; jump trajectories are exact in time and take none",
    )
    traj.add_argument("--bins", type=_count, default=50, help="histogram bins")
    traj.add_argument("--workers", type=_count, default=1)

    scan = _add_run_parser(sub, "kur-scan", "precision bounds over a drive range", run_kur_scan)
    scan.add_argument(
        "--omega-range", required=True, help="drive grid lo:hi:count (linear)"
    )
    scan.add_argument("--threshold", type=int, default=5)
    scan.add_argument(
        "--workers", type=_count, default=1,
        help="accepted for compatibility; has no effect, the scan runs serially",
    )

    val = sub.add_parser("validate", help="dry-run configuration checks")
    _add_model_arguments(val)
    val.add_argument("--threshold", type=float, help="threshold to preview")
    val.add_argument("--delta", type=float, help="charge node spacing to check")
    val.add_argument("--horizon", type=float, default=10.0)
    val.set_defaults(func=run_validate)

    return parser


def _join_domain_values(argv: list[str]) -> list[str]:
    """Join ``--window -20:20`` into ``--window=-20:20``, and ``--grid``
    alike: argparse reads a separate value that starts with "-" as a flag."""
    joined: list[str] = []
    for token in argv:
        if (joined and joined[-1] in ("--window", "--grid")
                and token.startswith("-") and ":" in token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_domain_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except PhysicsError as exc:
        print(f"physics assertion failed: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
