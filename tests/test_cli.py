"""Command-line entry points: artifacts, determinism, and exit codes."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

import qfpt.cli as cli
from qfpt.jumps import ChargeWindow, charge_distribution, solve_jump_fpt
from qfpt.kur import KurReport
from qfpt.models import decay_qubit, model_payload, save_model, thermal_qubit, wiener_charge
from qfpt.operators import JumpChannel, LindbladModel

from .test_models import BOOLEAN_FIELDS, boolean_payload


def run(args, tmp_path):
    return cli.main([*args, "--outdir", str(tmp_path)])


def test_fpt_jump_artifacts(tmp_path):
    code = run(
        [
            "fpt-jump", "--builtin", "thermal-qubit", "--gamma", "1", "--omega", "1",
            "--nbar", "0.2", "--threshold", "3", "--horizon", "6",
        ],
        tmp_path,
    )
    assert code == 0
    csv = tmp_path / "fpt_jump.csv"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert csv.exists()
    assert manifest["config_hash"]
    assert "fpt_jump.csv" in manifest["artifacts"]
    assert manifest["versions"]["qfpt"]
    body = np.loadtxt(csv, delimiter=",", skiprows=3)
    assert body.shape[1] == 3
    assert body[0, 1] == 1.0


def test_fpt_jump_rerun_is_byte_identical(tmp_path):
    args = [
        "fpt-jump", "--builtin", "thermal-qubit", "--gamma", "1", "--omega", "1",
        "--nbar", "0.2", "--threshold", "3", "--horizon", "6",
    ]
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    assert run(args, a_dir) == 0
    assert run(args, b_dir) == 0
    assert (a_dir / "fpt_jump.csv").read_bytes() == (b_dir / "fpt_jump.csv").read_bytes()


def test_fpt_diffusion_artifacts(tmp_path):
    code = run(
        [
            "fpt-diffusion", "--builtin", "homodyne-qubit", "--gamma", "1",
            "--omega", "1", "--threshold", "1", "--delta", "0.05", "--horizon", "3",
        ],
        tmp_path,
    )
    assert code == 0
    assert (tmp_path / "fpt_diffusion.csv").exists()
    # survivors remain at this horizon, so the conditioned histogram is written
    assert (tmp_path / "final_distribution.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        "fpt-jump --builtin thermal-qubit --gamma 1 --omega 1 --nbar 0.2 --threshold 3 --horizon 6",
        "fpt-diffusion --builtin homodyne-qubit --gamma 1 --omega 1 --threshold 1 --delta 0.05 "
        "--horizon 3",
    ],
)
def test_manifest_moments_are_conditioned_on_absorption(argv, tmp_path):
    assert run(argv.split(), tmp_path) == 0
    results = json.loads((tmp_path / "manifest.json").read_text())["results"]
    assert 0.0 < results["absorbed_probability"] < 1.0
    assert results["horizon"] == float(argv.split()[-1])
    assert 0.0 < results["mean_fpt_given_absorbed"] < results["horizon"]
    assert results["var_fpt_given_absorbed"] > 0.0
    assert results["snr_given_absorbed"] > 0.0
    assert not {"mean_fpt", "var_fpt", "snr"} & set(results)


def test_trajectories_parallel_matches_serial(tmp_path):
    base = [
        "trajectories", "--builtin", "thermal-qubit", "--gamma", "1", "--omega", "1",
        "--nbar", "0.2", "--unravelling", "jump", "--ntraj", "60", "--seed", "5",
        "--threshold", "2", "--horizon", "4",
    ]
    a_dir = tmp_path / "serial"
    b_dir = tmp_path / "parallel"
    a_dir.mkdir(), b_dir.mkdir()
    assert run(base, a_dir) == 0
    assert run([*base, "--workers", "3"], b_dir) == 0
    assert (a_dir / "trajectories.csv").read_bytes() == (b_dir / "trajectories.csv").read_bytes()
    assert (a_dir / "fpt_mc.csv").read_bytes() == (b_dir / "fpt_mc.csv").read_bytes()
    # jump trajectories are exact in time and take no step
    assert json.loads((a_dir / "manifest.json").read_text())["results"]["dt"] is None


def test_outdir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    code = cli.main(
        [
            "fpt-jump", "--builtin", "thermal-qubit", "--gamma", "1", "--omega", "1",
            "--nbar", "0.1", "--threshold", "2", "--horizon", "4",
        ]
    )
    assert code == 0
    assert (tmp_path / "fpt_jump.csv").exists()


def test_model_file_and_builtin_conflict(tmp_path):
    path = tmp_path / "model.json"
    save_model(decay_qubit(1.0), path)
    code = run(
        ["fpt-jump", "--model", str(path), "--builtin", "thermal-qubit",
         "--threshold", "1"],
        tmp_path,
    )
    assert code == cli.EXIT_CONFIG


def test_builtin_params_rejected_with_model_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(decay_qubit(1.0), path)
    code = run(
        ["fpt-jump", "--model", str(path), "--gamma", "2", "--threshold", "1"],
        tmp_path,
    )
    assert code == cli.EXIT_CONFIG


def test_bad_model_file_exits_config(tmp_path):
    payload = model_payload(decay_qubit(1.0))
    payload["surprise"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = run(["fpt-jump", "--model", str(path), "--threshold", "1"], tmp_path)
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("field", BOOLEAN_FIELDS)
def test_boolean_in_model_file_exits_config(field, tmp_path, monkeypatch):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(boolean_payload(field)))
    # validate has no --outdir, so it runs where a stray write would land
    monkeypatch.chdir(tmp_path)
    assert cli.main(["validate", "--model", str(path)]) == cli.EXIT_CONFIG
    code = run(["fpt-jump", "--model", str(path), "--threshold", "1"], tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert [p.name for p in tmp_path.iterdir()] == ["bool.json"]


def test_huge_channel_weight_exits_config_before_assembly(tmp_path, capsys):
    # the weight sizes a first window of about 1e201 cells, refused before
    # any array of that length is asked for
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "dim": 1, "hamiltonian": [[0.0, 0.0]],
        "channels": [{"operator": [[1.0, 0.0]], "weight": 1e200}],
    }))
    code = run(["fpt-jump", "--model", str(path), "--threshold", "1"], tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert "unknowns, past the 65536 an open side may reach" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["huge.json"]


def test_kur_scan_rejects_omega_flag(tmp_path, capsys):
    code = run(
        ["kur-scan", "--omega-range", "0.5:1:2", "--omega", "1"],
        tmp_path,
    )
    assert code == cli.EXIT_CONFIG
    assert "omega-range" in capsys.readouterr().err


def test_kur_scan_artifacts(tmp_path):
    code = run(
        ["kur-scan", "--omega-range", "0.4:0.6:2", "--nbar", "0.1",
         "--threshold", "3"],
        tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "kur_scan.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[:4] == ["omega", "gamma", "nbar", "activity"]
    assert len(lines) == 4


def test_kur_scan_unreachable_point_exits_convergence(tmp_path, capsys):
    # undriven and cold: the counter never fires
    code = run(
        ["kur-scan", "--omega-range", "0:0:1", "--nbar", "0", "--threshold", "5"],
        tmp_path,
    )
    assert code == cli.EXIT_CONVERGENCE
    assert "unreachable" in (tmp_path / "kur_scan.csv").read_text()


def test_kur_scan_failed_point_keeps_the_columns(tmp_path):
    # the omega = 0 point fails with a reason that holds a comma
    code = run(
        ["kur-scan", "--omega-range", "0:1:2", "--nbar", "0", "--threshold", "5"],
        tmp_path,
    )
    assert code == 0
    with open(tmp_path / "kur_scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [len(row) for row in rows] == [14, 14, 14]
    failed, ok = rows[1], rows[2]
    assert failed[-1].startswith("failed: threshold 5 is unreachable")
    assert failed[-1] == "failed: threshold 5 is unreachable from the steady state on window [-9, 4]"
    assert ok[-1] == "ok"


def test_fpt_jump_auto_tail_unreachable_exits_convergence(tmp_path, capsys):
    # undriven and cold: refused before any time stepping
    code = run(
        [
            "fpt-jump", "--builtin", "thermal-qubit", "--gamma", "1", "--omega", "0",
            "--nbar", "0", "--threshold", "5", "--horizon", "10", "--auto-tail",
        ],
        tmp_path,
    )
    assert code == cli.EXIT_CONVERGENCE
    assert "unreachable from the initial state" in capsys.readouterr().err


def test_fpt_jump_failed_summary_writes_no_csv(tmp_path):
    # n̄ = 0 never lowers the charge, so nothing is absorbed and the
    # moment summary refuses; the run must not leave a series behind
    code = run(
        [
            "fpt-jump", "--builtin", "thermal-qubit", "--lower-threshold", "-3",
            "--horizon", "10",
        ],
        tmp_path,
    )
    assert code == cli.EXIT_CONVERGENCE
    assert not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "manifest.json").exists()


def test_kur_scan_all_failed_exits_convergence(tmp_path, monkeypatch):
    def fake_scan(omegas, **kwargs):
        return [KurReport.failed(o, 1.0, 0.0, "nope") for o in omegas]

    monkeypatch.setattr(cli, "kur_scan", fake_scan)
    code = run(["kur-scan", "--omega-range", "0.5:1:2"], tmp_path)
    assert code == cli.EXIT_CONVERGENCE


def test_kur_scan_quantum_violation_exits_physics(tmp_path, monkeypatch):
    def fake_scan(omegas, **kwargs):
        return [
            KurReport(
                omega=o, gamma=1.0, nbar=0.0, activity=1.0,
                quantum_correction=0.1, mean_fpt=1.0, var_fpt=0.1,
                snr=20.0, classical_bound=1.0, quantum_bound=1.1,
                classical_violated=True, quantum_violated=True,
                absorbed_probability=1.0,
            )
            for o in omegas
        ]

    monkeypatch.setattr(cli, "kur_scan", fake_scan)
    code = run(["kur-scan", "--omega-range", "0.5:1:2"], tmp_path)
    assert code == cli.EXIT_PHYSICS
    # artifacts are still written before the failure is signalled
    assert (tmp_path / "kur_scan.csv").exists()


def test_validate_reports_incoherent_note(capsys):
    code = cli.main(
        ["validate", "--builtin", "thermal-qubit", "--gamma", "1", "--omega", "0",
         "--nbar", "0.3", "--threshold", "4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "incoherent regime" in out
    assert "window" in out


def test_validate_checks_diffusion_spacing(capsys):
    code = cli.main(
        ["validate", "--builtin", "homodyne-qubit", "--gamma", "1", "--omega", "1",
         "--threshold", "1.5", "--delta", "0.05"]
    )
    assert code == 0
    assert "Peclet" in capsys.readouterr().out


def test_validate_takes_a_model_that_only_diffuses(tmp_path, monkeypatch, capsys):
    # a Wiener charge has no jump rate to set a default step from, but
    # fpt-diffusion runs on it
    path = tmp_path / "wiener.json"
    save_model(wiener_charge(), path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["validate", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert "default jump step: none" in out
    assert "diffusion grid: Peclet number" in out


def test_validate_refuses_fractional_jump_threshold(capsys):
    code = cli.main(
        ["validate", "--builtin", "thermal-qubit", "--gamma", "1", "--omega", "1",
         "--nbar", "0.2", "--threshold", "2.5"]
    )
    # the same threshold is a valid diffusion charge, so validate still passes
    assert code == 0
    out = capsys.readouterr().out
    assert "upper threshold must be a positive integer, got 2.5" in out
    assert "jump window preview: [" not in out


def test_validate_reads_the_capped_grid_a_solve_would_step(capsys, caplog):
    # step 0.002 to horizon 1000 would need 500,001 points; validate reports
    # the grid time_grid caps at 200,000, with the warning a solve logs
    assert cli.main(["validate", "--builtin", "thermal-qubit", "--horizon", "1000"]) == 0
    assert "default jump step: 0.005 (200000 grid points)" in capsys.readouterr().out
    assert "capping time grid at 200000 points (dt 0.002 -> 0.005)" in caplog.text


OVERFLOWING_WEIGHT = {
    "dim": 1,
    "hamiltonian": [[0.0, 0.0]],
    "channels": [{"operator": [[1.0, 0.0]], "weight": 1e200}],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["fpt-diffusion", "--threshold", "1"],
        ["validate", "--threshold", "1"],
        ["trajectories", "--unravelling", "diffusion", "--ntraj", "4", "--threshold", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_overflowing_weight_exits_config(argv, tmp_path, monkeypatch, capsys):
    # its square overflows the diffusion constant D, which every diffusive
    # command reads off build_drift_superoperator
    path = tmp_path / "model.json"
    path.write_text(json.dumps(OVERFLOWING_WEIGHT))
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "out"))
    assert cli.main([*argv, "--model", str(path)]) == cli.EXIT_CONFIG
    assert "the diffusion constant D" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_builtin_exits_config(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["fpt-jump", "--builtin", "nonsense", "--threshold", "1"], tmp_path)
    assert exc.value.code == 2


def test_config_hash_ignores_outdir(tmp_path):
    args = [
        "fpt-jump", "--builtin", "thermal-qubit", "--gamma", "1", "--omega", "1",
        "--nbar", "0.2", "--threshold", "2", "--horizon", "4",
    ]
    a_dir = tmp_path / "one"
    b_dir = tmp_path / "two"
    a_dir.mkdir(), b_dir.mkdir()
    run(args, a_dir)
    run(args, b_dir)
    ha = json.loads((a_dir / "manifest.json").read_text())["config_hash"]
    hb = json.loads((b_dir / "manifest.json").read_text())["config_hash"]
    assert ha == hb


def test_trajectories_fractional_jump_threshold_exits_config(tmp_path, capsys):
    code = run(
        [
            "trajectories", "--builtin", "thermal-qubit", "--unravelling", "jump",
            "--ntraj", "8", "--threshold", "2.5",
        ],
        tmp_path,
    )
    assert code == 2
    assert "integer" in capsys.readouterr().err
    assert not (tmp_path / "trajectories.csv").exists()


QUBIT = "--builtin thermal-qubit --gamma 1 --omega 1 --nbar 0.2"
COMMANDS = {
    "fpt-jump": f"fpt-jump {QUBIT} --threshold 3",
    "fpt-diffusion": "fpt-diffusion --builtin homodyne-qubit --threshold 1 --delta 0.05",
    "trajectories": f"trajectories {QUBIT} --unravelling jump --ntraj 8 --threshold 3",
    "kur-scan": "kur-scan --omega-range 1:1:1",
    "validate": f"validate {QUBIT}",
}
HORIZON = "horizon must be positive and finite"
STEP = "dt must be positive and finite"
DELTA = "delta must be positive and finite"
GAMMA = "gamma must be positive and finite"
NBAR = "nbar must be nonnegative and finite"
RANGE = "has a non-finite bound"
OUT_OF_RANGE = [
    ("fpt-jump", "--horizon nan", HORIZON),
    ("fpt-jump", "--horizon inf", HORIZON),
    ("fpt-jump", "--dt nan", STEP),
    ("fpt-jump", "--dt inf", STEP),
    ("fpt-diffusion", "--horizon nan", HORIZON),
    ("trajectories", "--horizon nan", HORIZON),
    ("trajectories", "--horizon inf", HORIZON),
    ("trajectories", "--dt nan", STEP),
    ("validate", "--horizon nan", HORIZON),
    ("validate", "--horizon 0", HORIZON),
    ("validate", "--horizon -1", HORIZON),
    ("fpt-jump", "--horizon 5 --auto-tail --tail-epsilon 0", "tail epsilon"),
    ("fpt-jump", "--horizon 5 --auto-tail --tail-epsilon nan", "tail epsilon"),
    ("fpt-jump", "--horizon 5 --auto-tail --tail-epsilon 2", "tail epsilon"),
    ("fpt-diffusion", "--horizon 3 --auto-tail --tail-epsilon 2", "tail epsilon"),
    ("kur-scan", "--threshold 0", "upper threshold must be a positive integer"),
    ("kur-scan", "--threshold -2", "upper threshold must be a positive integer"),
    ("trajectories", "--bins 0", "--bins: must be at least 1"),
    ("trajectories", "--workers 0", "--workers: must be at least 1"),
    ("kur-scan", "--workers 0", "--workers: must be at least 1"),
    ("fpt-diffusion", "--delta 0", DELTA),
    ("fpt-diffusion", "--delta nan", DELTA),
    ("fpt-diffusion", "--delta -0.01", DELTA),
    ("fpt-diffusion", "--delta inf", DELTA),
    ("validate", "--delta 0", DELTA),
    ("validate", "--delta nan", DELTA),
    ("validate", "--delta -1", DELTA),
    ("kur-scan", "--gamma nan", GAMMA),
    ("kur-scan", "--gamma inf", GAMMA),
    ("kur-scan", "--nbar nan", NBAR),
    ("kur-scan", "--nbar inf", NBAR),
    # the builtin models refuse these, whichever command builds them
    ("fpt-jump", "--gamma nan", GAMMA),
    ("fpt-diffusion", "--gamma inf", GAMMA),
    ("validate", "--nbar nan", NBAR),
    ("kur-scan", "--omega-range 0:nan:3", RANGE),
    ("kur-scan", "--omega-range 0:inf:3", RANGE),
    ("validate", "--threshold nan", "upper threshold must be finite"),
    ("validate", "--threshold inf", "upper threshold must be finite"),
    ("validate", "--threshold 0", "upper threshold must be positive"),
    ("fpt-jump", "--window 3", "not of the form lo:hi"),
    ("fpt-jump", "--window=a:3", "non-integer bound"),
    ("kur-scan", "--omega-range 0:1", "not of the form lo:hi:count"),
]


@pytest.mark.parametrize(
    "command, options, message", OUT_OF_RANGE, ids=[f"{c} {o}" for c, o, _ in OUT_OF_RANGE]
)
def test_out_of_range_numbers_exit_config(command, options, message, tmp_path, monkeypatch, capsys):
    # validate takes no --outdir, so every command writes through the env
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    try:
        code = cli.main(f"{COMMANDS[command]} {options}".split())
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_trajectories_bad_start_exits_config_before_any_worker(tmp_path, monkeypatch, capsys):
    # the config refuses the spec, so no pool is ever made
    monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
    argv = f"{COMMANDS['trajectories']} --start basis:9 --workers 2".split()
    assert run(argv, tmp_path) == cli.EXIT_CONFIG
    assert "basis index 9 outside 0..1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (f"fpt-jump {QUBIT}", "needs --threshold, --lower-threshold or --window"),
        ("fpt-diffusion --builtin homodyne-qubit --grid=-1:1", "needs --delta"),
    ],
)
def test_fpt_run_without_a_domain_exits_config(argv, message, tmp_path, capsys):
    assert run(argv.split(), tmp_path) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, csv, key, domain",
    [
        # a bound that starts with "-" reads as a flag unless joined by "="
        ("fpt-jump --builtin thermal-qubit --nbar 0.2 --window=-6:3 --horizon 2",
         "fpt_jump.csv", "window", [-6, 3]),
        ("fpt-diffusion --builtin homodyne-qubit --grid=-1:1 --delta 0.05 --horizon 1",
         "fpt_diffusion.csv", "grid", [-1.0, 1.0]),
    ],
)
def test_explicit_domain_with_negative_bound(argv, csv, key, domain, tmp_path):
    assert run(argv.split(), tmp_path) == 0
    assert (tmp_path / csv).exists()
    assert json.loads((tmp_path / "manifest.json").read_text())["results"][key] == domain


@pytest.mark.parametrize(
    "argv, flag, csv",
    [
        ("fpt-jump --builtin thermal-qubit --nbar 0.2 --horizon 2", "--window", "fpt_jump.csv"),
        ("fpt-diffusion --builtin homodyne-qubit --delta 0.05 --horizon 1", "--grid",
         "fpt_diffusion.csv"),
    ],
)
def test_domain_written_apart_parses_like_joined(argv, flag, csv, tmp_path):
    joined, apart = tmp_path / "joined", tmp_path / "apart"
    assert run([*argv.split(), f"{flag}=-1:3"], joined) == 0
    assert run([*argv.split(), flag, "-1:3"], apart) == 0
    assert (apart / csv).read_bytes() == (joined / csv).read_bytes()
    config = [json.loads((out / "manifest.json").read_text())["config"] for out in (joined, apart)]
    assert config[0] == config[1]


@pytest.mark.parametrize(
    "argv, artifacts",
    [
        # the README's way to read P(N, t): nothing reaches the edges by t = 2
        ("fpt-jump --builtin thermal-qubit --window -20:20 --horizon 2",
         ["fpt_jump.csv", "final_distribution.csv"]),
        ("fpt-diffusion --builtin homodyne-qubit --grid -8:8 --delta 0.05 --horizon 0.3",
         ["fpt_diffusion.csv", "final_distribution.csv"]),
    ],
)
def test_explicit_domain_that_absorbs_nothing_is_published(argv, artifacts, tmp_path):
    assert run(argv.split(), tmp_path) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["artifacts"] == artifacts
    assert all((tmp_path / name).exists() for name in artifacts)
    results = manifest["results"]
    assert abs(results["absorbed_probability"]) < 1e-12
    for key in ("mean_fpt_given_absorbed", "var_fpt_given_absorbed", "snr_given_absorbed"):
        assert results[key] is None


def test_fpt_jump_writes_the_charge_distribution_of_a_window(tmp_path):
    # the README's P(N, t): the window's cell traces, normalised
    argv = ("fpt-jump --builtin thermal-qubit --gamma 1 --omega 1 --nbar 0.2 "
            "--window -20:20 --horizon 2").split()
    assert run(argv, tmp_path) == cli.EXIT_OK
    with open(tmp_path / "final_distribution.csv") as fh:
        assert fh.readline().startswith("# config_hash=")
        rows = list(csv.DictReader(fh))
    charges = [int(row["N"]) for row in rows]
    probability = np.array([float(row["probability"]) for row in rows])
    assert probability.sum() == pytest.approx(1.0, abs=1e-11)
    model = thermal_qubit(1.0, 1.0, 0.2)
    solution = solve_jump_fpt(model, window=ChargeWindow(-20, 20), horizon=2.0)
    expected = charge_distribution(solution.final_state)
    assert charges == list(expected)
    total = sum(expected.values())
    normalised = [p / total for p in expected.values()]
    assert probability == pytest.approx(normalised, rel=1e-11, abs=1e-300)


# The configuration hash is written into every CSV header, so renaming a
# flag or changing its type changes CSV bytes; these pin the README commands.
# A deliberate change updates the literal.
README_HASHES = [
    ("fpt-jump --builtin thermal-qubit --gamma 1 --omega 1 --nbar 0.2 --threshold 5 "
     "--horizon 50 --auto-tail",
     "0fcc0b8b2facfd1da213645270041fdf8f6625176bccff8380b722a5ed7f8684"),
    ("fpt-diffusion --builtin homodyne-qubit --gamma 1 --omega 1 --threshold 1 --horizon 6",
     "53ac646a974a2e8a154734b79ba74b08eff977dc036bc7accf6d3f01578d9fb1"),
    *(
        (f"trajectories --builtin homodyne-qubit --gamma 1 --omega 1 --unravelling diffusion "
         f"--ntraj 10000 --threshold 1 --horizon 6 --seed 42 --workers {workers}",
         "d462fea11c58cdebb619a3ca384ee59e26297ccd93d21f2963ebaac8138b299e")
        for workers in (1, 4)
    ),
]


@pytest.mark.parametrize("argv, expected", README_HASHES)
def test_config_hash_of_readme_commands(argv, expected):
    args = cli.build_parser().parse_args(argv.split())
    payload = cli.run_payload(args.command, args, cli.resolve_model(args))
    assert cli.config_hash(payload) == expected


def test_config_hash_of_readme_kur_scan(tmp_path):
    # kur-scan hashes the resolved gamma and nbar, so it is read from a run
    argv = "kur-scan --omega-range 0.1:5:10 --nbar 0.1 --threshold 5".split()
    assert run(argv, tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config_hash"] == (
        "1e7d4946912b4ef1d09e1b280887c32bd3c5547982ff37975ebae45a4eba1ed6"
    )


def test_validate_of_a_steady_state_that_is_not_unique_exits_convergence(tmp_path, capsys):
    # pure dephasing keeps every diagonal state, so the kernel of L is two
    # dimensional
    path = tmp_path / "dephasing.json"
    save_model(LindbladModel(np.zeros((2, 2)), (JumpChannel(np.diag([1.0, -1.0])),)), path)
    assert cli.main(["validate", "--model", str(path)]) == cli.EXIT_CONVERGENCE
    assert "steady state: NOT unique" in capsys.readouterr().out


def test_lower_threshold_one_spacing_below_zero_exits_config(tmp_path, capsys):
    # at spacing 0.01 its ghost would be the node next to 0, leaving no
    # interior node below 0
    argv = ["fpt-diffusion", "--builtin", "homodyne-qubit", "--gamma", "1", "--omega", "1",
            "--lower-threshold", "-0.01", "--threshold", "1", "--horizon", "1"]
    assert run(argv, tmp_path) == cli.EXIT_CONFIG
    assert "pass a finer delta or an explicit grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
