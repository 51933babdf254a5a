"""Contracts between the package, its README and the benchmark harness in
perfbench/."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import qfpt
from qfpt import cli
from qfpt.diffusion import solve_diffusion_fpt
from qfpt.jumps import solve_jump_fpt
from qfpt.models import homodyne_qubit, thermal_qubit
from qfpt.propagation import DENSE_CUTOFF

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    # Tracer.install looks up every TRACED name with getattr, so renaming
    # one of these functions breaks the benchmark's --trace run
    tracing = _tracing()
    missing = [
        f"qfpt.{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qfpt.{layer}"), name, None))
    ]
    assert tracing.TRACED and not missing


def test_tracer_sees_propagation_chunks():
    # the --trace run wraps propagate_uniform as an iterator; both
    # backends must still yield through the wrapper
    tracer = _tracing().Tracer()
    tracer.install(qfpt)
    try:
        qfpt.jumps.solve_jump_fpt(thermal_qubit(1.0, 1.0, 0.2), threshold=2, horizon=1.0)
        qfpt.diffusion.solve_diffusion_fpt(
            homodyne_qubit(1.0, 1.0), threshold=0.5, delta=0.01, horizon=0.1
        )
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s["name"] == "propagation.propagate_uniform"]
    assert any(s["yields"] >= 1 and s["unknowns"] <= DENSE_CUTOFF for s in spans)
    assert any(s["yields"] >= 1 and s["unknowns"] > DENSE_CUTOFF for s in spans)
    assert qfpt.jumps.solve_jump_fpt is solve_jump_fpt
    assert qfpt.diffusion.solve_diffusion_fpt is solve_diffusion_fpt


def test_readme_commands_parse():
    # every command of the README's command-line block must still parse,
    # flags and values alike; parse_args exits on any it does not accept
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [line.split()[1:] for line in lines if line.startswith("qfpt ")]
    assert len(commands) == 5
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]
