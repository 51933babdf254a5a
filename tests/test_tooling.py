"""Contracts between the package, its README and the benchmark harness in
perfbench/."""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import qfpt
from qfpt import cli
from qfpt.diffusion import solve_diffusion_fpt
from qfpt.jumps import solve_jump_fpt
from qfpt.models import homodyne_qubit, thermal_qubit
from qfpt.propagation import DENSE_CUTOFF

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "qfpt"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    # Tracer.install looks up every TRACED name with getattr, so renaming
    # one of these functions breaks the benchmark's --trace run
    tracing = _load("tracing")
    missing = [
        f"qfpt.{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qfpt.{layer}"), name, None))
    ]
    assert tracing.TRACED and not missing


def _mentions(tree: ast.AST, module: str, names: set[str], scope: str = "") -> list[tuple[str, str]]:
    """(module.function, source) of every name, attribute, import alias or
    string constant under ``tree`` that is one of ``names``, outermost
    first."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((f"{module}.{scope}", ast.unparse(node)))
            continue
        if (
            (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.alias) and {node.name, node.asname} & names)
            or (isinstance(node, ast.Constant) and node.value in names)
        ):
            found.append((f"{module}.{scope}", ast.unparse(node)))
        found += _mentions(node, module, names, inner)
    return found


def _package_mentions(names: set[str]) -> list[tuple[str, str]]:
    return [
        hit
        for path in sorted(PACKAGE.glob("*.py"))
        for hit in _mentions(ast.parse(path.read_text()), path.stem, names)
    ]


def test_no_module_calls_sparse_lu():
    # every LU is the real band LU of propagation._band_factor; SuperLU
    # would bring back a second routine and its column order
    assert _package_mentions({"splu", "spsolve"}) == []


def test_band_lu_is_fetched_in_one_helper():
    # _band_factor alone fetches ?gbtrf, ?gbtrs and ?tbsv by dtype: it owns
    # the band storage, the bandwidths and the pivot check that picks the
    # triangular solves or ?gbtrs
    mentions = _package_mentions({"gbtrf", "gbtrs", "tbsv", "get_lapack_funcs", "get_blas_funcs"})
    helper = "propagation._band_factor"
    assert {scope for scope, _ in mentions} <= {helper, f"{helper}.solve"}
    assert [source for _, source in mentions if "get_" in source] == [
        "scipy.linalg.get_lapack_funcs", "scipy.linalg.get_blas_funcs",
    ]
    fetched = [source for scope, source in mentions if scope == helper and source.startswith("'")]
    assert fetched == ["'gbtrf'", "'gbtrs'", "'tbsv'"]


def test_superoperators_are_built_in_operators_only():
    # operators alone turns matrices into superoperators, so the Liouvillian,
    # its halves and every engine block come from one set of builders, and
    # no engine can assemble a second copy of a generator
    mentions = _package_mentions({"left_multiplier", "right_multiplier", "sandwich"})
    assert mentions and {scope.split(".")[0] for scope, _ in mentions} == {"operators"}


def _unread_bindings(tree: ast.Module) -> set[str]:
    """Names an import binds, dotted as imported, and a module-level
    ``logger``, that nothing in ``tree`` reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    bound |= {
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name) and target.id == "logger"
    }
    # every read name, and every dotted read such as scipy.sparse.linalg.splu
    read = {
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return {name for name in bound if not any(r == name or r.startswith(name + ".") for r in read)}


def test_every_import_and_logger_is_read():
    # an import or a logger that its module never reads is dead code, and
    # one left behind by a refactor hides which layer still needs what
    unread = {
        path.stem: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unread_bindings(ast.parse(path.read_text())))
    }
    assert unread == {}


def test_no_module_imports_a_private_name():
    # a rule behind a private name belongs to the module that defines it;
    # a sibling that imports the name keeps a second copy of the rule
    private = {
        (path.stem, f"from .{node.module or ''} import {alias.name}")
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_")
    }
    assert private == set()


def test_every_module_constant_is_read():
    # a module-level UPPER_CASE constant that neither the package, its
    # tests nor the benchmark reads is a setting nothing obeys
    constants = {
        target.id: path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for root in (PACKAGE, ROOT / "tests", PERFBENCH)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert {name: module for name, module in constants.items() if name not in read} == {}


def test_cli_import_loads_no_quadrature_or_special_functions():
    # the package integrates its series with numpy alone; scipy.integrate
    # would pull scipy.special and scipy.optimize into every process
    src = str(Path(qfpt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qfpt.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    assert "qfpt.cli" in out
    assert not {"scipy.integrate", "scipy.special", "scipy.optimize"} & set(out)


def test_tracer_sees_propagation_chunks():
    # the --trace run wraps propagate_uniform as an iterator; both
    # backends must still yield through the wrapper
    tracer = _load("tracing").Tracer()
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


def test_tracer_annotates_simulate_spans():
    # the --trace run reads these ensemble fields into the trajectories
    # layer, so renaming one must fail here rather than in the benchmark
    tracer = _load("tracing").Tracer()
    tracer.install(qfpt)
    try:
        qfpt.trajectories.simulate(qfpt.trajectories.TrajectoryConfig(
            thermal_qubit(1.0, 1.0, 0.2), "jump", 4, 1.0, seed=1, threshold=2,
        ))
        qfpt.trajectories.simulate(qfpt.trajectories.TrajectoryConfig(
            homodyne_qubit(1.0, 1.0), "diffusion", 4, 0.1, dt=0.01, seed=1, threshold=0.5,
        ))
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s["name"] == "trajectories.simulate"]
    assert len(spans) == 2
    for span in spans:
        assert span["ntraj"] == 4 and span["steps"] > 0 and "jumps" in span
    assert spans[0]["jumps"] > 0 and spans[1]["jumps"] == 0


def test_benchmark_ensemble_check_reads_live_fields(monkeypatch):
    # mc-oracle compares reruns and partitions field by field, so renaming
    # a field it reads must fail here rather than in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    same = _load("workloads")._same_ensemble
    traj = qfpt.trajectories
    for unravelling, model, threshold in (
        ("jump", thermal_qubit(1.0, 1.0, 0.2), 2),
        ("diffusion", homodyne_qubit(1.0, 1.0), 0.5),
    ):
        config = traj.TrajectoryConfig(model, unravelling, 4, 0.5, dt=0.01, seed=1, threshold=threshold)
        ensemble = traj.simulate(config)
        merged = traj.merge_ensembles([traj.simulate(p) for p in traj.partition_config(config, 2)])
        assert same(ensemble, merged)
        assert not same(ensemble, traj.simulate(dataclasses.replace(config, seed=2)))


def test_benchmark_workloads_build_and_parse(monkeypatch, tmp_path):
    # the workloads pass TrajectoryConfig fields and command-line flags
    # that the package must keep; building the Monte Carlo configs and
    # parsing every command line, without running them, catches a removal
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load("workloads")
    oracle = workloads.McOracle(qfpt, tmp_path, seed=0)
    assert set(oracle.configs) == {"jump", "diffusion"}
    parser = cli.build_parser()
    commands = []
    for workload in (workloads.JumpEngine, workloads.DiffusionEngine):
        engine = workload(qfpt, tmp_path, seed=0)
        for _, op, _ in engine.ops:
            if isinstance(op, functools.partial) and op.func == engine.cli:
                argv = op.args[1]
                assert parser.parse_args(argv).command == argv[0]
                commands.append(argv[0])
    assert set(commands) == {"fpt-jump", "kur-scan", "fpt-diffusion"}


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


def test_readme_python_blocks_run_and_exports_resolve():
    # the README's library blocks build on each other, so they share one
    # namespace, in order
    text = (ROOT / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert [name for name in qfpt.__all__ if not hasattr(qfpt, name)] == []


def test_cli_import_builds_no_format_table():
    # the series formatter's tables are built on the first write, once,
    # not by every process that imports the command line
    src = str(Path(qfpt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = """
import io, sys, tempfile
import numpy as np
import qfpt.cli
from qfpt import analysis
assert not [k for k, v in vars(analysis).items() if isinstance(v, np.ndarray)]
print(analysis._format_tables.cache_info().misses)
t = np.linspace(0.0, 1.0, 5)
result = analysis.FptResult(t, np.zeros(5), np.ones(5), "deterministic-jump")
with tempfile.TemporaryDirectory() as tmp:
    for name in ("a.csv", "b.csv"):
        analysis.write_series_csv(f"{tmp}/{name}", result)
info = analysis._format_tables.cache_info()
print(info.misses, info.hits)
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    # two writes of one chunk each: the writer and formatted_bytes read
    # the tables four times, and build them once
    assert out == ["0", "1", "3"]
