"""Contracts between the package and the benchmark harness in perfbench/."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    # Tracer.install looks up every TRACED name with getattr, so renaming
    # one of these functions breaks the benchmark's --trace run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"qfpt.{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qfpt.{layer}"), name, None))
    ]
    assert tracing.TRACED and not missing
