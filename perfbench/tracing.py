"""Span tracing of the package's layers, applied from outside the package.

``Tracer.install`` replaces the public functions listed in ``TRACED`` in
every ``qfpt`` module namespace that holds them (modules import each other's
functions by name), plus the two factorisations the propagation layer calls
through ``scipy``.  Each call becomes a span with a name, start, end and
parent; spans stay in memory until ``write`` dumps them.

``propagate_uniform`` returns a lazy iterator whose steps interleave with
the caller's per-step observable extraction, so its span counts only the
time spent inside ``next()`` (``busy``), and the number of yields.  A span's
self time is its busy time minus the busy time of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types

# layer -> public functions whose calls are spans of that layer
TRACED = {
    "cli": ("main",),
    "kur": ("kur_point", "dynamical_activity", "quantum_correction"),
    "operators": ("steady_state", "drazin_inverse"),
    "jumps": ("solve_jump_fpt", "build_block_generator"),
    "diffusion": ("solve_diffusion_fpt", "build_fokker_planck_generator", "mean_charge_path"),
    "propagation": ("propagate_uniform", "absorption_horizon_guess"),
    "analysis": ("integrate_moments", "write_series_csv"),
    "trajectories": ("simulate",),
}
FACTORISATIONS = (("scipy.linalg", "expm"), ("scipy.sparse.linalg", "splu"))


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, push: bool = True) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "busy": 0.0,
        }
        self.spans.append(span)
        if push:
            self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["busy"] = span["end"] - span["start"]
        self._stack.pop()

    def _wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, kwargs, result)
                return result
            finally:
                self._close(span)

        return traced

    def _wrap_iterator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(matrix, x0, times, **kwargs):
            inner = fn(matrix, x0, times, **kwargs)
            span = tracer._open(name, push=False)
            span.update(unknowns=int(matrix.shape[0]), points=int(len(times)),
                        horizon=float(times[-1]), yields=0)
            return _TracedSteps(tracer, span, inner)

        return traced

    def install(self, package) -> None:
        """Patch every module of ``package`` that binds a traced function."""
        layers = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in TRACED}
        wrappers = {}
        for layer, names in TRACED.items():
            home = layers[layer]
            for fname in names:
                original = getattr(home, fname)
                span_name = f"{layer}.{fname}"
                if fname == "propagate_uniform":
                    wrappers[original] = self._wrap_iterator(span_name, original)
                else:
                    wrappers[original] = self._wrap(span_name, original, _ANNOTATE.get(fname))
        for module in [package, *layers.values()]:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for modname, fname in FACTORISATIONS:
            module = importlib.import_module(modname)
            original = getattr(module, fname)
            self._restore.append((module, fname, original))
            setattr(module, fname, self._wrap(f"propagation.{fname}", original))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)


class _TracedSteps:
    """Iterator proxy charging the time inside ``next()`` to one span."""

    def __init__(self, tracer: Tracer, span: dict, inner):
        self._tracer = tracer
        self._span = span
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        span = self._span
        self._tracer._stack.append(span)
        t0 = time.perf_counter()
        try:
            item = next(self._inner)
        except StopIteration:
            span["end"] = time.perf_counter()
            raise
        finally:
            span["busy"] += time.perf_counter() - t0
            self._tracer._stack.pop()
        span["yields"] += 1
        return item


def _annotate_simulate(span, args, kwargs, ensemble):
    import qfpt.trajectories as traj

    config = ensemble.config
    per_traj = 1 if config.unravelling == "jump" else len(config.model.monitored)
    block = getattr(traj, "RNG_BLOCK", 0)
    span.update(
        ntraj=int(ensemble.ntraj),
        steps=int(ensemble.steps_total),
        jumps=int(ensemble.jump_counts.sum()) if ensemble.jump_counts is not None else 0,
        rng_buffer_bytes=int(config.ntraj * block * per_traj * 8),
    )


def _annotate_csv(span, args, kwargs, result):
    span["bytes"] = os.path.getsize(args[0])


_ANNOTATE = {"simulate": _annotate_simulate, "write_series_csv": _annotate_csv}


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from one traced round: name -> (value, unit)."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["busy"] for s in named(name))

    def self_time(name):
        return sum(s["busy"] - sum(c["busy"] for c in children.get(s["id"], ())) for s in named(name))

    def reruns(solver):
        """Widen rounds (same horizon rerun) and horizon extensions (longer
        horizon) among the propagation calls a solve makes directly."""
        widen = extend = 0
        for s in named(solver):
            horizons = [c["horizon"] for c in children.get(s["id"], ())
                        if c["name"] == "propagation.propagate_uniform"]
            for before, after in zip(horizons, horizons[1:]):
                widen += after == before
                extend += after > before
        return widen, extend

    props = named("propagation.propagate_uniform")
    steps = sum(max(s["yields"] - 1, 0) for s in props)
    step_s = self_time("propagation.propagate_uniform")
    factor = named("propagation.expm") + named("propagation.splu")
    sims = named("trajectories.simulate")
    sim_s = total("trajectories.simulate")
    traj_steps = sum(s["steps"] for s in sims)
    jump_widen, jump_extend = reruns("jumps.solve_jump_fpt")
    diff_widen, _ = reruns("diffusion.solve_diffusion_fpt")
    s, count, us = "s", "count", "us"
    return {
        "propagation.steps": (steps, count),
        "propagation.step_s": (step_s, s),
        "propagation.us_per_step": (1e6 * step_s / steps if steps else 0.0, us),
        "propagation.unknowns_max": (max((p["unknowns"] for p in props), default=0), count),
        "propagation.factor_s": (sum(f["busy"] for f in factor), s),
        "propagation.factor_calls": (len(factor), count),
        "propagation.resolvent_s": (total("propagation.absorption_horizon_guess"), s),
        "jumps.solve_s": (total("jumps.solve_jump_fpt"), s),
        "jumps.assemble_s": (total("jumps.build_block_generator"), s),
        "jumps.assemble_calls": (len(named("jumps.build_block_generator")), count),
        "jumps.extract_s": (self_time("jumps.solve_jump_fpt"), s),
        "jumps.widen_rounds": (jump_widen, count),
        "jumps.horizon_extensions": (jump_extend, count),
        "diffusion.solve_s": (total("diffusion.solve_diffusion_fpt"), s),
        "diffusion.assemble_s": (total("diffusion.build_fokker_planck_generator"), s),
        "diffusion.assemble_calls": (len(named("diffusion.build_fokker_planck_generator")), count),
        "diffusion.grid_s": (total("diffusion.mean_charge_path"), s),
        "diffusion.extract_s": (self_time("diffusion.solve_diffusion_fpt"), s),
        "diffusion.widen_rounds": (diff_widen, count),
        "kur.point_s": (total("kur.kur_point"), s),
        "kur.bounds_s": (total("kur.dynamical_activity") + total("kur.quantum_correction"), s),
        "operators.steady_state_s": (total("operators.steady_state"), s),
        "operators.drazin_s": (total("operators.drazin_inverse"), s),
        "analysis.moments_s": (total("analysis.integrate_moments"), s),
        "analysis.csv_s": (total("analysis.write_series_csv"), s),
        "analysis.csv_bytes": (sum(c["bytes"] for c in named("analysis.write_series_csv")), count),
        "cli.command_s": (total("cli.main"), s),
        "cli.self_s": (self_time("cli.main"), s),
        "trajectories.sim_s": (sim_s, s),
        "trajectories.traj_steps": (traj_steps, count),
        "trajectories.traj_steps_per_s": (traj_steps / sim_s if sim_s else 0.0, "1/s"),
        "trajectories.jumps": (sum(x["jumps"] for x in sims), count),
        "trajectories.rng_buffer_mb": (max((x["rng_buffer_bytes"] for x in sims), default=0) / 2**20, "MB"),
        "trace.spans": (len(spans), count),
    }
