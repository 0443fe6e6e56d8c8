"""Spans around the calls into each adiabus layer, and the per-layer metrics.

The tracer replaces each public function below with a wrapper on *every*
adiabus module that binds it (``anneal`` and ``cli`` import solver functions
by name), and each method on its class.  A span records name, start, end,
the span that was open when it began, and a few values read from the
arguments or the result.  Spans stay in memory and are written out when the
run ends.  Nothing inside adiabus changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from statistics import median

FUNCTIONS = {
    "basis.enumerate_sector": ("adiabus.basis", "enumerate_sector"),
    "model.evaluate_protocol": ("adiabus.model", "evaluate_protocol"),
    "solver.build_sector_operator": ("adiabus.solver", "build_sector_operator"),
    "solver.lowest_eigenpairs": ("adiabus.solver", "lowest_eigenpairs"),
    "solver.krylov_expm_apply": ("adiabus.solver", "krylov_expm_apply"),
    "solver.evolve": ("adiabus.solver", "evolve"),
    "anneal.find_anneal_time": ("adiabus.anneal", "find_anneal_time"),
    "cli.run_experiment": ("adiabus.cli", "run_experiment"),
}
METHODS = {
    "model.bond_coefficients": ("adiabus.model", "ProtocolSpec", "bond_coefficients"),
    "solver.SparseOperator.matvec": ("adiabus.solver", "SparseOperator", "matvec"),
    "solver.ScheduleOperator.init": ("adiabus.solver", "ScheduleOperator", "__init__"),
    "solver.ScheduleOperator.assemble": ("adiabus.solver", "ScheduleOperator", "assemble"),
    "solver.ScheduleOperator.matvec": ("adiabus.solver", "ScheduleOperator", "matvec"),
    "anneal.FidelityComputer.init": ("adiabus.anneal", "FidelityComputer", "__init__"),
    "anneal.FidelityComputer.value": ("adiabus.anneal", "FidelityComputer", "value"),
}

# (name, unit, better) of every per-layer metric, in the order they print
PER_LAYER = [
    ("basis.enumerate_sector.calls", "count", "lower"),
    ("basis.enumerate_sector.s", "s", "lower"),
    ("model.evaluate_protocol.calls", "count", "lower"),
    ("model.evaluate_protocol.s", "s", "lower"),
    ("model.bond_coefficients.calls", "count", "lower"),
    ("model.bond_coefficients.s", "s", "lower"),
    ("solver.build_sector_operator.calls", "count", "lower"),
    ("solver.build_sector_operator.s", "s", "lower"),
    ("solver.lowest_eigenpairs.calls", "count", "lower"),
    ("solver.lowest_eigenpairs.s", "s", "lower"),
    ("solver.lowest_eigenpairs.dense_calls", "count", "lower"),
    ("solver.lowest_eigenpairs.matvecs", "count", "lower"),
    ("solver.lowest_eigenpairs.max_residual", "norm", "lower"),
    ("solver.lowest_eigenpairs.failures", "count", "lower"),
    ("solver.ScheduleOperator.init.calls", "count", "lower"),
    ("solver.ScheduleOperator.init.s", "s", "lower"),
    ("solver.ScheduleOperator.assemble.calls", "count", "lower"),
    ("solver.ScheduleOperator.assemble.s", "s", "lower"),
    ("solver.ScheduleOperator.matvec.calls", "count", "lower"),
    ("solver.ScheduleOperator.matvec.s", "s", "lower"),
    ("solver.krylov_expm_apply.calls", "count", "lower"),
    ("solver.krylov_expm_apply.self_s", "s", "lower"),
    ("solver.krylov_expm_apply.splits", "count", "lower"),
    ("solver.krylov_expm_apply.matvecs_per_call", "count", "lower"),
    ("solver.evolve.calls", "count", "lower"),
    ("solver.evolve.steps", "count", "lower"),
    ("solver.evolve.s", "s", "lower"),
    ("solver.matvec.dim", "count", "lower"),
    ("solver.matvec.nnz", "count", "lower"),
    ("solver.matvec.bytes_computed", "B", "lower"),
    ("solver.krylov.basis_bytes_computed", "B", "lower"),
    ("env.l2_per_core_bytes", "B", "higher"),
    ("env.l3_shared_bytes", "B", "higher"),
    ("anneal.FidelityComputer.init.calls", "count", "lower"),
    ("anneal.FidelityComputer.init.s", "s", "lower"),
    ("anneal.FidelityComputer.value.calls", "count", "lower"),
    ("anneal.FidelityComputer.value.s", "s", "lower"),
    ("anneal.find_anneal_time.calls", "count", "lower"),
    ("anneal.find_anneal_time.evaluations", "count", "lower"),
    ("anneal.find_anneal_time.tau_sum", "1/J1", "lower"),
    ("cli.run_experiment.calls", "count", "lower"),
    ("cli.run_experiment.s", "s", "lower"),
    ("cli.point.s_p50", "s", "lower"),
    ("cli.point.s_max", "s", "lower"),
    ("cli.pool.workers", "count", "higher"),
    ("cli.pool.cpu_inflation", "ratio", "lower"),
    ("cli.pool.overhead_s", "s", "lower"),
    ("cli.pool.cells_per_s_serial", "1/s", "higher"),
    ("cli.pool.cells_per_s_parallel", "1/s", "higher"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.counts_compared", "count", "higher"),
    ("trace.counts_differing", "count", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# spans whose calls and busy seconds are reported as <name>.calls / <name>.s
TIMED = [
    "basis.enumerate_sector", "model.evaluate_protocol", "model.bond_coefficients",
    "solver.build_sector_operator", "solver.lowest_eigenpairs",
    "solver.ScheduleOperator.init", "solver.ScheduleOperator.assemble",
    "solver.ScheduleOperator.matvec", "solver.evolve",
    "anneal.FidelityComputer.init", "anneal.FidelityComputer.value",
    "cli.run_experiment",
]
KRYLOV = "solver.krylov_expm_apply"
SEARCH = "anneal.find_anneal_time"


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


def _lowest_extra(bind):
    def extra(args, kwargs, result):
        a = bind(args, kwargs)
        dense = a["op"].dimension <= a["dense_cutoff"]
        return {"dense": dense, "max_residual": float(max(result.residuals))}

    return extra


def _evolve_extra(bind):
    def extra(args, kwargs, result):
        a = bind(args, kwargs)
        return {"steps": a["cfg"].steps_for(a["tau"]) if a["tau"] > 0 else 0}

    return extra


def _search_extra(args, kwargs, result):
    return {"evaluations": len(result.trace), "tau_sum": sum(t for t, _ in result.trace)}


class Tracer:
    """Installs the span wrappers; ``with Tracer() as t:`` traces one pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, extra]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[2] = clock()
                span[4] = {"error": type(e).__name__}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        for mod, *_ in list(FUNCTIONS.values()) + list(METHODS.values()):
            importlib.import_module(mod)
        modules = [m for k, m in list(sys.modules.items()) if k == "adiabus" or k.startswith("adiabus.")]
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(importlib.import_module(mod), attr)
            extra = None
            if name == "solver.lowest_eigenpairs":
                extra = _lowest_extra(_bound(orig))
            elif name == "solver.evolve":
                extra = _evolve_extra(_bound(orig))
            elif name == "anneal.find_anneal_time":
                extra = _search_extra
            wrapper = self._wrap(name, orig, extra)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(mod), cls_name)
            self._set(cls, attr, self._wrap(name, getattr(cls, attr)))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)
        return False

    # ------------------------------------------------------------ metrics

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child_s = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        counted = TIMED + [KRYLOV, SEARCH]
        calls = dict.fromkeys(counted, 0)
        busy = dict.fromkeys(TIMED, 0.0)
        m = {
            "solver.lowest_eigenpairs.dense_calls": 0,
            "solver.lowest_eigenpairs.matvecs": 0,
            "solver.lowest_eigenpairs.max_residual": 0.0,
            "solver.lowest_eigenpairs.failures": 0,
            "solver.krylov_expm_apply.self_s": 0.0,
            "solver.krylov_expm_apply.splits": 0,
            "solver.evolve.steps": 0,
            "anneal.find_anneal_time.evaluations": 0,
            "anneal.find_anneal_time.tau_sum": 0.0,
        }
        krylov_matvecs = 0
        for i, (name, t0, t1, parent, extra) in enumerate(spans):
            if name == KRYLOV:
                m["solver.krylov_expm_apply.self_s"] += (t1 - t0) - child_s[i]
                if parent >= 0 and spans[parent][0] == KRYLOV:
                    m["solver.krylov_expm_apply.splits"] += 1  # a recursive half step
                    continue
            if name in calls:
                calls[name] += 1
            if name in busy:
                busy[name] += t1 - t0
            error = bool(extra) and "error" in extra
            if name == "solver.lowest_eigenpairs":
                if error:
                    m["solver.lowest_eigenpairs.failures"] += 1
                else:
                    m["solver.lowest_eigenpairs.dense_calls"] += extra["dense"]
                    m["solver.lowest_eigenpairs.max_residual"] = max(
                        m["solver.lowest_eigenpairs.max_residual"], extra["max_residual"]
                    )
            elif name == "solver.SparseOperator.matvec":
                m["solver.lowest_eigenpairs.matvecs"] += self._has_ancestor(i, "solver.lowest_eigenpairs")
            elif name == "solver.ScheduleOperator.matvec":
                krylov_matvecs += self._has_ancestor(i, KRYLOV)
            elif name == "solver.evolve" and not error:
                m["solver.evolve.steps"] += extra["steps"]
            elif name == SEARCH and not error:
                m["anneal.find_anneal_time.evaluations"] += extra["evaluations"]
                m["anneal.find_anneal_time.tau_sum"] += extra["tau_sum"]
        out = {f"{n}.calls": calls[n] for n in counted}
        out.update({f"{n}.s": busy[n] for n in TIMED})
        out.update(m)
        out["solver.krylov_expm_apply.matvecs_per_call"] = (
            krylov_matvecs / calls[KRYLOV] if calls[KRYLOV] else 0.0
        )
        return out

    def dump(self) -> list[list]:
        return [[n, round(t0, 7), round(t1, 7), p, e] for n, t0, t1, p, e in self.spans]


def point_seconds(manifest: dict) -> list[float]:
    return [p["seconds"] for p in manifest["points"]]


def pool_metrics(serial_wall, serial_manifest, parallel_wall, parallel_manifest, cells) -> dict:
    """cli.point / cli.pool metrics from two untraced CLI runs."""
    ser = point_seconds(serial_manifest)
    par = point_seconds(parallel_manifest)
    workers = parallel_manifest["workers"]
    return {
        "cli.point.s_p50": median(par),
        "cli.point.s_max": max(par),
        "cli.pool.workers": workers,
        "cli.pool.cpu_inflation": sum(par) / sum(ser),
        "cli.pool.overhead_s": parallel_wall - sum(par) / workers,
        "cli.pool.cells_per_s_serial": cells / serial_wall,
        "cli.pool.cells_per_s_parallel": cells / parallel_wall,
    }
