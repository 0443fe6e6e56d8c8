"""adiabus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it imports adiabus from ./src and writes its
scratch files under ./.perfbench.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no tracing
and with one BLAS thread; with ``--trace 1`` they are the per-layer ones from
a traced pass, next to an untraced pass of the same inputs, with the BLAS
thread variables left as they were found.  The exit code is non-zero when a
correctness check fails.  See perfbench/README.md for the workloads and the
metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import envinfo
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
SRC = Path("src")
OUT = Path(".perfbench")
SETUP_REPEATS = 11
# a run has to end within 180 s; the traced gap-sweep's CLI processes get what is left of this
RUN_BUDGET_S = 165.0
T_START = time.monotonic()

END_TO_END = [("time_to_solution_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

EVOLVE_LAYERS = [
    "basis.enumerate_sector", "model.evaluate_protocol", "model.bond_coefficients",
    "solver.build_sector_operator", "solver.lowest_eigenpairs",
    "solver.ScheduleOperator.init", "solver.ScheduleOperator.assemble",
    "solver.ScheduleOperator.matvec", "solver.krylov_expm_apply", "solver.evolve",
    "anneal.FidelityComputer.init", "anneal.FidelityComputer.value",
]
# layers each workload must reach; a traced pass that misses one is an error
EXPECTED_LAYERS = {
    "fidelity-n17": EVOLVE_LAYERS,
    "anneal-search": EVOLVE_LAYERS + ["anneal.find_anneal_time"],
    "gap-sweep": [
        "basis.enumerate_sector", "model.evaluate_protocol", "model.bond_coefficients",
        "solver.build_sector_operator", "solver.lowest_eigenpairs", "cli.run_experiment",
    ],
    "xyz-search": EVOLVE_LAYERS + ["anneal.find_anneal_time"],
}
EXACT_COUNT_SUFFIXES = (".calls", ".steps", ".splits", ".evaluations", ".matvecs",
                        ".dense_calls", ".failures")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set-up timing: build the inputs into this directory and exit
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Wall seconds of a fresh interpreter that imports adiabus and builds the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", str(workdir / "setup"),
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms and the timing snaps to them
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t0


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def report(name: str, value, unit: str) -> None:
    print(f"  {name:<32} {value!r} {unit}")


def run_untraced(w, args, workdir: Path) -> int:
    setup = [measure_setup(w.name, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    inputs = w.build(args.seed, workdir)
    ref = W.load_reference()
    W.warm_up()
    attempted = failed = 0
    per_solution, failures = [], []
    t_start = time.perf_counter()
    while True:
        res = w.run_pass(inputs, workdir)
        chk = w.check(res, ref)
        attempted += res.attempted
        failed += res.raised + chk.bad
        failures += chk.failures
        if chk.solutions:
            per_solution.append(res.wall / chk.solutions)
        print(f"pass {len(per_solution)}: wall {res.wall:.4f} s, {chk.solutions} solutions, "
              f"{res.raised} raised, {chk.bad} failed checks; {W.summary(res)}")
        if failures or time.perf_counter() - t_start + res.wall > args.seconds:
            break
    correct = not failures and bool(per_solution)
    metrics = {
        "time_to_solution_s": median(per_solution) if per_solution else math.inf,
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"setup: {', '.join(f'{t:.4f}' for t in setup)} s")
    print(f"{w.name}: {len(per_solution)} passes in {args.seconds:g} s, "
          f"solution = one {w.unit_of_solution}")
    for name, value, unit in W.named_metrics(w.name, metrics, res, attempted, failed):
        report(name, value, unit)
    for line in failures:
        print(f"CHECK FAILED: {line}")
    emit(correct, attempted, failed, metrics, dict(END_TO_END))
    return 0 if correct else 1


def same_outputs(a, b, rel=1e-12) -> bool:
    """Traced and untraced outputs agree: floats to ``rel``, everything else exactly."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_outputs(a[k], b[k], rel) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rel * max(1.0, abs(a), abs(b))
    return a == b


def compare_counts(workload: str, metrics: dict) -> tuple[int, list[str]]:
    """Exact counts against the first traced run of this workload in this checkout."""
    counts = {k: metrics[k] for k in metrics if k.endswith(EXACT_COUNT_SUFFIXES)}
    path = OUT / f"counts-{workload}.json"
    if not path.exists():
        # written whole and then renamed, so that a concurrent run never reads half a file
        tmp = path.with_name(f"{path.name}.{os.getpid()}")
        tmp.write_text(json.dumps(counts, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return 0, []
    first = json.loads(path.read_text())
    differing = [f"{k}: {first.get(k)} then {v}" for k, v in counts.items() if first.get(k) != v]
    return len(counts), differing


def run_pool(config: Path, workdir: Path, untraced) -> dict:
    """The gap-scan CLI as a process at --workers 1 and at --workers $(nproc): pool
    metrics from their manifests, and their CSVs compared with each other and with
    the in-process sweep.  Raises RuntimeError when a process fails or runs out of time."""
    def left() -> float:
        return max(1.0, RUN_BUDGET_S - (time.monotonic() - T_START))

    ser_wall, ser_csv, ser_man = W.run_gap_cli(config, workdir / "cli_serial", 1, left())
    par_wall, par_csv, par_man = W.run_gap_cli(config, workdir / "cli_parallel", nproc(), left())
    if par_csv != ser_csv:
        raise RuntimeError(f"gap-scan CSV at --workers {nproc()} differs from --workers 1")
    if ser_csv != untraced.outputs["csv"]:
        raise RuntimeError("gap-scan CSV of the CLI process differs from the in-process run")
    pool = tracing.pool_metrics(ser_wall, ser_man, par_wall, par_man, untraced.attempted)
    pool["points_serial_s"] = tracing.point_seconds(ser_man)
    pool["points_parallel_s"] = tracing.point_seconds(par_man)
    return pool


def run_traced(w, args, workdir: Path) -> int:
    inputs = w.build(args.seed, workdir)
    ref = W.load_reference()
    W.warm_up()
    untraced = w.run_pass(inputs, workdir)
    with tracing.Tracer() as tracer:
        traced = w.run_pass(inputs, workdir)
    failures = []
    checks = [w.check(untraced, ref), w.check(traced, ref)]
    for chk in checks:
        failures += chk.failures
    if not same_outputs(untraced.outputs, traced.outputs):
        failures.append("traced outputs differ from untraced outputs")
    layer = {name: 0.0 for name, _, _ in tracing.PER_LAYER}
    layer.update(tracer.metrics())
    for name in EXPECTED_LAYERS[w.name]:
        key = f"{name}.calls"
        if not layer[key] > 0:
            failures.append(f"traced pass never called {name}")

    layer.update(W.kernel_sizes(w.name, inputs))
    caches = envinfo.cache_sizes()
    layer["env.l2_per_core_bytes"] = caches.get("L2", {}).get("bytes", 0)
    layer["env.l3_shared_bytes"] = caches.get("L3", {}).get("bytes", 0)

    pool = {}
    if w.name == "gap-sweep":
        try:
            pool = run_pool(inputs["config"], workdir, untraced)
        except RuntimeError as e:
            failures.append(str(e))
        layer.update({k: v for k, v in pool.items() if k in tracing.UNITS})

    layer["trace.untraced_s"] = untraced.wall
    layer["trace.traced_s"] = traced.wall
    layer["trace.overhead_s"] = traced.wall - untraced.wall
    compared, differing = compare_counts(w.name, layer)
    layer["trace.counts_compared"] = compared
    layer["trace.counts_differing"] = len(differing)

    trace_path = OUT / f"trace-{w.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": w.name,
        "seed": args.seed,
        "environment": envinfo.environment(workers=nproc() if w.name == "gap-sweep" else 1),
        "metrics": layer,
        "pool": pool,
        "span_fields": ["name", "start_s", "end_s", "parent", "extra"],
        "spans": tracer.dump(),
    }))
    print(f"{w.name}: traced pass {traced.wall:.4f} s, untraced {untraced.wall:.4f} s, "
          f"{len(tracer.spans)} spans written to {trace_path}")
    for name, unit, _ in tracing.PER_LAYER:
        report(name, layer[name], unit)
    for line in differing:
        print(f"COUNT DIFFERS from the first traced run in this checkout: {line}")
    for line in failures:
        print(f"CHECK FAILED: {line}")
    attempted = untraced.attempted + traced.attempted
    failed = untraced.raised + traced.raised + sum(c.bad for c in checks)
    metrics = {name: layer[name] for name, _, _ in tracing.PER_LAYER}
    emit(not failures, attempted, failed, metrics, tracing.UNITS)
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adiabus" / "__init__.py").is_file():
        print("perfbench: no adiabus sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    w = W.WORKLOADS[args.workload]
    if not args.trace:
        # Timed runs use one BLAS thread.  With OpenBLAS's default of one thread
        # per core, its spinning threads doubled the CPU time of an anneal-search
        # pass on 2 cores, and three passes took 9.9-11.3 s against 8.5-8.9 s
        # with one thread, back to back.  The traced run keeps the variables as
        # found, so that the CLI pool's oversubscription still shows in cli.pool.*.
        os.environ.update(dict.fromkeys(envinfo.BLAS_VARS, "1"))
    if args.setup_only:
        workdir = Path(args.setup_only)
        workdir.mkdir(parents=True, exist_ok=True)
        w.build(args.seed, workdir)
        return 0

    # only the traced gap-sweep run starts the CLI's pool
    pool = args.trace and args.workload == "gap-sweep"
    env = envinfo.environment(workers=nproc() if pool else 1)
    print(f"environment: {json.dumps(env)}")
    print(f"workload {w.name}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    # a directory of this run's own, so that runs never share scratch files
    workdir = OUT / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            return run_traced(w, args, workdir)
        return run_untraced(w, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
