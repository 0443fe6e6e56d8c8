"""The four benchmark workloads: their inputs, one timed pass each, and the checks.

Every workload drives adiabus through its public API (``adiabus.fidelity``,
``adiabus.find_anneal_time``) or through the ``adiabus`` CLI, exactly as a user
would.  ``build`` makes a workload's inputs from the seed; ``run_pass`` does the
work once and returns the outputs; ``check`` compares them with
``reference.json``.  The seed only permutes the J2 column order of
``gap-sweep`` and the point order of ``xyz-search``, which changes no
per-point result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# fidelity-n17
FID_N, FID_K, FID_J2, FID_TAU = 17, 8, 0.3, 20.0
FID_TOL = 1e-5  # |F - F_ref|, F_ref at 8x the default step count

# anneal-search
ANNEAL_N, ANNEAL_K, ANNEAL_J2 = 13, 6, 0.6
TARGET, TAU_CAP = 0.9, 2000.0

# gap-sweep: the s grid of scripts/join_gap_scan_quick.json, 8 J2 columns
GAP_N = 11
GAP_J2 = [round(0.1 * i, 1) for i in range(8)]
GAP_S = [round(0.05 * i, 2) for i in range(21)]
GAP_TOL = 1e-8  # absolute, per cell

# xyz-search: the delta grid of scripts/xyz_sweep.json at N = 11
XYZ_N = 11
XYZ_DELTAS = [-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def cli_env() -> dict:
    """Environment for a CLI child: the checkout's sources, nothing else changed."""
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class PassResult:
    """What one pass produced: outputs to compare and the wall time it took."""

    wall: float
    outputs: dict
    attempted: int
    raised: int = 0  # operations that raised an AdiabusError
    extra: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    solutions: int  # solutions that passed every check
    bad: int  # operations whose output failed a check
    failures: list[str]  # failed checks, one line each


# ------------------------------------------------------------ fidelity-n17

def build_fidelity(seed: int, workdir: Path) -> dict:
    import adiabus

    return {
        "protocol": adiabus.join_protocol(FID_N, 1.0, FID_J2),
        "sector": adiabus.SectorSpec.magnetization(FID_N, FID_K),
    }


def pass_fidelity(inputs: dict, workdir: Path) -> PassResult:
    import adiabus

    t0 = time.perf_counter()
    f = adiabus.fidelity(inputs["protocol"], FID_TAU, inputs["sector"])
    wall = time.perf_counter() - t0
    return PassResult(wall, {"F": f}, attempted=1)


def check_fidelity(res: PassResult, ref: dict) -> CheckResult:
    f_ref = ref["fidelity-n17"]["F_ref"]
    err = abs(res.outputs["F"] - f_ref)
    res.extra["fidelity_err"] = err
    if err <= FID_TOL:
        return CheckResult(1, 0, [])
    return CheckResult(0, 1, [f"fidelity {res.outputs['F']!r} is {err:.3e} from F_ref {f_ref!r}"])


# ----------------------------------------------------------- anneal-search

def build_anneal(seed: int, workdir: Path) -> dict:
    import adiabus

    return {
        "protocol": adiabus.join_protocol(ANNEAL_N, 1.0, ANNEAL_J2),
        "sector": adiabus.SectorSpec.magnetization(ANNEAL_N, ANNEAL_K),
        "search": adiabus.SearchSettings(tau_cap=TAU_CAP),
    }


def _anneal_outputs(r) -> dict:
    return {
        "status": r.status,
        "tau_star": r.tau_star,
        "F": r.fidelity_at_tau_star,
        "evaluations": len(r.trace),
        "tau_sum": sum(t for t, _ in r.trace),
    }


def pass_anneal(inputs: dict, workdir: Path) -> PassResult:
    import adiabus

    t0 = time.perf_counter()
    r = adiabus.find_anneal_time(inputs["protocol"], inputs["sector"], TARGET, inputs["search"])
    wall = time.perf_counter() - t0
    return PassResult(wall, _anneal_outputs(r), attempted=1)


def _check_tau(label: str, out: dict, ref_point: dict, rel_width: float) -> str | None:
    """None when a search result matches its reference, else the reason."""
    if ref_point["status"] != "reached":
        return f"{label}: no reference tau* to compare with"
    if out["status"] != "reached":
        return f"{label}: status {out['status']}, reference reached at {ref_point['tau_star']}"
    tau, tau_ref = out["tau_star"], ref_point["tau_star"]
    if abs(tau - tau_ref) > rel_width * tau_ref:
        return f"{label}: tau* {tau!r} differs from reference {tau_ref!r} by more than {rel_width:g}"
    if out["F"] < TARGET:
        return f"{label}: fidelity {out['F']!r} at tau* is below the target {TARGET}"
    return None


def check_anneal(res: PassResult, ref: dict) -> CheckResult:
    import adiabus

    rel_width = adiabus.SearchSettings().rel_width
    why = _check_tau("anneal-search", res.outputs, ref["anneal-search"], rel_width)
    if res.outputs["F"] is not None:
        res.extra["fidelity_err"] = abs(res.outputs["F"] - ref["anneal-search"]["F_ref_at_tau_star"])
    return CheckResult(0, 1, [why]) if why else CheckResult(1, 0, [])


# --------------------------------------------------------------- gap-sweep

def gap_config(seed: int) -> dict:
    j2 = list(GAP_J2)
    random.Random(seed).shuffle(j2)
    return {
        "experiment": "gap-scan",
        "model": "j1j2",
        "protocol": "join",
        "N": [GAP_N],
        "J2": j2,
        "s_grid": GAP_S,
        "out_prefix": "gap_sweep",
    }


def build_gap(seed: int, workdir: Path) -> dict:
    import adiabus.cli  # noqa: F401  (what the CLI process imports before it reads the config)

    path = workdir / f"gap_sweep_seed{seed}.json"
    path.write_text(json.dumps(gap_config(seed), indent=1))
    return {"config": path}


def run_gap_cli(config: Path, out: Path, workers: int,
                timeout: float | None = None) -> tuple[float, str, dict]:
    """One ``adiabus gap-scan`` process; returns (wall, CSV text, manifest)."""
    cmd = [
        sys.executable, "-m", "adiabus.cli", "gap-scan",
        "--config", str(config), "--out", str(out), "--workers", str(workers),
    ]
    t0 = time.perf_counter()
    # a session of its own, so that a timeout also stops the pool's workers
    proc = subprocess.Popen(cmd, env=cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"gap-scan at --workers {workers} ran over {timeout:.0f} s") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"gap-scan at --workers {workers} exited {proc.returncode}: "
                           f"{stderr.strip()}")
    return (wall, *_gap_outputs(out))


def _gap_outputs(out: Path) -> tuple[str, dict]:
    csv = (out / "gap_sweep.csv").read_text()
    manifest = json.loads((out / "gap_sweep.manifest.json").read_text())
    return csv, manifest


def pass_gap(inputs: dict, workdir: Path) -> PassResult:
    """One serial sweep through the CLI's entry point, ``adiabus.cli.main``, in this
    process: the CLI code path without the interpreter start, which ``setup_s`` times."""
    import adiabus.cli

    out = workdir / "gap_serial"
    argv = ["gap-scan", "--config", str(inputs["config"]), "--out", str(out), "--workers", "1"]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = adiabus.cli.main(argv)
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"gap-scan exited {code}")
    csv, manifest = _gap_outputs(out)
    cells = len(GAP_J2) * len(GAP_S)
    return PassResult(wall, {"csv": csv}, attempted=cells, extra={"manifest": manifest})


def parse_gap_csv(csv: str) -> dict[tuple[str, str], float]:
    lines = csv.strip().splitlines()
    if lines[0] != "s,param,gap":
        raise ValueError(f"unexpected gap-scan header {lines[0]!r}")
    cells = {}
    for line in lines[1:]:
        s, param, gap = line.split(",")
        cells[(repr(float(s)), repr(float(param)))] = float(gap) if gap else math.nan
    return cells


def check_gap(res: PassResult, ref: dict) -> CheckResult:
    cells = parse_gap_csv(res.outputs["csv"])
    ref_cells = {(repr(s), repr(p)): g for s, p, g in ref["gap-sweep"]["cells"]}
    failures = []
    for key, g_ref in ref_cells.items():
        g = cells.get(key, math.nan)
        if not abs(g - g_ref) <= GAP_TOL:
            failures.append(f"gap cell s={key[0]} J2={key[1]}: {g!r} vs reference {g_ref!r}")
    bad = len(failures)
    if len(cells) != len(ref_cells):
        failures.append(f"gap-scan wrote {len(cells)} cells, reference has {len(ref_cells)}")
    # the gap map is one solution; it counts only when every cell is right
    return CheckResult(0 if failures else 1, bad, failures)


# -------------------------------------------------------------- xyz-search

def build_xyz(seed: int, workdir: Path) -> dict:
    import adiabus

    deltas = list(XYZ_DELTAS)
    random.Random(seed).shuffle(deltas)
    points = []
    for d in deltas:
        p = adiabus.simultaneous_protocol(XYZ_N, adiabus.xyz_couplings(d), 0.0)
        points.append((d, p, adiabus.default_sector(p)))
    return {"points": points, "search": adiabus.SearchSettings(tau_cap=TAU_CAP)}


def pass_xyz(inputs: dict, workdir: Path) -> PassResult:
    import adiabus
    from adiabus.errors import AdiabusError

    outputs = {}
    raised = 0
    t0 = time.perf_counter()
    for d, p, sector in inputs["points"]:
        # per-point failure handling as in the CLI's sweep loop
        try:
            r = adiabus.find_anneal_time(p, sector, TARGET, inputs["search"])
        except AdiabusError as e:
            outputs[repr(d)] = {"status": f"failed:{type(e).__name__}", "message": str(e)}
            raised += 1
            continue
        outputs[repr(d)] = _anneal_outputs(r)
    wall = time.perf_counter() - t0
    return PassResult(wall, outputs, attempted=len(inputs["points"]), raised=raised)


def check_xyz(res: PassResult, ref: dict) -> CheckResult:
    import adiabus

    rel_width = adiabus.SearchSettings().rel_width
    ref_points = ref["xyz-search"]["points"]
    failures = []
    good = 0
    errs = []
    for key, out in res.outputs.items():
        if out["status"].startswith("failed:"):
            continue  # counted as raised, not as a wrong answer
        why = _check_tau(f"xyz delta={key}", out, ref_points[key], rel_width)
        if why:
            failures.append(why)
        else:
            good += 1
            errs.append(abs(out["F"] - ref_points[key]["F_ref_at_tau_star"]))
    if errs:
        res.extra["fidelity_err"] = max(errs)
    bad = len(failures)
    if good == 0:
        failures.append("no xyz point reached the target")
    return CheckResult(good, bad, failures)


def warm_up() -> None:
    """Small calls down the evolve and dense-eigensolve paths, so that lazy
    imports and BLAS thread start-up land before the first timed pass."""
    import adiabus

    p = adiabus.join_protocol(7, 1.0, 0.3)
    adiabus.fidelity(p, 1.0, adiabus.SectorSpec.magnetization(7, 3))
    adiabus.sector_gap(adiabus.evaluate_protocol(adiabus.join_protocol(GAP_N, 1.0, 0.3), 0.5),
                       adiabus.SectorSpec.magnetization(GAP_N, GAP_N // 2))


# ------------------------------------------------------------- reporting

def summary(res: PassResult) -> str:
    """One line on what a pass computed."""
    out = res.outputs
    if "tau_star" in out:
        return (f"tau* = {out['tau_star']!r}, {out['evaluations']} evaluations, "
                f"sum of tau = {out['tau_sum']!r}")
    if "F" in out:
        return f"F = {out['F']!r}"
    if "csv" in out:
        return f"{res.attempted} gap cells"
    reached = sum(o["status"] == "reached" for o in out.values())
    raised = sorted(k for k, o in out.items() if o["status"].startswith("failed:"))
    return f"{reached} of {len(out)} points reached the target; raised at delta {', '.join(raised)}"


def named_metrics(name: str, metrics: dict, last: PassResult, attempted: int, failed: int):
    """The workload's metrics under the names and units of its definition."""
    t = metrics["time_to_solution_s"]
    if name == "fidelity-n17":
        rows = [("fidelity_s", t, "s")]
    elif name == "anneal-search":
        rows = [("anneal_search_s", t, "s"),
                ("evaluations", last.outputs["evaluations"], "count"),
                ("tau_sum", last.outputs["tau_sum"], "1/J1")]
    elif name == "gap-sweep":
        rows = [("gap_cells_per_s_serial", last.attempted / t, "1/s")]
    else:
        rows = [("xyz_s_per_solution", t, "s")]
    if "fidelity_err" in last.extra:
        rows.append(("fidelity_err", last.extra["fidelity_err"], "abs"))
    rows += [
        ("setup_s", metrics["setup_s"], "s"),
        ("failed_frac", failed / attempted, "ratio"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
    ]
    return rows


def kernel_sizes(name: str, inputs: dict) -> dict:
    """Size of H(s) on the workload's largest sector, and bytes one matvec moves, computed.

    Bytes per matvec: 16 B value + 4 B column index per nonzero, 4 B row
    pointer per row, one read of the input and one write of the output
    vector (complex128).  Cache misses are not counted.
    """
    import adiabus

    if name == "gap-sweep":
        protocol = adiabus.join_protocol(GAP_N, 1.0, max(GAP_J2))
        sector = adiabus.SectorSpec.magnetization(GAP_N, GAP_N // 2)
    elif name == "xyz-search":
        _, protocol, sector = next(p for p in inputs["points"] if p[0] == XYZ_DELTAS[0])
    else:
        protocol, sector = inputs["protocol"], inputs["sector"]
    basis = adiabus.enumerate_sector(sector)
    nnz = adiabus.build_sector_operator(adiabus.evaluate_protocol(protocol, 0.5), basis).matrix.nnz
    dim = basis.dimension
    return {
        "solver.matvec.dim": dim,
        "solver.matvec.nnz": nnz,
        "solver.matvec.bytes_computed": 20 * nnz + 4 * (dim + 1) + 32 * dim,
        "solver.krylov.basis_bytes_computed": adiabus.PropagatorConfig().krylov_dim * dim * 16,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], dict]
    run_pass: Callable[[dict, Path], PassResult]
    check: Callable[[PassResult, dict], CheckResult]
    unit_of_solution: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fidelity-n17", build_fidelity, pass_fidelity, check_fidelity, "fidelity"),
        Workload("anneal-search", build_anneal, pass_anneal, check_anneal, "tau* search"),
        Workload("gap-sweep", build_gap, pass_gap, check_gap, "168-cell gap map"),
        Workload("xyz-search", build_xyz, pass_xyz, check_xyz, "point reaching the target"),
    )
}
