"""Recompute perfbench/reference.json, the values every benchmark run checks against.

Run from the repository root:  python3 perfbench/make_reference.py

It takes several minutes on a 2-core machine, mostly for F_ref at N = 17.
References are made once, from the commit named in the file's provenance;
a change that claims a gain must not regenerate them.

* fidelity-n17: F at the default steps and F_ref at 8x ``step_count``.
* anneal-search: tau* of the default search, and F_ref at tau* (8x steps).
* gap-sweep: the 168 gaps the serial CLI writes for seed 0.
* xyz-search: tau* per delta with ``lowest_eigenpairs`` forced onto its dense
  path (dim 1024), which converges where the Lanczos path raises
  NoConvergence; the default-path status is stored beside it.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import adiabus  # noqa: E402
from adiabus import PropagatorConfig  # noqa: E402
from adiabus.errors import AdiabusError  # noqa: E402

import envinfo  # noqa: E402
import workloads as W  # noqa: E402

REF_STEPS = 8


def fine_fidelity(protocol, tau, sector) -> float:
    cfg = PropagatorConfig(step_count=REF_STEPS * PropagatorConfig().steps_for(tau))
    return adiabus.fidelity(protocol, tau, sector, cfg)


def search(protocol, sector) -> dict:
    r = adiabus.find_anneal_time(protocol, sector, W.TARGET, adiabus.SearchSettings(tau_cap=W.TAU_CAP))
    return {"status": r.status, "tau_star": r.tau_star, "F": r.fidelity_at_tau_star,
            "evaluations": len(r.trace)}


def dense_lowest(orig, op, m, tol=1e-10, dense_cutoff=512, max_iter=500):
    return orig(op, m, tol, dense_cutoff=4096, max_iter=max_iter)


def main() -> None:
    ref: dict = {}
    timings = {}

    t0 = time.perf_counter()
    fid = W.build_fidelity(0, Path("."))
    f = adiabus.fidelity(fid["protocol"], W.FID_TAU, fid["sector"])
    f_ref = fine_fidelity(fid["protocol"], W.FID_TAU, fid["sector"])
    ref["fidelity-n17"] = {"F": f, "F_ref": f_ref, "ref_steps": REF_STEPS * PropagatorConfig().steps_for(W.FID_TAU)}
    timings["fidelity-n17"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ann = W.build_anneal(0, Path("."))
    a = search(ann["protocol"], ann["sector"])
    a["F_ref_at_tau_star"] = fine_fidelity(ann["protocol"], a["tau_star"], ann["sector"])
    ref["anneal-search"] = a
    timings["anneal-search"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    out = Path(".perfbench/reference")
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "gap_sweep.json"
    cfg.write_text(json.dumps(W.gap_config(0)))
    _, csv, _ = W.run_gap_cli(cfg, out, 1)
    cells = W.parse_gap_csv(csv)
    ref["gap-sweep"] = {"cells": [[float(s), float(p), g] for (s, p), g in sorted(cells.items())]}
    timings["gap-sweep"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    points = {}
    xyz = W.build_xyz(0, Path("."))
    for d, p, sector in sorted(xyz["points"], key=lambda x: x[0]):
        try:
            default_status = search(p, sector)["status"]
        except AdiabusError as e:
            default_status = f"failed:{type(e).__name__}"
        orig = adiabus.anneal.lowest_eigenpairs
        adiabus.anneal.lowest_eigenpairs = functools.partial(dense_lowest, orig)
        try:
            point = search(p, sector)
            if point["status"] == "reached":
                point["F_ref_at_tau_star"] = fine_fidelity(p, point["tau_star"], sector)
        finally:
            adiabus.anneal.lowest_eigenpairs = orig
        point["default_path_status"] = default_status
        points[repr(d)] = point
    ref["xyz-search"] = {"points": points, "method": "lowest_eigenpairs with dense_cutoff=4096"}
    timings["xyz-search"] = time.perf_counter() - t0

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    ref["provenance"] = {
        "commit": commit,
        "made_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "command": "python3 perfbench/make_reference.py",
        "fine_steps": f"{REF_STEPS}x PropagatorConfig().steps_for(tau), midpoint Krylov propagator",
        "seconds": timings,
        "environment": envinfo.environment(),
    }
    Path(W.REFERENCE).write_text(json.dumps(ref, indent=1) + "\n")
    print(json.dumps({k: v for k, v in ref.items() if k != "gap-sweep"}, indent=1))


if __name__ == "__main__":
    main()
