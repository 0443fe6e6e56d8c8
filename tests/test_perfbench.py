"""The benchmark's scripts still find what they call in adiabus.

``perfbench/run.py`` refuses a traced run that never calls one of the layers
in its ``EXPECTED_LAYERS``.  Small versions of the ``anneal-search`` and
``gap-sweep`` passes run here under ``perfbench/tracing.py``, so that a
renamed or skipped layer fails a test instead of the benchmark.  The warm-up
and the dense-path patch of ``perfbench/make_reference.py`` are checked the
same way.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import adiabus
from adiabus import cli
from adiabus.basis import SectorSpec
from adiabus.model import BlochVector, join_protocol

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run(monkeypatch):
    # run.py imports its sibling modules (tracing, workloads, envinfo) by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_traced_passes_reach_every_expected_layer(tmp_path, monkeypatch):
    run = _load_run(monkeypatch)
    # called through the package, as the workloads call it, so the tracer sees it
    with run.tracing.Tracer() as anneal_trace:
        adiabus.find_anneal_time(join_protocol(7, 1, 0.3), SectorSpec.magnetization(7, 3))
    config = tmp_path / "gap.json"
    config.write_text(json.dumps({
        "experiment": "gap-scan", "protocol": "join", "N": [7], "J2": [0.2, 0.4],
        "s_grid": [0.0, 0.5, 1.0],
    }))
    argv = ["gap-scan", "--config", str(config), "--out", str(tmp_path / "out"), "--workers", "1"]
    with run.tracing.Tracer() as gap_trace:
        assert cli.main(argv) == 0
    # a wrapper that raises fails the point, and main still returns 0
    out = tmp_path / "out"
    manifest = json.loads((out / "gap-scan.manifest.json").read_text())
    assert [p["status"] for p in manifest["points"]] == ["ok", "ok"]
    rows = (out / "gap-scan.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 6 and all(row.split(",")[2] for row in rows)
    for workload, tracer in (("anneal-search", anneal_trace), ("gap-sweep", gap_trace)):
        calls = tracer.metrics()
        missed = [n for n in run.EXPECTED_LAYERS[workload] if not calls.get(f"{n}.calls", 0) > 0]
        assert not missed, (workload, missed)
    # every Lanczos product goes through the ScheduleOperator.matvec the tracer wraps
    assert anneal_trace.metrics()["solver.krylov_expm_apply.matvecs_per_call"] > 0


def test_warm_up_runs(monkeypatch):
    # it calls adiabus.fidelity and adiabus.sector_gap before every timed pass
    _load_run(monkeypatch).W.warm_up()


JOIN5 = join_protocol(5, 1.0, 0.2)


@pytest.mark.parametrize("entry", [
    lambda: adiabus.FidelityComputer(JOIN5, SectorSpec.magnetization(5, 2)),
    lambda: adiabus.ground_manifold_tracking(JOIN5, [0.0, 1.0]),
    lambda: adiabus.transport_qubit(JOIN5, [BlochVector(1, 0, 0)], 1.0),
    lambda: adiabus.gap_scan(JOIN5, [0.0, 0.5, 1.0], SectorSpec.magnetization(5, 2)),
    lambda: adiabus.prepare_initial_state(JOIN5, SectorSpec.magnetization(5, 2)),
], ids=["FidelityComputer", "ground_manifold_tracking", "transport_qubit", "gap_scan",
        "prepare_initial_state"])
def test_anneal_eigensolves_reach_the_patched_name(monkeypatch, entry):
    # make_reference.py forces the dense path by replacing this module attribute
    calls = []
    orig = adiabus.anneal.lowest_eigenpairs

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(adiabus.anneal, "lowest_eigenpairs", counting)
    entry()
    assert calls
