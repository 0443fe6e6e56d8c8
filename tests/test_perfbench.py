"""The benchmark's tracer still reaches every layer its workloads require.

``perfbench/run.py`` refuses a traced run that never calls one of the layers
in its ``EXPECTED_LAYERS``.  Small versions of the ``anneal-search`` and
``gap-sweep`` passes run here under ``perfbench/tracing.py``, so that a
renamed or skipped layer fails a test instead of the benchmark.
"""

import importlib.util
import json
from pathlib import Path

import adiabus
from adiabus import cli
from adiabus.basis import SectorSpec
from adiabus.model import join_protocol

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
    for workload, tracer in (("anneal-search", anneal_trace), ("gap-sweep", gap_trace)):
        calls = tracer.metrics()
        missed = [n for n in run.EXPECTED_LAYERS[workload] if not calls.get(f"{n}.calls", 0) > 0]
        assert not missed, (workload, missed)
