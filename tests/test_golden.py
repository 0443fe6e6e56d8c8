"""The quick set still writes the numbers in tests/golden/.

Each experiment that ``scripts/run_quick.sh`` runs goes through ``cli.main``
at two workers, and its CSV is compared with the golden one by
``scripts/compare_outputs.compare_csv``: row counts, ``tau_star`` and
``status`` must match exactly and every other cell within ``CELL_TOL``.
``tests/golden/README`` names the commit and the command that wrote the
golden files; a change that moves numbers on purpose regenerates them.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

from adiabus.cli import main, parse_config

ROOT = Path(__file__).parents[1]
SCRIPTS = ROOT / "scripts"
GOLDEN = Path(__file__).parent / "golden"
CELL_TOL = 1e-10

_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPTS / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

# (subcommand, config file), in the order run_quick.sh runs them
QUICK = re.findall(r"adiabus\.cli (\S+)\s+--config (\S+)", (SCRIPTS / "run_quick.sh").read_text())


def _csv_name(config: str) -> str:
    cfg = parse_config((SCRIPTS / config).read_text())
    return f"{cfg.out_prefix or cfg.experiment}.csv"


def _run(command: str, config: str, out: Path, workers: int) -> Path:
    argv = [command, "--config", str(SCRIPTS / config), "--out", str(out)]
    assert main([*argv, "--workers", str(workers)]) == 0
    return out / _csv_name(config)


def test_golden_files_are_the_quick_set():
    assert len(QUICK) == 11
    assert sorted(_csv_name(config) for _, config in QUICK) == sorted(
        p.name for p in GOLDEN.glob("*.csv")
    )


@pytest.mark.parametrize("command, config", QUICK, ids=[config for _, config in QUICK])
def test_quick_config_matches_golden(tmp_path, command, config):
    csv = _run(command, config, tmp_path, workers=2)
    lines, mismatch, max_delta = compare_outputs.compare_csv(GOLDEN / csv.name, csv)
    report = "\n".join(lines)
    assert not mismatch, report
    # every column but the exact ones is numeric, so every cell is bounded
    header = csv.read_text().splitlines()[0].split(",")
    assert set(header) - set(compare_outputs.EXACT) <= set(max_delta), report
    for col, delta in max_delta.items():
        if col not in compare_outputs.EXACT:
            assert delta <= CELL_TOL, report


def test_gap_scan_is_byte_identical_across_worker_counts(tmp_path):
    config = "join_gap_scan_quick.json"
    one = _run("gap-scan", config, tmp_path / "w1", workers=1)
    two = _run("gap-scan", config, tmp_path / "w2", workers=2)
    assert one.read_bytes() == two.read_bytes()
