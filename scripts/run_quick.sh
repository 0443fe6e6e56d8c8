#!/usr/bin/env bash
# Run the quick variants of every experiment and emit plot scripts.
# Output lands under scripts/out/; pass a different directory as $1, and a
# worker count for every experiment as $2 (default 1).
# Every command runs this checkout's src/, not an installed adiabus.
set -euo pipefail
cd "$(dirname "$0")"
export PYTHONPATH="$PWD/../src${PYTHONPATH:+:$PYTHONPATH}"
OUT="${1:-out}"
WORKERS="${2:-1}"

python3 -m adiabus.cli anneal-time       --config join_anneal_time_quick.json   --out "$OUT" --workers "$WORKERS"
python3 -m adiabus.cli anneal-time       --config dynamic_j2_anneal_time.json   --out "$OUT" --workers "$WORKERS"
python3 -m adiabus.cli anneal-time       --config uncoupling_anneal_time.json   --out "$OUT" --workers "$WORKERS"
python3 -m adiabus.cli anneal-time       --config simultaneous_anneal_time.json --out "$OUT" --workers "$WORKERS"
python3 -m adiabus.cli anneal-time       --config xxz_sweep.json                --out "$OUT" --workers "$WORKERS"
python3 -m adiabus.cli anneal-time       --config xyz_sweep.json                --out "$OUT" --workers "$WORKERS"
python3 -m adiabus.cli anneal-time       --config time_scaling.json             --out "$OUT" --workers "$WORKERS"
python3 -m adiabus.cli gap-scan          --config join_gap_scan_quick.json      --out "$OUT" --workers "$WORKERS"
python3 -m adiabus.cli transport         --config transport_cardinals.json      --out "$OUT" --workers "$WORKERS"
python3 -m adiabus.cli transport         --config transport_join_cardinals.json --out "$OUT" --workers "$WORKERS"
python3 -m adiabus.cli degeneracy-check  --config degeneracy_check.json         --out "$OUT" --workers "$WORKERS"

# the time-scaling figure reuses the anneal-time CSV with a log-log template
python3 -m adiabus.cli plot --csv "$OUT/time_scaling.csv" --template time-scaling \
                            --out "$OUT/time_scaling_loglog.gp"

echo "done; CSVs, manifests and .gp scripts are in $OUT/"
