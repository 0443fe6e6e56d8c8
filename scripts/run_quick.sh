#!/usr/bin/env bash
# Run the quick variants of every experiment and emit plot scripts.
# Output lands under scripts/out/; pass a different directory as $1.
set -euo pipefail
cd "$(dirname "$0")"
OUT="${1:-out}"

adiabus anneal-time       --config join_anneal_time_quick.json   --out "$OUT"
adiabus anneal-time       --config dynamic_j2_anneal_time.json   --out "$OUT"
adiabus anneal-time       --config uncoupling_anneal_time.json   --out "$OUT"
adiabus anneal-time       --config simultaneous_anneal_time.json --out "$OUT"
adiabus anneal-time       --config xxz_sweep.json                --out "$OUT"
adiabus anneal-time       --config xyz_sweep.json                --out "$OUT"
adiabus anneal-time       --config time_scaling.json             --out "$OUT"
adiabus gap-scan          --config join_gap_scan_quick.json      --out "$OUT"
adiabus transport         --config transport_cardinals.json      --out "$OUT"
adiabus transport         --config transport_join_cardinals.json --out "$OUT"
adiabus degeneracy-check  --config degeneracy_check.json         --out "$OUT"

# the time-scaling figure reuses the anneal-time CSV with a log-log template
adiabus plot --csv "$OUT/time_scaling.csv" --template time-scaling \
             --out "$OUT/time_scaling_loglog.gp"

echo "done; CSVs, manifests and .gp scripts are in $OUT/"
