#!/usr/bin/env bash
# Every end-to-end (TRACE=0) or per-layer (TRACE=1) metric of all four workloads.
#   bash perfbench/run_all.sh [SEED] [SECONDS] [TRACE]
# Run from the repository root. Exits nonzero if any workload failed.
set -o pipefail
status=0
for w in loc-n2 evolve-n3 fe-n3 fe-n2-zsweep; do
    python3 "$(dirname "$0")/run.py" --workload "$w" --seed "${1:-1}" \
        --seconds "${2:-20}" --trace "${3:-0}" | sed "s/^/[$w] /" || status=1
done
exit "$status"
