#!/usr/bin/env bash
# Runs every workload of the end-to-end benchmark, untraced (end-to-end
# metrics) and then traced (per-layer metrics), each in a fresh process:
#   bash perfbench/all.sh [SEED] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-2019}
seconds=${2:-60}
for trace in 0 1; do
  for workload in suite ai2 serve dverify; do
    bash perfbench/run.sh --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace"
  done
done
