#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
# The benchmark runs as a child, not through exec, so the build's memory
# does not count as one of its reaped children.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/src/e2e.exe 1>&2
./_build/default/perfbench/src/e2e.exe "$@"
