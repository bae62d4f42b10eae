#!/usr/bin/env bash
# Build the benchmark from source, then run it; every argument is passed on.
#   bash edgebench/run.sh --workload fleet-10k --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./edgebench/edgebench.exe 1>&2
exec ./_build/default/edgebench/edgebench.exe "$@"
