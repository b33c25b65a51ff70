#!/usr/bin/env bash
# Builds the benchmark and the serve daemon from source, then runs
# cinm_bench.exe with the given arguments (see bench/e2e/README.md), e.g.
#   bash bench/e2e/run.sh --workload upmem-prim --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
# keep the build inside this checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/cinm_bench.exe ./bin/cinm_serve.exe 1>&2
exec ./_build/default/bench/e2e/cinm_bench.exe "$@"
