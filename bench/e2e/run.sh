#!/usr/bin/env bash
# Entry point of the benchmark declared in BENCHMARK.json: builds the e2e
# harness from the sources of the checkout it is run in, then runs it with
# the given arguments, e.g.
#   bash bench/e2e/run.sh --workload eval_distance --seed 1 --seconds 25 --trace 0
# Run it from the root of the checkout.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The build reads and writes only this checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
