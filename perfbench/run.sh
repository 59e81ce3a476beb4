#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it.
#   bash perfbench/run.sh --workload train-cold --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
# The run is pinned to the last CPU it may use, when taskset exists: the
# serve workload's request ping-pong spreads by a quarter from run to run
# when the scheduler moves its threads between CPUs.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . --profile release ./perfbench/bench.exe 1>&2
bench=./_build/default/perfbench/bench.exe
if command -v taskset >/dev/null 2>&1; then
  cpu=$(taskset -pc $$ | sed 's/.*[:,-] *//')
  exec taskset -c "$cpu" "$bench" "$@"
fi
exec "$bench" "$@"
