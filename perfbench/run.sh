#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload list-read --seed 1 --seconds 12 --trace 0
#
# Options are described in perfbench/README.md.  The build is not part
# of any measured time: set-up is timed from the benchmark process's own
# start.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe
exec ./_build/default/perfbench/bench.exe "$@"
