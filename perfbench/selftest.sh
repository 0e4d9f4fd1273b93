#!/usr/bin/env bash
# Self-test of the benchmark, run from anywhere in the checkout:
#
#   bash perfbench/selftest.sh
#
# 1. --smoke runs every workload at tiny size, traced and untraced: every
#    metric BENCHMARK.json names is printed with its unit, every output
#    check passes and every trace parses (Perfetto.validate_file).  Its
#    traced crash-explore run fails unless the trees explored at -j 2
#    have the executions and failures of those explored at -j 1.
# 2. Two smoke runs at one seed print identical "det" lines: simulated
#    results and layer counts.
# 3. Another seed changes list-read's simulated tracking throughput, so
#    the seed reaches the input generator.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.perfbench/selftest
mkdir -p "$out"

smoke() { bash perfbench/run.sh --smoke "$@"; }

smoke --seed 3 > "$out/a.txt"
smoke --seed 3 > "$out/b.txt"
smoke --seed 4 > "$out/seed4.txt"

det() { grep "^det $1 " "$2" | grep -E "$3" || true; }

grep -q '^smoke OK$' "$out/a.txt"
cmp <(grep '^det ' "$out/a.txt") <(grep '^det ' "$out/b.txt")
echo "same seed: identical simulated results and layer counts"

vmops='slice0\.vmops\.tracking '
[ -n "$(det list-read "$out/a.txt" "$vmops")" ]
if [ "$(det list-read "$out/a.txt" "$vmops")" = "$(det list-read "$out/seed4.txt" "$vmops")" ]; then
  echo "seed 4 left vmops.tracking unchanged: the seed does not reach the inputs" >&2
  exit 1
fi
echo "another seed changes vmops.tracking"
echo "selftest OK"
