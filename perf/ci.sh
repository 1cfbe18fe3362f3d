#!/bin/sh
# Two complete sets of runs of this commit, then their comparison: the
# benchmark agrees with itself when nothing is `worse` or `unresolved`.
#
# The load generator is one process with one submitting connection, and the
# fleet workload derives its worker count from the cores (min(2, nproc), in
# perf/run_one.py), so neither can exceed them; the plan is printed, not set.
set -eu
cd "$(dirname "$0")/.."
out="${1:-perf/.work}"
cores=$(nproc)
workers=$(( cores < 2 ? cores : 2 ))
echo "perf/ci.sh: $cores cores, $workers fleet workers, 1 submitting connection"
mkdir -p "$out"
python3 -m perf.run --repeats 3 --out "$out/set-a.json"
python3 -m perf.run --repeats 3 --out "$out/set-b.json"
python3 -m perf.compare "$out/set-a.json" "$out/set-b.json"
