#!/usr/bin/env bash
# Runs every workload at the scale BENCHMARK.json fixes, verifies the outputs
# and prints every end-to-end metric by name with its unit; results land in
# benchmark/out/results.json. Arguments are passed on, e.g.
#   benchmark/run.sh --smoke            # op counts / 20, correctness only
#   benchmark/run.sh --repeat 5         # five runs per workload, medians
#   benchmark/run.sh --workload serve_mem --seed 12
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --seed 11 "$@"
