#!/usr/bin/env bash
# Runs the end-to-end suite twice with the same code and seed and prints, per workload and
# end-to-end metric, both values, how much the worse one is worse, and PASS/FAIL against the
# metric's bound. Exit status is non-zero if any pair disagrees or any output check failed.
#
#   benchmark/agree.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --agree "$@"
