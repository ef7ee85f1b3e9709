#!/usr/bin/env bash
# Runs the measured cross-stack profile experiment and copies its
# machine-readable result (BENCH_profile.json: per-op/per-stage trace
# tables for the two device runners on the 1M and 16M models, plus the
# measured-vs-modeled INT8 share comparison and a traced serving burst)
# to the repo root.
#
#   scripts/bench_profile.sh [fast|reduced|paper]   (default: fast)
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-fast}"
export SENECA_ARTIFACTS="${SENECA_ARTIFACTS:-target/seneca-artifacts}"

cargo run --release -q -p seneca-bench --features trace-gemm --bin reproduce -- profile --scale "$scale"

src="$SENECA_ARTIFACTS/experiments/BENCH_profile.json"
[ -f "$src" ] || { echo "expected $src after the profile experiment" >&2; exit 1; }
cp "$src" BENCH_profile.json
echo "BENCH_profile.json updated (scale: $scale)"
