#!/usr/bin/env bash
# Runs the measured cross-stack profile experiment and copies its
# machine-readable result (BENCH_profile.json: per-op/per-stage trace
# tables for all four backends on the 1M and 16M models, plus the
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

# Conv-level before/after: when a BENCH_profile_before.json snapshot exists
# (the parent commit's BENCH_profile.json, kept by the PR that moves the
# kernels), print the paper-geometry per-frame deltas so a kernel change's
# end-to-end effect is visible in CI logs, not just raw-GEMM throughput.
if [ -f BENCH_profile_before.json ] && command -v jq >/dev/null; then
  echo "paper-geometry ms/frame, before (BENCH_profile_before.json) -> after:"
  jq -r --slurpfile before BENCH_profile_before.json '
    .paper_geometry[] as $a
    | ($before[0].paper_geometry[] | select(.model == $a.model)) as $b
    | "  \($a.model): \($b.wall_ns_per_frame / 1e6 | floor)ms -> " +
      "\($a.wall_ns_per_frame / 1e6 | floor)ms " +
      "(\(100 * (1 - $a.wall_ns_per_frame / $b.wall_ns_per_frame) * 10 | floor / 10)% faster)"
  ' BENCH_profile.json
fi
