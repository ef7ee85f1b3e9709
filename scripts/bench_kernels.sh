#!/usr/bin/env bash
# Regenerates BENCH_kernels.json at the repo root: packed GEMM engine vs the
# pre-PR kernels on two conv GEMM shapes of each Table II model — its
# highest-MAC one and its highest-MAC full-resolution (256x256) one — raw
# GEMM and conv-level (implicit vs materialized), with the INT8 / FP32
# MAC-rate ratio per shape.
#
# Two passes:
#   1. The pre-PR baseline kernels are benchmarked from a build with
#      RUSTFLAGS="" — overriding .cargo/config.toml — because the pre-PR
#      tree had no config.toml and so was built for the default x86-64
#      target. A separate target dir keeps the two builds' caches apart.
#   2. The packed engine is benchmarked under the repo's own flags
#      (target-cpu=native), the two are merged, the >= 2x acceptance bar is
#      asserted, and BENCH_kernels.json is written.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=target/prepr-baseline/kernel_baseline.txt
mkdir -p "$(dirname "$BASELINE")"

echo "== pass 1: pre-PR kernels, pre-PR build flags (RUSTFLAGS=\"\") =="
RUSTFLAGS="" cargo run --release -q -p seneca-bench --example kernel_stats \
  --target-dir target/prepr-baseline -- baseline "$BASELINE"

echo "== pass 2: packed engine, repo flags; merge + BENCH_kernels.json =="
cargo run --release -q -p seneca-bench --example kernel_stats -- full "$BASELINE"

echo "bench_kernels OK"
