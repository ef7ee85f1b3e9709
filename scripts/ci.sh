#!/usr/bin/env bash
# The repo's CI gate: formatting, lints (warnings are errors), tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== cargo test --workspace -q =="
# The whole suite is expected green — every crate's unit tests and
# crates/*/tests/*_prop.rs, not just the root package's integration tests
# that a bare `cargo test -q` runs. No known-failure carve-outs.
cargo test --workspace -q

echo "== single-part path (RAYON_NUM_THREADS=1: the GEMM driver never forks) =="
RAYON_NUM_THREADS=1 cargo test -q -p seneca-tensor -p seneca-ir

echo "== benchmark package (a crate API change that breaks benchmark/ fails here) =="
# --release, as benchmark/README.md runs them: two of its tests time the
# machine-speed calibration kernel, which a debug build slows past their budget.
cargo test --offline -q --release --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick

echo "== serve smoke (seneca-serve demo) =="
cargo run --release -q -p seneca-serve --example serve_demo -- smoke

echo "== ir smoke (pass pipeline clean; peak arena < total activations; implicit-GEMM peak < materialized route) =="
cargo run --release -q -p seneca-bench --example ir_stats

echo "== kernel smoke (igemm and W4 nibble GEMM bit-exact; packed GEMM beats reference; implicit conv == materialized; on 16M 64->32 @256: implicit >= materialized in both dtypes, Winograd bit-exact and > direct, i8 / f32 MAC rate printed) =="
cargo run --release -q -p seneca-bench --example kernel_stats -- smoke

echo "== kernel asm (INT8/INT4/Winograd i16 tiles: vpdpwssd/vpmaddwd, no vpmulld; f32 tile: vfmadd231ps, no vmulps/vaddps) =="
bash scripts/check_kernel_asm.sh

echo "== trace smoke (profile: op spans fit the wall; measured-vs-modeled op-share band at 256 px; 16M pack share recorded) =="
cargo run --release -q -p seneca-bench --features trace-gemm --bin reproduce -- profile --scale fast

echo "== mixed smoke (16M W4/W8 plan cuts cycles and weight bytes above the agreement floor) =="
cargo run --release -q -p seneca-bench --bin reproduce -- mixed --scale fast

echo "== robustness smoke (lesion + scenario grid runs clean; small organs degrade most under INT8; calibration leveling recovers part) =="
cargo run --release -q -p seneca-bench --bin reproduce -- robustness --scale fast

echo "CI OK"
