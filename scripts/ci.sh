#!/usr/bin/env bash
# The repo's CI gate: formatting, lints (warnings are errors), tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc links (no doc links a missing, ambiguous or private item) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps

echo "== serving and routing cores stay sans-IO (no clock read, sleep, lock, channel or atomic in crates/serve/src/intake.rs or crates/fleet/src/router.rs) =="
echo "Each core takes its inputs from its caller and returns what to do, so tests/serve_explorer.rs and tests/fleet_explorer.rs step them on seeded schedules; the threaded shells (server.rs, fleet.rs) own the clock, the locks, the condvars and the channels."
for core in crates/serve/src/intake.rs crates/fleet/src/router.rs; do
    if grep -nE 'Instant::now|\.elapsed\(\)|thread::sleep|Mutex|Condvar|mpsc|Atomic' "$core"; then
        echo "$core reads the clock, sleeps, locks, sends or shares an atomic (lines above): move that into its shell" >&2
        exit 1
    fi
done

echo "== one fork point (no parallel iterator in crates/*/src or crates/*/examples outside the GEMM driver and the cohort rasteriser) =="
echo "Inference session workers already hold one core each, so a kernel that forks again only oversubscribes them: only crates/tensor/src/gemm.rs (above FORK_MIN_MACS) and crates/data/src/phantom.rs may call par_iter, par_chunks or into_par_iter."
if grep -rnE 'par_iter|par_chunks' --include='*.rs' crates/*/src crates/*/examples |
    grep -vE '^(crates/tensor/src/gemm\.rs|crates/data/src/phantom\.rs):'; then
    echo "parallel iterator outside gemm.rs / phantom.rs (lines above): run that loop on the caller's thread" >&2
    exit 1
fi

echo "== one INT8 walk (execute_node_i8 in crates/*/src or crates/*/examples only inside crates/ir/src and crates/quant/src) =="
echo "Whole-frame INT8 inference, the DPU runner's included, runs Lowered::execute_i8_into through the host INT8 backend; only the executor itself, its oracle checks and the quantizer's per-node readers step node by node."
if grep -rn 'execute_node_i8' --include='*.rs' crates/*/src crates/*/examples |
    grep -vE '^crates/(ir|quant)/src/'; then
    echo "execute_node_i8 outside crates/ir/src / crates/quant/src (lines above): run the frame through execute_i8_into" >&2
    exit 1
fi

echo "== one unsafe block (the AVX-512 VNNI tile call in crates/tensor/src/gemm.rs is the only unsafe in crates/*/src) =="
echo "Every crate root denies unsafe_code; the call of the #[target_feature] INT8 micro-kernel alone allows it, with a SAFETY note: the cfg it sits under guarantees the CPU feature."
unsafe_lines="$(grep -rnwE 'unsafe' --include='*.rs' crates/*/src | grep -vE '^[^:]+:[0-9]+:\s*//' || true)"
if [[ "$(grep -c . <<<"$unsafe_lines")" -ne 1 || "$unsafe_lines" != crates/tensor/src/gemm.rs:* ]]; then
    echo "$unsafe_lines" >&2
    echo "unsafe outside the one VNNI tile call (lines above): keep the kernels safe" >&2
    exit 1
fi

echo "== cargo test --workspace -q =="
# The whole suite is expected green — every crate's unit tests and
# crates/*/tests/*_prop.rs, not just the root package's integration tests
# that a bare `cargo test -q` runs. No known-failure carve-outs.
cargo test --workspace -q

echo "== single-part path (RAYON_NUM_THREADS=1: the GEMM driver never forks; training bits equal the threaded run's) =="
RAYON_NUM_THREADS=1 cargo test -q -p seneca-tensor -p seneca-ir
RAYON_NUM_THREADS=1 cargo test -q --test training_golden

echo "== benchmark package (a crate API change that breaks benchmark/ fails here) =="
# --release, as benchmark/README.md runs them: two of its tests time the
# machine-speed calibration kernel, which a debug build slows past their budget.
cargo test --offline -q --release --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick

echo "== exact gate (every output checksum and exact ledger field of that run equals scripts/exact_baseline.json) =="
cargo run --release -q -p seneca-bench --bin exact_gate

echo "== benchmark/ untouched (a crate dependency-list edit rewrites benchmark/Cargo.lock in the build above) =="
changed="$(git status --porcelain -- benchmark BENCHMARK.json)"
if [[ -n "$changed" ]]; then
    echo "benchmark/ or BENCHMARK.json changed:" >&2
    echo "$changed" >&2
    exit 1
fi

echo "== serve smoke (seneca-serve demo) =="
cargo run --release -q -p seneca-serve --example serve_demo -- smoke

echo "== device-throughput smokes (calibrate: per-model DpuRunner/GpuRunner::throughput at 256, no training; fig3: GPU + DPU 1/2/4/8-thread sweep through the bench context; wall time printed) =="
time cargo run --release -q -p seneca-bench --example calibrate
time cargo run --release -q -p seneca-bench --bin reproduce -- fig3 --scale fast

echo "== ir smoke (seneca_quant::fuse folds every BN, fuses every ReLU, strips every identity; lowering packs one kernel per conv/tconv and none for any other node; every concat's inputs placed at their channel offsets, copying nothing, in both dtypes; arena = pinned 256² arena = peak-live footprint < total activations; implicit-GEMM peak < materialized route) =="
cargo run --release -q -p seneca-bench --example ir_stats

echo "== kernel smoke (igemm bit-exact; packed GEMM beats reference; implicit conv == materialized; on 16M 64->32 @256: implicit >= materialized in both dtypes, the INT8 row-band conv bit-exact against the naive reference and >= 1.5x the FP32 conv's MAC rate; on 1M 16->16 @128: INT8 tconv == GEMM + scatter and >= 0.6x the MAC rate of the same GEMM with a row store) =="
cargo run --release -q -p seneca-bench --example kernel_stats -- smoke

echo "== kernel asm (INT8 tile: no vpmulld, and vpdpbusd on a %zmm operand where /proc/cpuinfo lists avx512_vnni; f32 tile: vfmadd231ps, no vmulps/vaddps) =="
bash scripts/check_kernel_asm.sh

echo "== trace smoke (profile: op spans fit the wall; measured-vs-modeled op-share band at 256 px; 16M pack share recorded) =="
cargo run --release -q -p seneca-bench --features trace-gemm --bin reproduce -- profile --scale fast

echo "== mixed smoke (16M W4/W8 plan cuts cycles and weight bytes above the agreement floor) =="
cargo run --release -q -p seneca-bench --bin reproduce -- mixed --scale fast

echo "== prune smoke (shrink the 1M at 0 / 12.5 / 25 / 50 %: MACs fall strictly with the ratio, and the 0 % row equals DpuRunner::throughput on the unshrunk 1M; wall time printed) =="
time cargo run --release -q -p seneca-bench --bin reproduce -- ablation-prune --scale fast

echo "== robustness smoke (lesion + scenario grid runs clean; small organs degrade most under INT8; calibration leveling recovers part) =="
cargo run --release -q -p seneca-bench --bin reproduce -- robustness --scale fast

echo "CI OK"
