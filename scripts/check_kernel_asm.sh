#!/usr/bin/env bash
# Catches the vectoriser silently regressing on the INT8/INT4 micro-kernels
# (crates/tensor/src/gemm.rs, "codegen hazards"): disassembles the release
# kernel_stats example and fails if a tile function multiplies with
# vpmulld/pmulld (the widening i32 form, half the MAC rate) or contains
# neither vpdpwssd nor vpmaddwd (the pair-wise multiply-accumulate the offset
# form is written to get). x86-64 hosts with objdump only; skips elsewhere.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "$(uname -m)" != x86_64 ]] || ! command -v objdump >/dev/null; then
    echo "check_kernel_asm: skipped (needs an x86-64 host with objdump)"
    exit 0
fi

cargo build --release -q -p seneca-bench --example kernel_stats
bin="${CARGO_TARGET_DIR:-target}/release/examples/kernel_stats"
asm="$(objdump -d --no-show-raw-insn "$bin")"

status=0
for fn in tile_i8 tile_i4; do
    # The (mangled) symbol is seneca_tensor::gemm::<fn>; it must exist as a
    # function of its own — the kernels are #[inline(never)] on purpose.
    body="$(awk -v sym="4gemm${#fn}${fn}" \
        '/^[0-9a-f]+ <.*>:$/ { inside = index($0, sym) > 0 } inside' <<<"$asm")"
    if [[ -z "$body" ]]; then
        echo "check_kernel_asm: FAIL $fn: no such function in $bin (inlined or renamed?)"
        status=1
        continue
    fi
    mul="$(grep -cwE 'v?pmulld' <<<"$body" || true)"
    dot="$(grep -cwE 'vpdpwssd|v?pmaddwd' <<<"$body" || true)"
    if [[ "$mul" -gt 0 || "$dot" -eq 0 ]]; then
        echo "check_kernel_asm: FAIL $fn: $mul x (v)pmulld, $dot x vpdpwssd/(v)pmaddwd"
        status=1
    else
        echo "check_kernel_asm: $fn ok ($dot x vpdpwssd/(v)pmaddwd, no (v)pmulld)"
    fi
done
exit $status
