#!/usr/bin/env bash
# Catches the vectoriser silently regressing on the GEMM micro-kernels
# (crates/tensor/src/gemm.rs, module docs): disassembles the release
# kernel_stats example and fails if
#   * an integer tile function (INT8, INT4, and the i16 Winograd tile)
#     multiplies with vpmulld/pmulld (the widening i32 form, half the MAC
#     rate) or contains neither vpdpwssd nor vpmaddwd (the pair-wise
#     multiply-accumulate the offset form is written to get);
#   * the f32 tile function contains no vfmadd231ps, or any vmulps/vaddps
#     (the multiply-then-add form, a third of the FMA rate).
# x86-64 hosts with objdump only; skips elsewhere.
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
# fn, instructions it must contain, instructions it must not contain.
for check in "tile_i8 vpdpwssd|v?pmaddwd v?pmulld" \
    "tile_i4 vpdpwssd|v?pmaddwd v?pmulld" \
    "tile_i16 vpdpwssd|v?pmaddwd v?pmulld" \
    "tile_f32 vfmadd231ps vmulps|vaddps"; do
    read -r fn want forbid <<<"$check"
    # The (mangled) symbol is seneca_tensor::gemm::<fn>; it must exist as a
    # function of its own — the kernels are #[inline(never)] on purpose.
    body="$(awk -v sym="4gemm${#fn}${fn}" \
        '/^[0-9a-f]+ <.*>:$/ { inside = index($0, sym) > 0 } inside' <<<"$asm")"
    if [[ -z "$body" ]]; then
        echo "check_kernel_asm: FAIL $fn: no such function in $bin (inlined or renamed?)"
        status=1
        continue
    fi
    bad="$(grep -cwE "$forbid" <<<"$body" || true)"
    good="$(grep -cwE "$want" <<<"$body" || true)"
    if [[ "$bad" -gt 0 || "$good" -eq 0 ]]; then
        echo "check_kernel_asm: FAIL $fn: $good x $want, $bad x $forbid"
        status=1
    else
        echo "check_kernel_asm: $fn ok ($good x $want, no $forbid)"
    fi
done
exit $status
