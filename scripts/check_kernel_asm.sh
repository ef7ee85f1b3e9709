#!/usr/bin/env bash
# Catches the vectoriser silently regressing on the GEMM micro-kernels
# (crates/tensor/src/gemm.rs, module docs): disassembles the release
# kernel_stats example and fails if
#   * the INT8 tile function multiplies with vpmulld/pmulld (the widening
#     i32 form), or — on a host whose /proc/cpuinfo lists avx512_vnni —
#     contains no vpdpbusd on %zmm registers (the build lost its VNNI
#     kernel: a build without the feature compiles the portable body);
#   * the f32 tile function contains no vfmadd231ps, or any vmulps/vaddps
#     (the multiply-then-add form, a third of the FMA rate);
#   * on a host whose /proc/cpuinfo lists avx512f, a tile function has no
#     %zmm operand (the kernels fell back to ymm: dropping
#     `-prefer-256-bit` from .cargo/config.toml does that silently).
# `tile_f32` is generic over how it walks its k-steps (packed panels, row
# bands), `tile_i8` over the pieces it reads each 16-column half in (1, 2, 4
# or 8: one per piece width of a row band): every instance of a tile function
# is checked on its own, and each must exist.
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

zmm=0
if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
    zmm=1
fi
# `.` matches any instruction: no requirement beyond the forbidden ones.
int8_want=.
if grep -qw avx512_vnni /proc/cpuinfo 2>/dev/null; then
    int8_want='vpdpbusd\s.*%zmm[0-9]+'
fi

status=0
# fn, instructions it must contain, instructions it must not contain,
# instances expected.
for check in "tile_i8 $int8_want v?pmulld 4" \
    "tile_f32 vfmadd231ps vmulps|vaddps 2"; do
    read -r fn want forbid instances <<<"$check"
    # The (mangled) symbols are seneca_tensor::gemm::<fn>[::<hash>]; each
    # must exist as a function of its own — the kernels are #[inline(never)]
    # on purpose.
    syms="$(grep -oE "^[0-9a-f]+ <[^>]*4gemm${#fn}${fn}[^>]*>:$" <<<"$asm" | sort -u || true)"
    found="$(grep -c . <<<"$syms" || true)"
    if [[ "$found" -ne "$instances" ]]; then
        echo "check_kernel_asm: FAIL $fn: $found instances in $bin, expected $instances (inlined or renamed?)"
        status=1
        continue
    fi
    while read -r sym; do
        body="$(awk -v head="$sym" '/^[0-9a-f]+ <.*>:$/ { inside = ($0 == head) } inside' <<<"$asm")"
        bad="$(grep -cwE "$forbid" <<<"$body" || true)"
        good="$(grep -cwE "$want" <<<"$body" || true)"
        wide="$(grep -c '%zmm' <<<"$body" || true)"
        addr="${sym%% *}"
        if [[ "$bad" -gt 0 || "$good" -eq 0 ]]; then
            echo "check_kernel_asm: FAIL $fn @$addr: $good x $want, $bad x $forbid"
            status=1
        elif [[ "$zmm" -eq 1 && "$wide" -eq 0 ]]; then
            echo "check_kernel_asm: FAIL $fn @$addr: no %zmm operand on an avx512f host (ymm fallback?)"
            status=1
        else
            echo "check_kernel_asm: $fn @$addr ok ($good x $want, no $forbid, $wide lines with %zmm)"
        fi
    done <<<"$syms"
done
exit $status
