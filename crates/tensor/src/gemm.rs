//! Packed, register-tiled matrix multiplication: one strip-mined
//! pack+compute driver, two micro-kernels (`f32`, and `i8` on AVX-512 VNNI
//! with a portable body elsewhere), fused epilogues.
//!
//! Every GEMM of the crate — the matrix entry points here ([`sgemm`] …
//! [`igemm_fused`]) and the implicit-GEMM convolutions and transpose
//! convolutions of [`crate::igemm`], in `f32` and `i8` (W8 and W4 weights
//! alike: a W4 weight is an `i8` in `[-8, 7]`) — computes `C = A * B` with
//! `A: [m x k]`, `B: [k x n]` through the same driver:
//!
//! ```text
//!            B (never materialised whole)           per part, per strip:
//!        ┌──────┬──────┬──────┬─ ─ ─┬──────┐          1. pack `nc` columns of B into
//!      k │strip0│strip1│strip2│     │      │             NR-wide k-major panels
//!        └──────┴──────┴──────┴─ ─ ─┴──────┘             ([jp][kk][NR], L2-resident)
//!        ├── part 0 ───┤├──── part 1 ──────┤          2. run EVERY MR-row tile of A
//!   A    ┌──────┬──────┬──────┬─ ─ ─┬──────┐             against it, storing each
//! ┌───┐  │      │      │      │     │      │             MR x NR tile through the
//! │m×k│ m│      │  C   │      │     │      │             fused epilogue
//! └───┘  └──────┴──────┴──────┴─ ─ ─┴──────┘
//! ```
//!
//! 1. **Strips.** The output columns are cut into strips of `nc` columns,
//!    `nc` chosen so one packed strip (`k * nc` elements) fits
//!    [`STRIP_BYTES`]. A strip is packed into a small per-part buffer and
//!    consumed at once by all row tiles, so the packed activations never make
//!    a round trip through DRAM (the whole-`B` buffer this replaces was
//!    37.7 MB for one 16M-model layer at 256², 151 MB in FP32). Edge panels
//!    are zero padded to the tile width: the micro-kernels see no remainder,
//!    padded lanes hold exact zeros and are clipped at store time.
//!
//!    **Bands.** A 3x3 pad-1 stride-1 conv whose width `W` is a multiple of
//!    `NR` (FP32) or of `NR / 2` (INT8) packs no strip: the 9x im2col copy
//!    would be read by only `c_out / MR` row tiles. A strip is `r` whole
//!    output rows instead, and its buffer a zero-bordered copy of the `r + 2`
//!    input rows they read, `r` chosen within [`STRIP_BYTES`]
//!    (`Strip::Band`). The tile reads each k-step's `NR` values in place:
//!
//!    ```text
//!      band, per part, per strip:  [C][r+2][W+2]     (1.x times the rows, not 9x)
//!        plane c  ┌─┬─────────────────────┬─┐
//!                 │0│ input row oy0-1     │0│  a row outside the map is all 0
//!                 │0│ input row oy0       │0│
//!                 │0│   ...               │0│
//!                 │0│ input row oy0+r     │0│
//!                 └─┴─────────────────────┴─┘
//!      B[kk = (c, ky, kx)][oy*W + ox0 + j] = band[base + off[kk] + j],  j < NR
//!      base    = (oy - oy0)(W+2) + ox0
//!      off[kk] = c(r+2)(W+2) + ky(W+2) + kx        (a packed panel: off[kk] = kk*NR)
//!    ```
//!
//!    The zero border is the `+0.0` the strip pack writes for padding, and
//!    the tile walks the same ascending `k`, so both layouts give the same
//!    bits. Parts and strips are cut on whole output rows, as the tconv
//!    parts are. The INT8 band is the same with a channel quad per pixel
//!    (`[C/4][r+2][W+2][4]`, below), its k-steps `(quad, ky, kx)`, and each
//!    16-column half of a panel read from its own base, so that at `W = 16`
//!    a panel's two halves are two output rows. Every other GEMM (narrower
//!    maps, the tconv, stride 2, the weight gradient, plain GEMMs) packs
//!    strips.
//! 2. **Parts.** One fork-join per GEMM. With at least as many strips as
//!    threads the parts split the *columns* — so layers with few output rows
//!    (`c_out <= 32`, every full-resolution layer of the 1M model) use every
//!    core; otherwise they split the row tiles and each packs the one strip
//!    itself. GEMMs under [`FORK_MIN_MACS`] run inline on the caller. The
//!    per-part strip buffers are slices of one [`Work`] the caller hands the
//!    driver (`run_with`): the executor's worker arena owns one per element
//!    type, sized once for its plan, and the entry points that take none use
//!    the *calling* thread's. A part never touches its own thread's scratch:
//!    the rayon shim's workers are fresh threads, whose thread-locals would
//!    be re-allocated every call.
//! 3. **Micro-kernels.** An `MR x NR` accumulator tile walks one `A` row
//!    panel (`[ip][s][MR][GROUP]`, packed once per weight tensor —
//!    [`PackedA`]) and one `B` panel over the whole `k` extent — a packed
//!    panel, or the k-step offsets of a band (the INT8 tile reads a packed
//!    panel through offsets too: it has one walk); constant trip counts let
//!    LLVM keep the tile in vector registers.
//! 4. **Fused epilogues.** Bias, ReLU, an inference BatchNorm, the DPU
//!    requantise-clamp and the transpose-conv scatter are applied to the
//!    finished tile as it is stored; there is no pass over `C` after the
//!    GEMM.
//!
//! Each output element is accumulated in ascending-`k` order over the full
//! extent whatever the strip or part split, so `f32` results do not depend on
//! the thread count or the cache budget, and the integer paths are bit-exact
//! under any regrouping.
//!
//! # The f32 micro-kernel: one fused multiply-add per MAC
//!
//! The `f32` contract is *ascending-`k` FMA*: `acc = a.mul_add(b, acc)` from
//! `acc = 0.0`, one rounding per step ([`sgemm_reference`] is that loop).
//! Rust never contracts `acc += a * b` into an FMA, and that form, inlined
//! into the driver, compiled to 16 `vmulps` + 16 `vaddps` plus a dozen
//! `vpermt2pd` / `vinsertf32x4` / `vblendmps` shuffles per k-step — about a
//! third of the machine's FP32 rate. Isolating it `#[inline(never)]` alone
//! compiles to the same shuffle-laden loop. With `mul_add` the isolated
//! `tile_f32` is 2 `vmovups`, 8 `vbroadcastss` and 16 `vfmadd231ps` per
//! k-step, nothing else (`scripts/check_kernel_asm.sh` holds it there).
//! There is one arithmetic, no `cfg` fork: `mul_add` is exactly rounded on
//! every target (the ZCU104's A53 cores have FMA too), so results do not
//! depend on the CPU either.
//!
//! # The INT8 micro-kernel: `vpdpbusd` over channel quads
//!
//! AVX-512 VNNI's `vpdpbusd` multiplies 64 unsigned by 64 signed bytes and
//! adds each lane's four products to one `i32`: 64 MACs per instruction,
//! four times a one-product-per-lane `vpdpwssd`. So INT8 operands are packed
//! in *quads* of `k` rows ([`QUAD`]): a conv's in the order (channel quad,
//! tap, channel within quad), `C` zero padded ([`KOrder::Conv`]), so that a
//! step's four activations are one pixel's side by side in a row band; any
//! other GEMM's four consecutive rows ([`KOrder::Rows`]).
//!
//! ```text
//!   A panel  [s][MR][4]  i8        B  [s][NR][4] u8, or the band [C/4][r+2][W+2][4]
//!   per step s, row i, half h:  acc[i][h] = vpdpbusd(acc[i][h], B[h], bcast(A[s][i]))
//! ```
//!
//! The activations are the unsigned side, `x ^ 0x80 = x + 128` (the zero
//! pixel is `0x80`), and `Σ_k w·x = Σ_k w·(x + 128) − 128 · Σ_k w`: the
//! correction depends on the weights alone, so [`PackedA`] keeps it per row
//! as the accumulator's start ([`PackElem::row_starts`]) and the kernel
//! keeps no column sums. Bound: a partial sum is at most `128·128·k` (the
//! start) plus `255·128·k`, `49 024 · k < 2^31` for `k <= 43 804`;
//! [`PackElem::MAX_K`] is `2^15`, asserted where panels are packed, on `k`
//! padded to whole quads (the largest Table II `k` is 9216).
//!
//! `tile_i8` is a `#[target_feature]` function on `core::arch`, compiled
//! when the build enables AVX-512 VNNI and called through the workspace's
//! one `unsafe` block (`call_tile_i8`). Its loads are bounds-checked slices
//! read by `_mm512_set_epi64` over `i64::from_le_bytes`, which LLVM makes one
//! `vmovdqu64` (with the eight words in one `from_fn` array: eight separate
//! calls left a half as a `vpermt2q` shuffle); its store goes through 64-bit
//! extracts, one `vmovdqu64` per register. Per step: 2 loads, 8 broadcasts,
//! 16 `vpdpbusd`. A packed panel is read through k-step offsets as a band is
//! (`s · NR · 4`), so there is one instance. Other builds run
//! `tile_i8_portable`, the same layout and sums in plain Rust (its lanes
//! unpacked by shift and mask, which LLVM turns into `vpmaddwd`).
//! `scripts/check_kernel_asm.sh` fails CI if `tile_i8` holds a `vpmulld`,
//! or on a VNNI host no `vpdpbusd` on `%zmm`. Like `tile_f32` it is
//! `#[inline(never)]`: inlined into the driver closure, an integer MAC loop
//! was vectorised over `k` with operands assembled byte by byte (`vpinsrb`).
//!
//! There is deliberately **no** `a[i][k] == 0` sparse-skip branch in the
//! inner loops: a data-dependent branch defeats autovectorization for every
//! input and only pays off when a whole SIMD lane-group of multiplies would
//! be saved — essentially never for dense activations.

use crate::quantized::requantize_i32;
use crate::zero::Zero;
use rayon::prelude::*;
use std::cell::RefCell;
use std::ops::Range;
use std::thread::LocalKey;

/// Rows of the register-accumulator micro-tile.
pub const MR: usize = 8;

/// Columns of the register-accumulator micro-tile. With AVX-512 this is two
/// vector registers per tile row (16 accumulator registers total for the
/// 8x32 tile), which measures fastest on both the f32 and the INT8 kernels;
/// with AVX2 it is four.
pub const NR: usize = 32;

/// `k` rows per INT8 micro-kernel step: one 32-bit lane of `vpdpbusd` sums
/// four byte products. INT8 operands are packed in quads of `k` rows.
pub const QUAD: usize = 4;

/// Cache budget of one packed `B` strip (see [`strip_cols`]) or one row
/// band. Sized for the L2 of the smallest cores this runs on; every row tile
/// re-reads the strip from there. The FP32 band conv measured the same from
/// 128 to 512 KiB on every 1M/16M shape at 256² down to 32², and well above
/// the packed strips at each.
pub const STRIP_BYTES: usize = 256 << 10;

/// GEMMs below this many multiply-accumulates run inline on the calling
/// thread: a spawn-and-join measures 60–100 µs on the reference VM, which is
/// what half of such a GEMM takes (break-even sits near 8M MACs for `i8`,
/// a little lower for `f32`).
pub const FORK_MIN_MACS: usize = 1 << 23;

/// Fused epilogue applied to the register accumulators at store time.
///
/// The bias is indexed by the **row** of `C` (the output channel in the
/// im2col convolution lowering); a missing entry (short or empty slice)
/// contributes `0.0`, so `Bias(&[])` is equivalent to `None`.
#[derive(Debug, Clone, Copy)]
pub enum GemmEpilogue<'a> {
    /// Store the raw accumulators.
    None,
    /// `c[i][j] = acc[i][j] + bias[i]`.
    Bias(&'a [f32]),
    /// `c[i][j] = max(acc[i][j] + bias[i], 0.0)`.
    BiasRelu(&'a [f32]),
    /// An inference BatchNorm (and optionally a ReLU) carried in the store:
    /// `x = acc[i][j] + bias[i]`, `y = scale[i] * x + shift[i]` (two
    /// roundings, as `batchnorm_inference_into` computes it), then
    /// `y.max(0.0)` when `relu` — per element exactly what the bias store,
    /// the BN pass and the ReLU pass compute one after another. `bn[i]` is
    /// row `i`'s `(scale, shift)` ([`crate::norm::BnState::affine`]). A
    /// missing bias entry adds `-0.0`, the exact identity, so an empty bias
    /// matches the unfused `None` store bit for bit.
    BiasBn {
        /// Per-row conv bias (may be empty).
        bias: &'a [f32],
        /// Per-row `(scale, shift)`.
        bn: &'a [(f32, f32)],
        /// Clamp at zero after the affine.
        relu: bool,
    },
}

/// GEMM work memory for one element type: the strip buffers of the driver's
/// parallel parts (of [`PackElem::Strip`]s), and the k-step offsets the
/// micro-kernel reads a panel or band through. Both grow to the largest
/// call's need and are reused call to call. An executor worker owns one per
/// element type, built with its arena on the calling thread and sized once
/// for its plan ([`Work::new`]), and hands it to the entry points that take
/// one; every other entry point uses the calling thread's.
#[derive(Debug, Clone)]
pub struct Work<T: PackElem> {
    strips: Vec<T::Strip>,
    offsets: Vec<u32>,
}

impl<T: PackElem> Default for Work<T> {
    fn default() -> Self {
        Self { strips: Vec::new(), offsets: Vec::new() }
    }
}

impl<T: PackElem> Work<T> {
    /// Work memory of `strips` zeroed strip elements and room for `offsets`
    /// k-step offsets ([`crate::igemm::sgemm_conv_scratch`],
    /// [`crate::igemm::igemm_conv_scratch`] and [`strip_scratch_len`] give
    /// the sizes of a call).
    pub fn new(strips: usize, offsets: usize) -> Self {
        Self { strips: vec![T::Strip::ZERO; strips], offsets: Vec::with_capacity(offsets) }
    }

    /// Strip elements held.
    pub fn strip_len(&self) -> usize {
        self.strips.len()
    }

    /// Offsets held without growing.
    pub fn offset_capacity(&self) -> usize {
        self.offsets.capacity()
    }
}

/// This thread's reusable pack buffers for one element type: the `A` panels
/// of the entry points that pack weights per call, and the work memory of
/// those that take no [`Work`].
#[doc(hidden)]
#[derive(Debug)]
pub struct PackScratch<T: PackElem> {
    a_panels: Vec<T>,
    work: Work<T>,
}

impl<T: PackElem> PackScratch<T> {
    const EMPTY: Self =
        Self { a_panels: Vec::new(), work: Work { strips: Vec::new(), offsets: Vec::new() } };
}

thread_local! {
    static PACK_F32: RefCell<PackScratch<f32>> = const { RefCell::new(PackScratch::EMPTY) };
    static PACK_I8: RefCell<PackScratch<i8>> = const { RefCell::new(PackScratch::EMPTY) };
}

/// Element type of a packed GEMM operand (`f32`, `i8`).
pub trait PackElem: Zero + Send + Sync + std::fmt::Debug + 'static {
    /// Largest shared (`k`) extent, padding included, the micro-kernel of
    /// this type accumulates without overflow (see the module docs for the
    /// INT8 bound).
    const MAX_K: usize;

    /// `k` rows per micro-kernel step (`1`, or [`QUAD`] for `i8`).
    const GROUP: usize;

    /// What the packed `B` strips and row bands hold: the value itself, or
    /// for `i8` the activation read as unsigned, `x ^ 0x80 = x + 128`.
    type Strip: Zero + Send + Sync + std::fmt::Debug;

    /// The accumulator start of each row `i < m` of an `m x k` `A` operand
    /// (`get(i, kk)`), or nothing when the accumulators start at zero. An
    /// `i8` row starts at `-128 * Σ_k a[i][kk]`, which takes the `+ 128` of
    /// its unsigned activations back out.
    #[doc(hidden)]
    fn row_starts(m: usize, k: usize, get: impl Fn(usize, usize) -> Self) -> Vec<i32>;

    #[doc(hidden)]
    fn scratch() -> &'static LocalKey<RefCell<PackScratch<Self>>>;
}

impl PackElem for f32 {
    const MAX_K: usize = usize::MAX;
    const GROUP: usize = 1;
    type Strip = f32;

    fn row_starts(_: usize, _: usize, _: impl Fn(usize, usize) -> f32) -> Vec<i32> {
        Vec::new()
    }

    fn scratch() -> &'static LocalKey<RefCell<PackScratch<f32>>> {
        &PACK_F32
    }
}

impl PackElem for i8 {
    /// `2^15`: see the module docs' bound `k · 49 024 < 2^31`.
    const MAX_K: usize = 1 << 15;
    const GROUP: usize = QUAD;
    type Strip = u8;

    fn row_starts(m: usize, k: usize, get: impl Fn(usize, usize) -> i8) -> Vec<i32> {
        let mut starts = vec![0; m.div_ceil(MR) * MR];
        for (i, s) in starts.iter_mut().enumerate().take(m) {
            *s = -128 * (0..k).map(|kk| i32::from(get(i, kk))).sum::<i32>();
        }
        starts
    }

    fn scratch() -> &'static LocalKey<RefCell<PackScratch<i8>>> {
        &PACK_I8
    }
}

/// Runs `f` on the calling thread's work memory, taken out of its pack
/// scratch so that no `RefCell` borrow is held while the GEMM runs.
pub(crate) fn with_thread_work<T: PackElem, R>(f: impl FnOnce(&mut Work<T>) -> R) -> R {
    let mut work = T::scratch().with(|s| std::mem::take(&mut s.borrow_mut().work));
    let r = f(&mut work);
    T::scratch().with(|s| s.borrow_mut().work = work);
    r
}

/// The order of the shared (`k`) rows within one micro-kernel step of
/// [`PackElem::GROUP`] rows. It matters for INT8 operands only: an `f32`
/// step is one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KOrder {
    /// Rows in order, `GROUP` per step, the last step zero padded.
    Rows,
    /// The `[C * taps]` rows of a conv weight (`kk = c * taps + tap`) in the
    /// order (channel group, tap, channel within group): step `s` holds tap
    /// `s % taps` of the `GROUP` channels of group `s / taps`, `C` zero
    /// padded to a whole group. A row band holds a channel group of one
    /// pixel side by side, so one step is one place in the band.
    Conv {
        /// Kernel taps (`K * K`).
        taps: usize,
    },
}

impl KOrder {
    /// Micro-kernel steps of `g` rows that `k` rows pack into.
    fn steps(self, k: usize, g: usize) -> usize {
        match self {
            KOrder::Rows => k.div_ceil(g),
            KOrder::Conv { taps } => (k / taps).div_ceil(g) * taps,
        }
    }

    /// The row at place `q` of step `s`, or `None` for padding.
    fn row(self, k: usize, g: usize, s: usize, q: usize) -> Option<usize> {
        match self {
            KOrder::Rows => Some(s * g + q).filter(|&kk| kk < k),
            KOrder::Conv { taps } => {
                let c = s / taps * g + q;
                (c < k / taps).then_some(c * taps + s % taps)
            }
        }
    }
}

/// A pre-packed `A` operand: the `MR`-tall row panels the micro-kernel
/// consumes, built once and reused across calls.
///
/// Inference weights are immutable, so re-packing them on every frame (as
/// [`sgemm_fused`] / [`igemm_fused`] must, since they only see flat slices) is
/// pure per-frame overhead. The lowering in `seneca-ir` builds one
/// `PackedA` per weight tensor and routes frames through the
/// `*_packed` entry points, whose per-call pack work covers only the
/// activation (`B`) strips.
///
/// A panel holds, per micro-kernel step, `GROUP` values of each of its `MR`
/// rows (`[s][MR][GROUP]`), the steps in the [`KOrder`] the operand was
/// packed in. An INT8 operand also holds each row's accumulator start
/// ([`PackElem::row_starts`]). The panel bytes are identical to what the
/// unpacked entry points produce internally, so packed and unpacked calls
/// are bit-identical.
#[derive(Debug, Clone)]
pub struct PackedA<T> {
    m: usize,
    k: usize,
    order: KOrder,
    pub(crate) panels: Vec<T>,
    starts: Vec<i32>,
}

impl<T: PackElem> PackedA<T> {
    /// Packs a row-major `m x k` matrix, rows in order. Panics if `k`,
    /// padded to a whole step, exceeds [`PackElem::MAX_K`].
    pub fn pack(m: usize, k: usize, a: &[T]) -> Self {
        assert_eq!(a.len(), m * k, "A size");
        Self::pack_with(m, k, KOrder::Rows, |i, kk| a[i * k + kk], Vec::new())
    }

    /// Packs `A` (via `get(i, kk)`) into `panels`, reusing its allocation.
    fn pack_with(
        m: usize,
        k: usize,
        order: KOrder,
        get: impl Fn(usize, usize) -> T,
        mut panels: Vec<T>,
    ) -> Self {
        let (g, steps) = (T::GROUP, order.steps(k, T::GROUP));
        let depth = steps * g;
        assert!(depth <= T::MAX_K, "k = {depth} exceeds the accumulator-safe extent {}", T::MAX_K);
        panels.resize(m.div_ceil(MR) * MR * depth, T::ZERO);
        for (ip, panel) in panels.chunks_exact_mut(MR * depth.max(1)).enumerate() {
            let rows = MR.min(m - ip * MR);
            for (s, step) in panel.chunks_exact_mut(MR * g).enumerate() {
                for (q, d) in step.iter_mut().enumerate() {
                    let (ii, q) = (q / g, q % g);
                    *d = match order.row(k, g, s, q) {
                        Some(kk) if ii < rows => get(ip * MR + ii, kk),
                        _ => T::ZERO,
                    };
                }
            }
        }
        Self { m, k, order, panels, starts: T::row_starts(m, k, get) }
    }

    /// Runs `f` on `A` packed into the calling thread's scratch (the entry
    /// points that see flat weight slices pack them per call).
    pub(crate) fn with_scratch<R>(
        m: usize,
        k: usize,
        get: impl Fn(usize, usize) -> T,
        f: impl FnOnce(&Self) -> R,
    ) -> R {
        let panels = T::scratch().with(|s| std::mem::take(&mut s.borrow_mut().a_panels));
        let pa = Self::pack_with(m, k, KOrder::Rows, get, panels);
        let r = f(&pa);
        T::scratch().with(|s| s.borrow_mut().a_panels = pa.panels);
        r
    }

    /// `(m, depth)`: rows, and the shared extent the micro-kernel walks — `k`
    /// padded to whole steps.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.m, self.order.steps(self.k, T::GROUP) * T::GROUP)
    }
}

impl PackedA<i8> {
    /// Packs the `[c_out, c_in * taps]` weights of a conv in the order
    /// [`KOrder::Conv`]: what a conv that reads its activations from a row
    /// band needs ([`crate::igemm::igemm_conv_with`]); every other INT8 conv
    /// runs these panels too. Panics as [`PackedA::pack`] does.
    pub fn pack_conv(c_out: usize, c_in: usize, taps: usize, w: &[i8]) -> Self {
        let k = c_in * taps;
        assert_eq!(w.len(), c_out * k, "weight size");
        Self::pack_with(c_out, k, KOrder::Conv { taps }, |i, kk| w[i * k + kk], Vec::new())
    }
}

impl<T> PackedA<T> {
    /// Rows of the packed matrix.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Shared (`k`) extent of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The order the shared rows were packed in.
    pub fn order(&self) -> KOrder {
        self.order
    }

    /// Bytes held by the panels and the row starts (memory accounting).
    pub fn bytes(&self) -> usize {
        size_of_val(&self.panels[..]) + size_of_val(&self.starts[..])
    }
}

/// Kept for the benchmark's `tensor` probe until ROADMAP 3(a): a W4 layer's
/// weight panels are the INT8 panels, holding its `[-8, 7]` weights.
pub type PackedA4 = PackedA<i8>;

/// Elements of `B`-panel storage `n` columns of a `k`-row operand pack into
/// (the `NR`-wide column panels, tail panel zero padded).
pub fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Packs columns `cols` of `B` (via `get(kk, j)`) into `NR`-wide column
/// panels, k-major, zero padding the tail panel's missing columns.
pub(crate) fn pack_b<T: Zero>(
    k: usize,
    cols: Range<usize>,
    get: impl Fn(usize, usize) -> T,
    buf: &mut [T],
) {
    for (jp, panel) in
        buf[..packed_b_len(k, cols.len())].chunks_exact_mut(NR * k.max(1)).enumerate()
    {
        let j0 = cols.start + jp * NR;
        let valid = NR.min(cols.end - j0);
        for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
            for (jj, d) in dst.iter_mut().enumerate() {
                *d = if jj < valid { get(kk, j0 + jj) } else { T::ZERO };
            }
        }
    }
}

/// The INT8 `B` gather: packs columns `cols` of the `B` operand of `pa` into
/// `NR`-wide quad panels, `[s][NR][QUAD]` bytes, step `s` holding the rows
/// [`KOrder`] gives it side by side per column, each activation `x` as `x ^
/// 0x80`. `row(kk, j0, dst)` writes columns `j0 .. j0 + dst.len()` of `B`'s
/// row `kk` into `dst` and leaves the zeros it finds there where `B` is zero
/// (a padded pixel); padding rows and the tail panel's missing columns are
/// zero too. Every INT8 GEMM that reads no row band packs through here.
pub(crate) fn pack_quads(
    pa: &PackedA<i8>,
    cols: Range<usize>,
    buf: &mut [u8],
    row: impl Fn(usize, usize, &mut [i8]),
) {
    let depth = pa.dims().1;
    for (jp, panel) in
        buf[..packed_b_len(depth, cols.len())].chunks_exact_mut(NR * depth.max(1)).enumerate()
    {
        let j0 = cols.start + jp * NR;
        let valid = NR.min(cols.end - j0);
        for (s, step) in panel.as_chunks_mut::<{ QUAD * NR }>().0.iter_mut().enumerate() {
            let mut rows = [[0i8; NR]; QUAD];
            for (q, r) in rows.iter_mut().enumerate() {
                if let Some(kk) = pa.order.row(pa.k, QUAD, s, q) {
                    row(kk, j0, &mut r[..valid]);
                }
            }
            for (j, d) in step.as_chunks_mut::<QUAD>().0.iter_mut().enumerate() {
                *d = [0, 1, 2, 3].map(|q| rows[q][j] as u8 ^ 0x80);
            }
        }
    }
}

/// One `MR x NR` accumulator tile.
pub type Acc<S> = [[S; NR]; MR];

/// The `A` side of a GEMM as the driver sees it: packed row panels plus the
/// micro-kernel.
pub(crate) trait Panels: Sync {
    /// The element type of the packed operands.
    type E: PackElem;
    /// The accumulator element.
    type S: Copy + Default;

    /// `(m, depth)`: rows, and the shared extent the micro-kernel walks.
    fn dims(&self) -> (usize, usize);

    /// Writes the k-step offsets of this call's strips into `offs`: where
    /// step `s` of a panel sits, counted from the panel's first element.
    fn steps(&self, strip: Strip, strip_len: usize, offs: &mut Vec<u32>);

    /// Overwrites the first `rows` rows of `out` (at least) with row panel
    /// `ip` times the `B` panel `p`.
    fn tile(
        &self,
        ip: usize,
        p: Panel<'_, <Self::E as PackElem>::Strip>,
        rows: usize,
        out: &mut Acc<Self::S>,
    );
}

/// One `B` panel as the driver hands it to a tile: column `j` (the panel's
/// first, `cols` valid) of a part's strip buffer laid out as `kind` says,
/// and the k-step offsets [`Panels::steps`] wrote for the call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Panel<'a, B> {
    strip: &'a [B],
    j: usize,
    cols: usize,
    kind: Strip,
    offs: &'a [u32],
}

impl Panels for PackedA<f32> {
    type E = f32;
    type S = f32;

    fn dims(&self) -> (usize, usize) {
        PackedA::dims(self)
    }

    fn steps(&self, strip: Strip, strip_len: usize, offs: &mut Vec<u32>) {
        offs.clear();
        if let Strip::Band { c, w } = strip {
            band_offsets(c, 1, w, strip_len / c, offs);
        }
    }

    fn tile(&self, ip: usize, p: Panel<'_, f32>, _rows: usize, out: &mut Acc<f32>) {
        let ap = &self.panels[ip * MR * self.k..][..MR * self.k];
        match p.kind {
            Strip::Panels => {
                let bp = &p.strip[p.j * self.k..][..NR * self.k];
                tile_f32(ap, bp.as_chunks::<NR>().0.iter(), out)
            }
            Strip::Band { w, .. } => {
                let bp = &p.strip[p.j / w * (w + 2) + p.j % w..];
                let step = |&off: &u32| -> &[f32; NR] {
                    bp[off as usize..][..NR].try_into().expect("NR elements")
                };
                tile_f32(ap, p.offs.iter().map(step), out)
            }
        }
    }
}

impl Panels for PackedA<i8> {
    type E = i8;
    type S = i32;

    fn dims(&self) -> (usize, usize) {
        PackedA::dims(self)
    }

    fn steps(&self, strip: Strip, strip_len: usize, offs: &mut Vec<u32>) {
        offs.clear();
        match strip {
            Strip::Panels => {
                let steps = self.dims().1 / QUAD;
                offs.extend((0..steps).map(|s| u32::try_from(s * QUAD * NR).expect("fits u32")));
            }
            Strip::Band { c, w } => band_offsets(c / QUAD, QUAD, w, strip_len / (c / QUAD), offs),
        }
    }

    fn tile(&self, ip: usize, p: Panel<'_, u8>, _rows: usize, out: &mut Acc<i32>) {
        let depth = self.dims().1;
        let ap = &self.panels[ip * MR * depth..][..MR * depth];
        let starts = self.starts[ip * MR..][..MR].try_into().expect("MR row starts");
        // Where column `j` of the strip sits. The two 16-column halves of a
        // panel are read from their own places: on a band of width 16 they
        // are two output rows. A half-width panel reads its first half
        // twice.
        let at = |j: usize| match p.kind {
            Strip::Panels => j / NR * depth * NR + j % NR * QUAD,
            Strip::Band { w, .. } => (j / w * (w + 2) + j % w) * QUAD,
        };
        let half = if p.cols > NR / 2 { NR / 2 } else { 0 };
        let b = [&p.strip[at(p.j)..], &p.strip[at(p.j + half)..]];
        call_tile_i8(ap, starts, b, p.offs, out)
    }
}

/// The f32 micro-kernel: an `MR x NR` accumulator tile over the full `k`
/// extent of one A row panel and the `k` steps of `NR` `B` values that
/// `steps` walks (a packed panel's consecutive rows, or a row band's
/// offsets), one fused multiply-add per element and k-step (`acc =
/// a.mul_add(b, acc)`, one rounding), written to `out`. Branch-free with
/// constant trip counts so LLVM keeps the tile in vector registers; isolated
/// `#[inline(never)]` (see the module docs for what it compiles to). One
/// source for both walks: the compiler instantiates it once per walk.
#[inline(never)]
fn tile_f32<'b>(ap: &[f32], steps: impl Iterator<Item = &'b [f32; NR]>, out: &mut Acc<f32>) {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(steps) {
        let a: &[f32; MR] = a.try_into().expect("panel chunk");
        for (i, acc_i) in acc.iter_mut().enumerate() {
            let aik = a[i];
            for (acc_ij, &bv) in acc_i.iter_mut().zip(b) {
                *acc_ij = aik.mul_add(bv, *acc_ij);
            }
        }
    }
    *out = acc;
}

/// The INT8 micro-kernel on AVX-512 VNNI: an `MR x NR` tile of `i32`
/// accumulators, row `i` starting at `starts[i]`, over the quad steps of one
/// `A` row panel (`[s][MR][QUAD]`). Step `s` reads each half's `NR / 2`
/// columns of `QUAD` activation bytes at `b[half][offs[s]..]`; one
/// `vpdpbusd` per row and half adds each column's four products (module
/// docs).
#[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline(never)]
fn tile_i8(ap: &[i8], starts: &[i32; MR], b: [&[u8]; 2], offs: &[u32], out: &mut Acc<i32>) {
    use std::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_castsi512_si256, _mm512_dpbusd_epi32,
        _mm512_extracti64x4_epi64, _mm512_set1_epi32, _mm512_set_epi64,
    };
    let load = |s: &[u8]| {
        let q: [i64; 8] = std::array::from_fn(|i| {
            i64::from_le_bytes(s[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        });
        _mm512_set_epi64(q[7], q[6], q[5], q[4], q[3], q[2], q[1], q[0])
    };
    let mut acc: [[__m512i; 2]; MR] = starts.map(|s| [_mm512_set1_epi32(s); 2]);
    for (a, &off) in ap.as_chunks::<{ QUAD * MR }>().0.iter().zip(offs) {
        let off = off as usize;
        let bv = [load(&b[0][off..off + 64]), load(&b[1][off..off + 64])];
        for (i, acc_i) in acc.iter_mut().enumerate() {
            let w = [a[QUAD * i], a[QUAD * i + 1], a[QUAD * i + 2], a[QUAD * i + 3]];
            let w = _mm512_set1_epi32(i32::from_le_bytes(w.map(|v| v as u8)));
            for (acc_ih, &bh) in acc_i.iter_mut().zip(&bv) {
                *acc_ih = _mm512_dpbusd_epi32(*acc_ih, bh, w);
            }
        }
    }
    for (out_i, acc_i) in out.iter_mut().zip(&acc) {
        for (dst, &v) in out_i.as_chunks_mut::<{ NR / 2 }>().0.iter_mut().zip(acc_i) {
            let (lo, hi) = (_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
            let q = [
                _mm256_extract_epi64::<0>(lo),
                _mm256_extract_epi64::<1>(lo),
                _mm256_extract_epi64::<2>(lo),
                _mm256_extract_epi64::<3>(lo),
                _mm256_extract_epi64::<0>(hi),
                _mm256_extract_epi64::<1>(hi),
                _mm256_extract_epi64::<2>(hi),
                _mm256_extract_epi64::<3>(hi),
            ];
            for (d, v) in dst.as_chunks_mut::<2>().0.iter_mut().zip(q) {
                *d = [v as i32, (v >> 32) as i32];
            }
        }
    }
}

/// Runs [`tile_i8`]: the one call of the VNNI kernel, and the workspace's
/// one `unsafe` block.
#[inline(always)]
fn call_tile_i8(ap: &[i8], starts: &[i32; MR], b: [&[u8]; 2], offs: &[u32], out: &mut Acc<i32>) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
    #[allow(unsafe_code)]
    // SAFETY: calling a `#[target_feature]` function is unsafe because the
    // CPU might lack the features. This build enables AVX-512 F and VNNI for
    // every function (the cfg above), so the binary already requires them.
    unsafe {
        tile_i8(ap, starts, b, offs, out)
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512vnni")))]
    tile_i8(ap, starts, b, offs, out)
}

/// The INT8 micro-kernel on every other target: [`tile_i8_portable`].
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512vnni")))]
#[inline(never)]
fn tile_i8(ap: &[i8], starts: &[i32; MR], b: [&[u8]; 2], offs: &[u32], out: &mut Acc<i32>) {
    tile_i8_portable(ap, starts, b, offs, out)
}

/// The INT8 micro-kernel's portable body: the VNNI tile's layout and sums
/// (hence bits) in plain Rust.
#[inline(always)]
fn tile_i8_portable(
    ap: &[i8],
    starts: &[i32; MR],
    b: [&[u8]; 2],
    offs: &[u32],
    out: &mut Acc<i32>,
) {
    let mut acc = starts.map(|s| [s; NR]);
    for (a, &off) in ap.as_chunks::<{ QUAD * MR }>().0.iter().zip(offs) {
        let off = off as usize;
        for (h, bh) in b.iter().enumerate() {
            let lanes = bh[off..off + 64].as_chunks::<QUAD>().0;
            for (i, acc_i) in acc.iter_mut().enumerate() {
                let w = [0, 1, 2, 3].map(|q| i32::from(a[QUAD * i + q]));
                for (acc_ij, lane) in acc_i[h * NR / 2..][..NR / 2].iter_mut().zip(lanes) {
                    let x = u32::from_le_bytes(*lane);
                    let x = [0, 1, 2, 3].map(|q| ((x >> (8 * q)) & 0xFF) as i32);
                    *acc_ij += x[0] * w[0] + x[1] * w[1] + x[2] * w[2] + x[3] * w[3];
                }
            }
        }
    }
    *out = acc;
}

/// One INT8 tile by the portable body or by the kernel this build runs, for
/// the property test that holds the two to the same bits.
#[doc(hidden)]
pub fn int8_tile(
    ap: &[i8],
    starts: &[i32; MR],
    b: [&[u8]; 2],
    offs: &[u32],
    portable: bool,
) -> Acc<i32> {
    let mut out = [[0; NR]; MR];
    if portable {
        tile_i8_portable(ap, starts, b, offs, &mut out);
    } else {
        call_tile_i8(ap, starts, b, offs, &mut out);
    }
    out
}

/// Columns per strip for a `k`-row packed operand of `elem_bytes`-wide
/// elements: the largest multiple of `NR` within [`STRIP_BYTES`], at least
/// one panel.
pub fn strip_cols(k: usize, elem_bytes: usize) -> usize {
    (STRIP_BYTES / (k.max(1) * elem_bytes) / NR).max(1) * NR
}

/// What a part's strip buffer holds for the micro-kernel to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strip {
    /// Columns of `B` packed into `NR`-wide k-major panels, a strip of
    /// [`strip_cols`] at a time: every GEMM but the FP32 band conv.
    Panels,
    /// Whole output rows of a 3x3 pad-1 stride-1 conv over `c` input
    /// channels of width `w`, read in place from a zero-bordered band of the
    /// input, `[c][r + 2][w + 2]` (`f32`, `w` a multiple of `NR`) or `[c /
    /// 4][r + 2][w + 2][4]` (`i8`, `c` padded to whole quads, `w` a multiple
    /// of `NR / 2`), `r` rows within [`STRIP_BYTES`] (at least one).
    Band { c: usize, w: usize },
}

/// How one GEMM is cut into strips and parallel parts — shared by the driver
/// and by the memory accounting ([`strip_scratch_len`]), so the two cannot
/// drift.
struct Split {
    /// Columns per strip (a multiple of `NR`; of `w` for a band).
    nc: usize,
    row_parts: usize,
    col_parts: usize,
    /// Rows per row part (a multiple of `MR`).
    rows_per: usize,
    /// Columns per column part (a multiple of the caller's quantum).
    cols_per: usize,
    /// Elements of one part's strip buffer.
    strip_len: usize,
}

impl Split {
    /// `quantum` is the granularity of column-part boundaries: `NR` for a
    /// row-major `C`, one input row for the tconv scatter, one output row for
    /// a band.
    fn new(m: usize, k: usize, n: usize, quantum: usize, elem_bytes: usize, strip: Strip) -> Self {
        let nc = match strip {
            Strip::Panels => strip_cols(k, elem_bytes),
            Strip::Band { c, w } => {
                assert!(k == 9 * c && w > 0 && quantum == w, "band of a 3x3 conv, whole rows");
                (STRIP_BYTES / (c * (w + 2) * elem_bytes)).saturating_sub(2).max(1) * w
            }
        };
        let (tiles, quanta) = (m.div_ceil(MR), n.div_ceil(quantum));
        let threads = if m * k * n < FORK_MIN_MACS { 1 } else { rayon::current_num_threads() };
        // Columns when every thread gets at least one strip of its own, the
        // row tiles (each part packing the strips itself) with what is left.
        let col_parts = threads.min(n.div_ceil(nc)).min(quanta).max(1);
        let row_parts = (threads / col_parts).min(tiles).max(1);
        let cols_per = quanta.div_ceil(col_parts) * quantum;
        let (nc, strip_len) = match strip {
            Strip::Panels => (nc, packed_b_len(k, nc.min(cols_per).min(n))),
            // A part's rows in equal bands (each band re-reads two halo rows).
            Strip::Band { c, w } => {
                let rows = cols_per.min(n) / w;
                let r = rows.div_ceil(rows.div_ceil(nc / w).max(1));
                (r * w, c * (r + 2) * (w + 2))
            }
        };
        Self {
            nc,
            row_parts,
            col_parts,
            rows_per: tiles.div_ceil(row_parts) * MR,
            cols_per,
            strip_len,
        }
    }

    /// Elements of the strip buffers of all parts.
    fn scratch_len(&self) -> usize {
        self.row_parts * self.col_parts * self.strip_len
    }
}

/// Elements of per-call `B` scratch the driver allocates for an `m x k x n`
/// GEMM whose packed operand has `elem_bytes`-wide elements: one strip buffer
/// per parallel part. This is the *only* per-frame GEMM work memory (the
/// weight panels are packed once). `quantum` as in the entry point: `NR` for
/// a convolution, the input width for a 2x2 transpose convolution. An FP32
/// conv that reads row bands is [`crate::igemm::sgemm_conv_scratch`].
pub fn strip_scratch_len(m: usize, k: usize, n: usize, quantum: usize, elem_bytes: usize) -> usize {
    Split::new(m, k, n, quantum, elem_bytes, Strip::Panels).scratch_len()
}

/// Elements of the row-band strip buffers of an `[m x 9c x h*w]` band conv
/// over `c` channels (padded to whole groups) of `elem_bytes`-wide elements
/// ([`Strip::Band`]).
pub(crate) fn band_scratch_len(
    m: usize,
    c: usize,
    (h, w): (usize, usize),
    elem_bytes: usize,
) -> usize {
    Split::new(m, 9 * c, h * w, w, elem_bytes, Strip::Band { c, w }).scratch_len()
}

/// Appends the band's k-step offsets to `offs`: step `(group, ky, kx)` at
/// `group * plane + (ky * (w + 2) + kx) * g`, `plane` being one group's `(r
/// + 2) * (w + 2) * g` elements, `g` channels side by side per pixel.
fn band_offsets(groups: usize, g: usize, w: usize, plane: usize, offs: &mut Vec<u32>) {
    let at = |gi: usize, tap: usize| gi * plane + (tap / 3 * (w + 2) + tap % 3) * g;
    for gi in 0..groups {
        offs.extend((0..9).map(|tap| u32::try_from(at(gi, tap)).expect("band offsets fit u32")));
    }
}

/// One micro-tile's position, handed to the store with the owning part's
/// output pieces.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tile {
    /// Global row of the tile's first row (bias index base).
    pub(crate) row: usize,
    /// Global column of the tile's first column.
    pub(crate) col: usize,
    /// Valid rows (`<= MR`; the rest is zero padding).
    pub(crate) rows: usize,
    /// Valid columns (`<= NR`).
    pub(crate) cols: usize,
    /// First row and first column of the part the tile belongs to.
    pub(crate) row0: usize,
    pub(crate) col0: usize,
}

/// How the driver cuts `C`: `m / rows` contiguous chunks of `len` elements,
/// GEMM rows `rows * i ..` storing into chunk `i`; a column part starting on a
/// `quantum` boundary owns `quantum_elems` elements of every chunk per
/// quantum of columns, the last part clipped at `len`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutLayout {
    pub(crate) rows: usize,
    pub(crate) len: usize,
    pub(crate) quantum: usize,
    pub(crate) quantum_elems: usize,
}

impl OutLayout {
    /// A row-major `[m, n]` `C`: chunk = row, column `j` = element `j`.
    pub(crate) fn rows(n: usize) -> Self {
        Self { rows: 1, len: n, quantum: NR, quantum_elems: NR }
    }

    /// A row-major `[m, n]` `C` whose column parts are cut as `strip`
    /// needs: a band's own whole output rows.
    fn of(n: usize, strip: Strip) -> Self {
        match strip {
            Strip::Panels => Self::rows(n),
            Strip::Band { w, .. } => Self { rows: 1, len: n, quantum: w, quantum_elems: w },
        }
    }

    /// The elements of each chunk that columns `cols` own.
    fn span(&self, cols: &Range<usize>) -> Range<usize> {
        let at = |j: usize| (j.div_ceil(self.quantum) * self.quantum_elems).min(self.len);
        at(cols.start)..at(cols.end)
    }
}

/// One parallel part: a block of row tiles times a range of columns, with its
/// strip buffer and its piece of every output chunk its rows touch.
struct Part<'a, B, C> {
    rows: Range<usize>,
    cols: Range<usize>,
    strip: &'a mut [B],
    chunks: Vec<&'a mut [C]>,
}

/// The strip-mined driver behind every GEMM of the crate (see the module
/// docs), on the calling thread's work memory: see [`run_with`].
pub(crate) fn run<A: Panels, C: Send>(
    a: &A,
    n: usize,
    (layout, strip): (OutLayout, Strip),
    c: &mut [C],
    pack: impl Fn(Range<usize>, &mut [B<A>]) + Sync,
    store: impl Fn(&Acc<A::S>, Tile, &mut [&mut [C]]) + Sync,
) {
    with_thread_work(|work| run_with(a, n, (layout, strip), c, work, pack, store));
}

/// The element of the strip buffers `A`'s driver packs `B` into.
pub(crate) type B<A> = <<A as Panels>::E as PackElem>::Strip;

/// The driver itself. `c` is laid out as `layout` says — the rows of a
/// row-major `C`, or the `[2H, 2W]` output planes of a 2x2 transpose conv (4
/// GEMM rows scatter into one plane, a quantum of one input row owns 2 output
/// rows). The parts' strip buffers are slices of `work`'s, grown to
/// [`strip_scratch_len`] when shorter. `pack(cols, buf)` fills a strip
/// buffer with columns `cols` of `B` as `strip` says; `store(acc, tile,
/// chunks)` writes one finished tile into the part's chunk pieces.
pub(crate) fn run_with<A: Panels, C: Send>(
    a: &A,
    n: usize,
    (layout, strip): (OutLayout, Strip),
    c: &mut [C],
    work: &mut Work<A::E>,
    pack: impl Fn(Range<usize>, &mut [B<A>]) + Sync,
    store: impl Fn(&Acc<A::S>, Tile, &mut [&mut [C]]) + Sync,
) {
    let (m, k) = a.dims();
    let rpc = layout.rows;
    assert!(m.is_multiple_of(rpc) && MR.is_multiple_of(rpc), "row tiles cover whole chunks");
    assert_eq!(c.len(), m / rpc * layout.len, "C size");
    if m == 0 || n == 0 {
        return;
    }
    let split = Split::new(m, k, n, layout.quantum, size_of::<B<A>>(), strip);
    let (n_parts, strip_len) = (split.row_parts * split.col_parts, split.strip_len);
    let Work { strips, offsets: offs } = work;
    if strips.len() < n_parts * strip_len {
        strips.resize(n_parts * strip_len, B::<A>::ZERO);
    }
    a.steps(strip, strip_len, offs);
    let offs = &*offs;
    let mut rest = &mut strips[..];
    let mut parts: Vec<Part<'_, B<A>, C>> = (0..n_parts)
        .map(|p| {
            let (rp, cp) = (p / split.col_parts, p % split.col_parts);
            let strip;
            (strip, rest) = std::mem::take(&mut rest).split_at_mut(strip_len);
            Part {
                rows: (rp * split.rows_per).min(m)..((rp + 1) * split.rows_per).min(m),
                cols: (cp * split.cols_per).min(n)..((cp + 1) * split.cols_per).min(n),
                strip,
                chunks: Vec::with_capacity(split.rows_per / rpc),
            }
        })
        .collect();
    for (ci, mut chunk) in c.chunks_mut(layout.len).enumerate() {
        let rp = ci * rpc / split.rows_per;
        for part in &mut parts[rp * split.col_parts..(rp + 1) * split.col_parts] {
            let piece;
            (piece, chunk) = std::mem::take(&mut chunk).split_at_mut(layout.span(&part.cols).len());
            part.chunks.push(piece);
        }
    }
    parts.retain(|p| !p.rows.is_empty() && !p.cols.is_empty());

    #[cfg(feature = "trace-gemm")]
    let spent = [std::sync::atomic::AtomicU64::new(0), std::sync::atomic::AtomicU64::new(0)];
    parts.into_par_iter().for_each(|mut part| {
        let mut acc = Acc::<A::S>::default();
        for s0 in part.cols.clone().step_by(split.nc) {
            let strip_cols = s0..(s0 + split.nc).min(part.cols.end);
            #[cfg(feature = "trace-gemm")]
            let t0 = seneca_trace::now_ns();
            pack(strip_cols.clone(), part.strip);
            #[cfg(feature = "trace-gemm")]
            let t1 = seneca_trace::now_ns();
            for row in part.rows.clone().step_by(MR) {
                let rows = MR.min(part.rows.end - row);
                for col in strip_cols.clone().step_by(NR) {
                    let cols = NR.min(strip_cols.end - col);
                    let j = col - strip_cols.start;
                    let p = Panel { strip: part.strip, j, cols, kind: strip, offs };
                    a.tile(row / MR, p, rows, &mut acc);
                    let tile =
                        Tile { row, col, rows, cols, row0: part.rows.start, col0: part.cols.start };
                    store(&acc, tile, &mut part.chunks);
                }
            }
            #[cfg(feature = "trace-gemm")]
            {
                use std::sync::atomic::Ordering::Relaxed;
                spent[0].fetch_add(t1 - t0, Relaxed);
                spent[1].fetch_add(seneca_trace::now_ns() - t1, Relaxed);
            }
        }
    });
    // One record of each per GEMM call, carrying the parts' summed time: a
    // 256x256 conv has hundreds of strips and the trace ring 4096 slots.
    #[cfg(feature = "trace-gemm")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        let elems = match strip {
            Strip::Panels => packed_b_len(k, n),
            // Every band copies its rows plus two halo rows.
            Strip::Band { c, w } => c * (w + 2) * (n / w + 2 * n.div_ceil(split.nc)),
        };
        let packed = (elems * size_of::<B<A>>()) as u64;
        seneca_trace::record_ns("gemm", "pack", spent[0].load(Relaxed), packed);
        seneca_trace::record_ns("gemm", "kernel", spent[1].load(Relaxed), size_of_val(c) as u64);
    }
}

/// Stores a tile into a row-major `C` (chunk = row): element `(i, j)` becomes
/// `f(acc[i][j], row_arg(i))`, `row_arg` being evaluated once per row (the
/// bias lookup).
#[inline(always)]
pub(crate) fn store_rows<S: Copy, C, R: Copy>(
    acc: &[[S; NR]; MR],
    t: Tile,
    chunks: &mut [&mut [C]],
    row_arg: impl Fn(usize) -> R,
    f: impl Fn(S, R) -> C,
) {
    for (ii, acc_i) in acc.iter().enumerate().take(t.rows) {
        let arg = row_arg(t.row + ii);
        let dst = &mut chunks[t.row - t.row0 + ii][t.col - t.col0..][..t.cols];
        for (d, &v) in dst.iter_mut().zip(acc_i) {
            *d = f(v, arg);
        }
    }
}

/// The DPU requantise-clamp of one accumulator: `clamp(round((v + bias) >>
/// shift))`, optionally ReLU-clamped.
#[inline(always)]
pub(crate) fn requant(v: i32, bias: i32, shift: i32, relu: bool) -> i8 {
    requantize_i32(v + bias, shift).max(if relu { 0 } else { i8::MIN })
}

/// Row `i` of a per-row bias; a short or empty slice contributes zero.
#[inline(always)]
pub(crate) fn bias_at<T: Zero>(bias: &[T], i: usize) -> T {
    bias.get(i).copied().unwrap_or(T::ZERO)
}

/// Runs the f32 driver into a row-major `C` with `epi` fused into the store,
/// on `work`; `pack` fills strip buffers as `strip` says.
pub(crate) fn run_f32(
    pa: &PackedA<f32>,
    (n, strip): (usize, Strip),
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
    work: &mut Work<f32>,
    pack: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    run_with(pa, n, (OutLayout::of(n, strip), strip), c, work, pack, |acc, t, chunks| match epi {
        GemmEpilogue::None => store_rows(acc, t, chunks, |_| (), |v, ()| v),
        GemmEpilogue::Bias(b) => store_rows(acc, t, chunks, |i| bias_at(b, i), |v, b| v + b),
        GemmEpilogue::BiasRelu(b) => {
            store_rows(acc, t, chunks, |i| bias_at(b, i), |v, b| (v + b).max(0.0))
        }
        GemmEpilogue::BiasBn { bias, bn, relu } => {
            let row = |i| (bias.get(i).copied().unwrap_or(-0.0), bn[i]);
            let affine = |v: f32, (b, (scale, shift)): (f32, (f32, f32))| scale * (v + b) + shift;
            if relu {
                store_rows(acc, t, chunks, row, |v, r| affine(v, r).max(0.0))
            } else {
                store_rows(acc, t, chunks, row, affine)
            }
        }
    });
}

/// Runs the INT8 driver into a row-major `i8` `C` with the requantise
/// epilogue fused into the store, on `work`; `pack` fills strip buffers as
/// `strip` says.
pub(crate) fn run_requant(
    pa: &PackedA<i8>,
    (n, strip): (usize, Strip),
    out: &mut [i8],
    (bias, shift, relu): (&[i32], i32, bool),
    work: &mut Work<i8>,
    pack: impl Fn(Range<usize>, &mut [u8]) + Sync,
) {
    run_with(pa, n, (OutLayout::of(n, strip), strip), out, work, pack, |acc, t, chunks| {
        store_rows(acc, t, chunks, |i| bias_at(bias, i), |v, b| requant(v, b, shift, relu))
    });
}

/// `f32` GEMM: `c = a * b` (`a: m x k`, `b: k x n`, row-major).
///
/// Panics if slice lengths are inconsistent with the given dimensions.
pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm_fused(m, k, n, a, b, c, GemmEpilogue::None);
}

/// [`sgemm`] with a fused epilogue applied from the register accumulators —
/// no extra pass over `C`.
pub fn sgemm_fused(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
) {
    assert_eq!(a.len(), m * k, "A size");
    PackedA::with_scratch(m, k, |i, kk| a[i * k + kk], |pa| sgemm_fused_packed(pa, n, b, c, epi));
}

/// [`sgemm_fused`] with a pre-packed `A` operand: only the `B` strips are
/// packed per call. Bit-identical to the unpacked call — the `A` panel bytes
/// are the same.
fn sgemm_fused_packed(
    pa: &PackedA<f32>,
    n: usize,
    b: &[f32],
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
) {
    assert_eq!(b.len(), pa.k * n, "B size");
    let pack = |cols, buf: &mut [f32]| pack_b(pa.k, cols, |kk, j| b[kk * n + j], buf);
    with_thread_work(|work| run_f32(pa, (n, Strip::Panels), c, epi, work, pack));
}

/// [`igemm_fused`] with a pre-packed `A` operand: only the `B` strips are
/// packed per call. Bit-identical to the unpacked call — the `A` panel bytes
/// are the same.
pub fn igemm_fused_packed(
    pa: &PackedA<i8>,
    n: usize,
    b: &[i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
) {
    assert_eq!(b.len(), pa.k * n, "B size");
    let pack = |cols, buf: &mut [u8]| pack_quads(pa, cols, buf, matrix_row(b, n));
    with_thread_work(|work| {
        run_requant(pa, (n, Strip::Panels), out, (bias, shift, relu), work, pack)
    });
}

/// The row source of [`pack_quads`] for a row-major `[k, n]` `B`.
pub(crate) fn matrix_row(b: &[i8], n: usize) -> impl Fn(usize, usize, &mut [i8]) + Sync + '_ {
    move |kk, j0, dst| dst.copy_from_slice(&b[kk * n + j0..][..dst.len()])
}

/// INT8 GEMM with `i32` accumulation: `c = a * b`.
///
/// Mirrors the DPU's MAC array arithmetic: 8-bit operands, 32-bit
/// accumulators, no saturation until the requantisation step. Bit-identical
/// to the naive triple loop for any tiling, because i32 addition is
/// associative and the zero padding contributes exact zeros.
pub fn igemm(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    PackedA::with_scratch(
        m,
        k,
        |i, kk| a[i * k + kk],
        |pa| {
            let pack = |cols, buf: &mut [u8]| pack_quads(pa, cols, buf, matrix_row(b, n));
            run(pa, n, (OutLayout::rows(n), Strip::Panels), c, pack, |acc, t, chunks| {
                store_rows(acc, t, chunks, |_| (), |v, ()| v)
            });
        },
    );
}

/// [`igemm`] with the DPU requantise-clamp epilogue fused into the store:
/// `out[i][j] = clamp(round((acc[i][j] + bias[i]) >> shift))`, optionally
/// ReLU-clamped, written directly as `i8`. The per-row bias is at
/// accumulator scale; a short or empty slice contributes `0`.
///
/// Bit-identical to `igemm` followed by `requantize_i32` over the full
/// accumulator buffer — the i32 sum is exact, so fusing the epilogue cannot
/// change a single output byte.
#[allow(clippy::too_many_arguments)]
pub fn igemm_fused(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
) {
    assert_eq!(a.len(), m * k, "A size");
    PackedA::with_scratch(
        m,
        k,
        |i, kk| a[i * k + kk],
        |pa| igemm_fused_packed(pa, n, b, bias, shift, relu, out),
    );
}

/// Reference (naive, sequential) f32 GEMM used by tests and benchmarks: the
/// FMA contract of the packed kernel (`acc = a.mul_add(b, acc)` in ascending
/// `k` from `0.0`), so [`sgemm`] matches it bit for bit.
pub fn sgemm_reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
            }
            c[i * n + j] = acc;
        }
    }
}

/// Reference (naive, sequential) INT8 GEMM; [`igemm`] must match it bit for
/// bit.
pub fn igemm_reference(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for kk in 0..k {
                acc += a[i * k + kk] as i32 * b[kk * n + j] as i32;
            }
            c[i * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Requantises a whole accumulator buffer, element by element.
    fn requantize_slice(acc: &[i32], shift: i32, out: &mut [i8]) {
        assert_eq!(acc.len(), out.len());
        for (o, &a) in out.iter_mut().zip(acc) {
            *o = requantize_i32(a, shift);
        }
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn rand_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-128i32..128) as i8).collect()
    }

    #[test]
    fn sgemm_matches_reference() {
        // Mix of tile-aligned and deliberately misaligned sizes.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (65, 300, 33), (130, 64, 130), (8, 16, 16)] {
            let a = rand_vec(m * k, 1);
            let b = rand_vec(k * n, 2);
            let mut c = vec![0.0; m * n];
            let mut c_ref = vec![0.0; m * n];
            sgemm(m, k, n, &a, &b, &mut c);
            sgemm_reference(m, k, n, &a, &b, &mut c_ref);
            assert_eq!(c, c_ref, "{m}x{k}x{n}");
        }
    }

    /// A case where one fused multiply-add and multiply-then-add round
    /// differently: `(1 + 2^-12)^2 = 1 + 2^-11 + 2^-24` rounds (tie to even)
    /// to `1 + 2^-11` as a product, so `-1 + p` loses the `2^-24` that the
    /// FMA keeps. `sgemm` must give the FMA value.
    #[test]
    fn fma_rounding_is_the_contract() {
        let e = 1.0 + (-12f32).exp2();
        let (a, b) = ([-1.0f32, e], [1.0f32, e]);
        let fma = e.mul_add(e, -1.0);
        let two_roundings = -1.0 + e * e;
        assert_eq!(fma, (-11f32).exp2() + (-24f32).exp2());
        assert_ne!(fma.to_bits(), two_roundings.to_bits());
        let mut c = [0.0f32];
        sgemm(1, 2, 1, &a, &b, &mut c);
        assert_eq!(c[0].to_bits(), fma.to_bits());
        sgemm_reference(1, 2, 1, &a, &b, &mut c);
        assert_eq!(c[0].to_bits(), fma.to_bits());
    }

    #[test]
    fn bn_epilogue_matches_the_three_passes_bit_for_bit() {
        let (m, k, n) = (13, 37, 22);
        let a = rand_vec(m * k, 12);
        let b = rand_vec(k * n, 13);
        let bias = rand_vec(m, 14);
        let bn: Vec<(f32, f32)> =
            rand_vec(m, 15).iter().zip(rand_vec(m, 16)).map(|(&s, t)| (s * 1.7, t)).collect();
        for bias in [&bias[..], &[]] {
            let mut plain = vec![0.0; m * n];
            let epi = if bias.is_empty() { GemmEpilogue::None } else { GemmEpilogue::Bias(bias) };
            sgemm_fused(m, k, n, &a, &b, &mut plain, epi);
            for relu in [false, true] {
                let mut fused = vec![0.0; m * n];
                sgemm_fused(
                    m,
                    k,
                    n,
                    &a,
                    &b,
                    &mut fused,
                    GemmEpilogue::BiasBn { bias, bn: &bn, relu },
                );
                for (idx, (&x, &got)) in plain.iter().zip(&fused).enumerate() {
                    let (scale, shift) = bn[idx / n];
                    let y = scale * x + shift;
                    let want = if relu { y.max(0.0) } else { y };
                    assert_eq!(got.to_bits(), want.to_bits(), "idx {idx} relu {relu}");
                }
            }
        }
    }

    #[test]
    fn fused_bias_and_relu_match_separate_passes() {
        let (m, k, n) = (13, 37, 22); // off-tile on purpose
        let a = rand_vec(m * k, 7);
        let b = rand_vec(k * n, 8);
        let bias = rand_vec(m, 9);
        let mut plain = vec![0.0; m * n];
        sgemm(m, k, n, &a, &b, &mut plain);

        let mut fused_bias = vec![0.0; m * n];
        sgemm_fused(m, k, n, &a, &b, &mut fused_bias, GemmEpilogue::Bias(&bias));
        let mut fused_relu = vec![0.0; m * n];
        sgemm_fused(m, k, n, &a, &b, &mut fused_relu, GemmEpilogue::BiasRelu(&bias));

        for i in 0..m {
            for j in 0..n {
                let v = plain[i * n + j] + bias[i];
                assert_eq!(fused_bias[i * n + j], v, "bias epilogue at ({i},{j})");
                assert_eq!(fused_relu[i * n + j], v.max(0.0), "relu epilogue at ({i},{j})");
            }
        }
    }

    #[test]
    fn empty_bias_is_identity() {
        let (m, k, n) = (5, 9, 11);
        let a = rand_vec(m * k, 10);
        let b = rand_vec(k * n, 11);
        let mut plain = vec![0.0; m * n];
        let mut fused = vec![0.0; m * n];
        sgemm(m, k, n, &a, &b, &mut plain);
        sgemm_fused(m, k, n, &a, &b, &mut fused, GemmEpilogue::Bias(&[]));
        assert_eq!(plain, fused);
    }

    #[test]
    fn igemm_matches_naive_bit_exactly() {
        for &(m, k, n) in &[(1, 1, 1), (7, 13, 5), (64, 576, 100), (33, 100, 47)] {
            let a = rand_i8(m * k, 20);
            let b = rand_i8(k * n, 21);
            let mut c = vec![0i32; m * n];
            let mut c_ref = vec![0i32; m * n];
            igemm(m, k, n, &a, &b, &mut c);
            igemm_reference(m, k, n, &a, &b, &mut c_ref);
            assert_eq!(c, c_ref, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn igemm_fused_matches_unfused_requant_bit_exactly() {
        let (m, k, n) = (11, 90, 23);
        let a = rand_i8(m * k, 22);
        let b = rand_i8(k * n, 23);
        let bias: Vec<i32> = (0..m as i32).map(|i| i * 37 - 100).collect();
        for &(shift, relu) in &[(4, false), (4, true), (0, false), (-1, true), (9, false)] {
            let mut acc = vec![0i32; m * n];
            igemm(m, k, n, &a, &b, &mut acc);
            for (i, v) in acc.iter_mut().enumerate() {
                *v += bias[i / n];
            }
            let mut expect = vec![0i8; m * n];
            requantize_slice(&acc, shift, &mut expect);
            if relu {
                for v in &mut expect {
                    *v = (*v).max(0);
                }
            }
            let mut fused = vec![0i8; m * n];
            igemm_fused(m, k, n, &a, &b, &bias, shift, relu, &mut fused);
            assert_eq!(fused, expect, "shift {shift} relu {relu}");
        }
    }

    #[test]
    fn packed_a_f32_matches_unpacked_bit_exactly() {
        for &(m, k, n) in &[(3, 5, 7), (65, 300, 33), (8, 16, 16)] {
            let a = rand_vec(m * k, 30);
            let b = rand_vec(k * n, 31);
            let bias = rand_vec(m, 32);
            let pa = PackedA::pack(m, k, &a);
            assert_eq!((pa.m(), pa.k()), (m, k));
            for epi in
                [GemmEpilogue::None, GemmEpilogue::Bias(&bias), GemmEpilogue::BiasRelu(&bias)]
            {
                let mut c = vec![0.0; m * n];
                let mut c_packed = vec![0.0; m * n];
                sgemm_fused(m, k, n, &a, &b, &mut c, epi);
                sgemm_fused_packed(&pa, n, &b, &mut c_packed, epi);
                assert_eq!(c, c_packed, "{m}x{k}x{n} {epi:?}");
            }
        }
    }

    #[test]
    fn packed_a_i8_matches_unpacked_bit_exactly() {
        for &(m, k, n) in &[(11, 90, 23), (64, 576, 100), (1, 1, 1)] {
            let a = rand_i8(m * k, 33);
            let b = rand_i8(k * n, 34);
            let bias: Vec<i32> = (0..m as i32).map(|i| i * 13 - 60).collect();
            let pa = PackedA::pack(m, k, &a);
            for &(shift, relu) in &[(4, false), (2, true), (0, false)] {
                let mut c = vec![0i8; m * n];
                let mut c_packed = vec![0i8; m * n];
                igemm_fused(m, k, n, &a, &b, &bias, shift, relu, &mut c);
                igemm_fused_packed(&pa, n, &b, &bias, shift, relu, &mut c_packed);
                assert_eq!(c, c_packed, "{m}x{k}x{n} shift {shift} relu {relu}");
            }
        }
    }

    #[test]
    fn igemm_exact_small_case() {
        // 2x3 * 3x2: rows (1, -2, 3) and (0, 5, -6) against columns
        // (7, 9, 11) and (8, 10, 12).
        let a: Vec<i8> = vec![1, -2, 3, 0, 5, -6];
        let b: Vec<i8> = vec![7, 8, 9, 10, 11, 12];
        let mut c = vec![0i32; 4];
        igemm(2, 3, 2, &a, &b, &mut c);
        assert_eq!(c, vec![7 - 18 + 33, 8 - 20 + 36, 45 - 66, 50 - 72]);
    }

    #[test]
    fn igemm_no_overflow_at_int8_extremes() {
        // k = 4096 at |a|=|b|=127 stays far below i32::MAX.
        let k = 4096;
        let a = vec![127i8; k];
        let b = vec![-128i8; k];
        let mut c = vec![0i32; 1];
        igemm(1, k, 1, &a, &b, &mut c);
        assert_eq!(c[0], 127i32 * -128 * k as i32);
    }

    #[test]
    fn empty_dimensions_are_ok() {
        let mut c: Vec<f32> = vec![];
        sgemm(0, 3, 4, &[], &[0.0; 12], &mut c);
        let mut c2 = vec![1.0f32; 4];
        sgemm(2, 0, 2, &[], &[], &mut c2);
        assert_eq!(c2, vec![0.0; 4]);
    }

    #[test]
    fn k_zero_with_epilogue_writes_bias() {
        let bias = vec![1.5f32, -2.0];
        let mut c = vec![9.0f32; 6];
        sgemm_fused(2, 0, 3, &[], &[], &mut c, GemmEpilogue::BiasRelu(&bias));
        assert_eq!(c, vec![1.5, 1.5, 1.5, 0.0, 0.0, 0.0]);
    }
}
