//! Packed, register-tiled matrix multiplication: one strip-mined
//! pack+compute driver, three micro-kernels (`f32`, `i8` and the `i16`
//! Winograd tile), fused epilogues.
//!
//! Every GEMM of the crate — the matrix entry points here ([`sgemm`] …
//! [`igemm_fused`]), the implicit-GEMM convolutions of [`crate::igemm`], in
//! `f32` and `i8` (W8 and W4 weights alike: a W4 weight is an `i8` in
//! `[-8, 7]`), and the Winograd convolution of
//! [`crate::winograd`] (sixteen position products per tile) — computes
//! `C = A * B` with `A: [m x k]`, `B: [k x n]` through the same driver:
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
//!    **Bands.** An FP32 3x3 pad-1 stride-1 conv whose width `W` is a
//!    multiple of `NR` packs no strip: the 9x im2col copy would be read by
//!    only `c_out / MR` row tiles. A strip is `r` whole output rows instead,
//!    and its buffer a zero-bordered copy of the `r + 2` input rows they
//!    read, `r` chosen within [`STRIP_BYTES`] (`Strip::Band`). The tile
//!    reads each k-step's `NR` values in place:
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
//!    bits. Parts and strips are cut on whole output rows, as the tconv and
//!    Winograd parts are. Every other GEMM (narrower maps, the tconv,
//!    stride 2, the weight gradient, every integer GEMM) packs strips.
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
//!    panel (`[ip][kk][MR]`, packed once per weight tensor — [`PackedA`])
//!    and one `B` panel over the whole `k` extent — a packed
//!    panel, or for `f32` the k-step offsets of a band (`Steps`);
//!    constant trip counts let LLVM keep the tile in vector registers.
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
//! # The INT8 micro-kernel: unsigned weights, column-sum correction
//!
//! Widening both operands to `i32` and multiplying makes LLVM emit
//! `vpmulld` (2 µops per 16 MACs — the kernel is multiplier-bound at ≈ 8
//! MAC/cycle). `tile_i8` instead reads the weight as *unsigned*,
//! `a' = (a as u8) ^ 0x80 = a + 128` — a value in `[0, 255]` whose upper 24
//! bits are provably zero — and uses
//!
//! ```text
//!   Σ_k a·b  =  Σ_k (a + 128)·b  −  128 · Σ_k b
//! ```
//!
//! keeping `Σ_k b` per tile column next to the accumulators and subtracting
//! `128 · colsum[j]` once, when the tile is finished. With one factor known
//! to fit an unsigned 16-bit lane LLVM lowers the same 8x32 loop nest to 16
//! `vpdpwssd` per k-step (`vpmaddwd + vpaddd` without VNNI), about twice the
//! MAC rate. The offset sits on the *weight* side so the packed activations —
//! and the zero fill of im2col padding — are untouched; zero-padded `A` rows
//! yield `128·colsum − 128·colsum = 0` and are clipped anyway. No
//! intermediate overflows: `|Σ (a+128)·b| <= k·255·128 < 2^31` for
//! `k <= 65 536` ([`PackElem::MAX_K`], asserted where panels are packed; the
//! largest Table II `k` is 9216).
//!
//! The Winograd kernel `tile_i16` is the same again on `i16` operands: the
//! activations `V` (`|V| <= 512`) are native `i16`, the transformed weights
//! `U` (`|U| <= 1152`) are stored as `U + 2048` in a `u16` and read as
//! `(a & 0x0FFF)`. The mask changes no value; it proves the upper 20 bits
//! zero, which a bare `u16` (bit 15 open) does not, and that proof is what
//! makes LLVM pick `vpdpwssd`. The offset is a power of two so that the
//! correction `2048 · colsum` is a shift (an offset of 1152 brings two
//! `vpmulld` into the correction). Bound: `k · 3200 · 512 < 2^31`, `k <=
//! 1310` ([`crate::winograd::WINO_MAX_C_IN`]).
//!
//! Three codegen hazards, each re-tested with rustc 1.95 on AVX-512:
//!
//! * *Inlining the MAC loop into the driver closure* still makes LLVM
//!   vectorise over `k`, assembling operands byte by byte (`vpinsrb`) with
//!   the accumulators in stack slots — so `tile_i8` / `tile_i16` are
//!   isolated `#[inline(never)]` functions.
//! * *Factoring the store out* used to trigger the same failure (hence five
//!   monolithic `i8_block_*` bodies, one per store). With the offset form it
//!   no longer does: a tile function that hands the corrected accumulators
//!   back through `&mut [[i32; NR]; MR]` keeps all 16 `vpdpwssd`, and the
//!   stores are ordinary closures shared with `f32`. The *signed* form of
//!   that same function still falls into the `vpinsrb` trap (8–10 GMAC/s).
//!   Two details of the tile function matter: the weight is widened per row
//!   *inside* the row loop (widening a k-step into an `[i32; MR]` array
//!   first makes LLVM vectorise across rows with gathers, 2 GMAC/s), and
//!   the correction loop runs over the tile's *dynamic* row count (a
//!   constant `MR` trip count is unrolled and transposed into 32 gathers and
//!   32 scatters per tile, which halves small-`k` layers).
//! * *What makes LLVM pick `vpdpwssd`:* the `^ 0x80` must be in the kernel,
//!   on a `u8`, immediately before the widening — pre-offsetting the panel
//!   bytes or widening first loses the "upper bits are zero" fact and brings
//!   `vpmulld` back. An exact-in-`f32` FMA kernel (x0.7–1.3) and a
//!   k-pair-interleaved `i16` layout (`vpmaddwd` only at 128 bits) were tried
//!   and are slower. `scripts/check_kernel_asm.sh` fails CI if the tile
//!   functions regress to `vpmulld`.
//!
//! There is deliberately **no** `a[i][k] == 0` sparse-skip branch in the
//! inner loops: a data-dependent branch defeats autovectorization for every
//! input and only pays off when a whole SIMD lane-group of multiplies would
//! be saved — essentially never for dense activations.

use crate::quantized::requantize_i32;
use crate::winograd::WINO_U_OFFSET;
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

/// Cache budget of one packed `B` strip (see [`strip_cols`]) or one FP32 row
/// band. Sized for the L2 of the smallest cores this runs on; every row tile
/// re-reads the strip from there. The band conv measured the same from 128
/// to 512 KiB on every 1M/16M shape at 256² down to 32², and well above the
/// packed strips at each.
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
/// parallel parts, and the k-step offsets a band conv reads its band
/// through (`Steps::Band`). Both grow to the largest call's need and are
/// reused call to call. An executor worker owns one per element type, built
/// with its arena on the calling thread and sized once for its plan
/// ([`Work::new`]), and hands it to the entry points that take one; every
/// other entry point uses the calling thread's.
#[derive(Debug, Clone)]
pub struct Work<T> {
    strips: Vec<T>,
    offsets: Vec<u32>,
}

impl<T> Default for Work<T> {
    fn default() -> Self {
        Self { strips: Vec::new(), offsets: Vec::new() }
    }
}

impl<T: Zero> Work<T> {
    /// Work memory of `strips` zeroed strip elements and room for `offsets`
    /// band offsets ([`crate::igemm::sgemm_conv_scratch`] and
    /// [`strip_scratch_len`] give the sizes of a call).
    pub fn new(strips: usize, offsets: usize) -> Self {
        Self { strips: vec![T::ZERO; strips], offsets: Vec::with_capacity(offsets) }
    }

    /// Strip elements held.
    pub fn strip_len(&self) -> usize {
        self.strips.len()
    }
}

/// This thread's reusable pack buffers for one element type: the `A` panels
/// of the entry points that pack weights per call, and the work memory of
/// those that take no [`Work`].
#[doc(hidden)]
#[derive(Debug)]
pub struct PackScratch<T> {
    a_panels: Vec<T>,
    work: Work<T>,
}

impl<T> PackScratch<T> {
    const EMPTY: Self =
        Self { a_panels: Vec::new(), work: Work { strips: Vec::new(), offsets: Vec::new() } };
}

thread_local! {
    static PACK_F32: RefCell<PackScratch<f32>> = const { RefCell::new(PackScratch::EMPTY) };
    static PACK_I8: RefCell<PackScratch<i8>> = const { RefCell::new(PackScratch::EMPTY) };
}

/// Element type of a packed GEMM operand (`f32`, `i8`).
pub trait PackElem: Zero + Send + Sync + 'static {
    /// Largest shared (`k`) extent the micro-kernel of this type accumulates
    /// without overflow (see the module docs for the INT8 bound).
    const MAX_K: usize;

    #[doc(hidden)]
    fn scratch() -> &'static LocalKey<RefCell<PackScratch<Self>>>;
}

impl PackElem for f32 {
    const MAX_K: usize = usize::MAX;

    fn scratch() -> &'static LocalKey<RefCell<PackScratch<f32>>> {
        &PACK_F32
    }
}

impl PackElem for i8 {
    const MAX_K: usize = 1 << 16;

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

/// A pre-packed `A` operand: the `MR`-tall k-major row panels the micro-kernel
/// consumes, built once and reused across calls.
///
/// Inference weights are immutable, so re-packing them on every frame (as
/// [`sgemm_fused`] / [`igemm_fused`] must, since they only see flat slices) is
/// pure per-frame overhead. The lowering in `seneca-ir` builds one
/// `PackedA` per weight tensor and routes frames through the
/// `*_packed` entry points, whose per-call pack work covers only the
/// activation (`B`) strips.
///
/// The panel bytes are identical to what the unpacked entry points produce
/// internally, so packed and unpacked calls are bit-identical.
#[derive(Debug, Clone)]
pub struct PackedA<T> {
    m: usize,
    k: usize,
    pub(crate) panels: Vec<T>,
}

impl<T: PackElem> PackedA<T> {
    /// Packs a row-major `m x k` matrix. Panics if `k` exceeds
    /// [`PackElem::MAX_K`].
    pub fn pack(m: usize, k: usize, a: &[T]) -> Self {
        assert_eq!(a.len(), m * k, "A size");
        Self::pack_with(m, k, |i, kk| a[i * k + kk], Vec::new())
    }

    /// Packs `A` (via `get(i, kk)`) into `panels`, reusing its allocation.
    fn pack_with(m: usize, k: usize, get: impl Fn(usize, usize) -> T, mut panels: Vec<T>) -> Self {
        assert!(k <= T::MAX_K, "k = {k} exceeds the accumulator-safe extent {}", T::MAX_K);
        panels.resize(packed_a_len(m, k), T::ZERO);
        pack_a(m, k, get, &mut panels);
        Self { m, k, panels }
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
        let pa = Self::pack_with(m, k, get, panels);
        let r = f(&pa);
        T::scratch().with(|s| s.borrow_mut().a_panels = pa.panels);
        r
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

    /// Bytes held by the panel buffer (for memory accounting).
    pub fn panel_len(&self) -> usize {
        self.panels.len()
    }
}

/// Kept for the benchmark's `tensor` probe until ROADMAP 3(a): a W4 layer's
/// weight panels are the INT8 panels, holding its `[-8, 7]` weights.
pub type PackedA4 = PackedA<i8>;

/// Elements of `A`-panel storage an `m x k` operand packs into (the `MR`-tall
/// row panels, tail panel zero padded).
fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Elements of `B`-panel storage `n` columns of a `k`-row operand pack into
/// (the `NR`-wide column panels, tail panel zero padded).
pub fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Packs `A` (via `get(i, kk)`) into `MR`-tall row panels, k-major, zero
/// padding the tail panel's missing rows.
fn pack_a<T: Zero>(m: usize, k: usize, get: impl Fn(usize, usize) -> T, buf: &mut [T]) {
    for ip in 0..m.div_ceil(MR) {
        let i0 = ip * MR;
        let rows = MR.min(m - i0);
        let panel = &mut buf[ip * MR * k..(ip + 1) * MR * k];
        for (kk, dst) in panel.chunks_exact_mut(MR).enumerate() {
            for (ii, d) in dst.iter_mut().enumerate() {
                *d = if ii < rows { get(i0 + ii, kk) } else { T::ZERO };
            }
        }
    }
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

/// One `MR x NR` accumulator tile.
pub(crate) type Acc<S> = [[S; NR]; MR];

/// The `A` side of a GEMM as the driver sees it: packed row panels plus the
/// micro-kernel that multiplies one of them with a packed `B` panel.
pub(crate) trait Panels: Sync {
    /// Element type of the packed `B` panels.
    type B: Zero + Send + Sync;
    /// What one [`Panels::tile`] call fills and the store reads: one
    /// [`Acc`] tile, or one per Winograd position.
    type Out: Default;

    /// `(m, depth)`: rows, and `B` rows per column — the GEMM's `k`, or
    /// `16 * C_in` for the sixteen Winograd position products.
    fn dims(&self) -> (usize, usize);

    /// Overwrites the first `rows` rows of `out` (at least) with row panel
    /// `ip` times the `B` panel `bp` whose k-steps sit where `steps` says: a
    /// packed panel (`depth * NR` elements), or for the f32 impl also a row
    /// band from the panel's first element on.
    fn tile(&self, ip: usize, bp: &[Self::B], steps: Steps<'_>, rows: usize, out: &mut Self::Out);
}

/// Where the k-steps of one `B` panel sit, counted from the panel's first
/// element: step `kk` is the `NR` elements at `kk * NR` of a packed panel, or
/// at `offs[kk]` of a row band ([`Strip::Band`], f32 only).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Steps<'a> {
    /// A packed k-major panel (`[kk][NR]`).
    Packed,
    /// A zero-bordered row band: `offs[(c, ky, kx)] = c·(r+2)(W+2) +
    /// ky·(W+2) + kx`.
    Band(&'a [u32]),
}

impl Panels for PackedA<f32> {
    type B = f32;
    type Out = Acc<f32>;

    fn dims(&self) -> (usize, usize) {
        (self.m, self.k)
    }

    fn tile(&self, ip: usize, bp: &[f32], steps: Steps<'_>, _rows: usize, out: &mut Acc<f32>) {
        let ap = &self.panels[ip * MR * self.k..][..MR * self.k];
        match steps {
            Steps::Packed => tile_f32(ap, bp.as_chunks::<NR>().0.iter(), out),
            Steps::Band(offs) => {
                let step = |&off: &u32| -> &[f32; NR] {
                    bp[off as usize..][..NR].try_into().expect("NR elements")
                };
                tile_f32(ap, offs.iter().map(step), out)
            }
        }
    }
}

impl Panels for PackedA<i8> {
    type B = i8;
    type Out = Acc<i32>;

    fn dims(&self) -> (usize, usize) {
        (self.m, self.k)
    }

    fn tile(&self, ip: usize, bp: &[i8], steps: Steps<'_>, rows: usize, out: &mut Acc<i32>) {
        debug_assert!(matches!(steps, Steps::Packed), "integer tiles read packed panels");
        tile_i8(&self.panels[ip * MR * self.k..][..MR * self.k], bp, rows, out);
    }
}

/// The f32 micro-kernel: an `MR x NR` accumulator tile over the full `k`
/// extent of one A row panel and the `k` steps of `NR` `B` values that
/// `steps` walks (a packed panel's consecutive rows, or a row band's
/// offsets, [`Steps`]), one fused multiply-add per element and k-step (`acc
/// = a.mul_add(b, acc)`, one rounding), written to `out`. Branch-free with
/// constant trip counts so LLVM keeps the tile in vector registers; isolated
/// `#[inline(never)]` like the integer tiles (see the module docs for what
/// it compiles to). One source for both walks: the compiler instantiates it
/// once per [`Steps`] variant.
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

/// An integer micro-kernel in the offset form of the module docs: `$widen`
/// reads row `i` of one k-step of the `A` panel (`MR` elements) as the
/// non-negative weight `a + $offset`; the column sums of `B` (`$b`
/// activations) take the offset back out when the first `rows` rows of the
/// finished tile are written to `out` (rows beyond are padding and left
/// alone — and the dynamic trip count keeps LLVM from transposing that loop
/// into gathers). Isolated `#[inline(never)]` functions — see the codegen
/// hazards in the module docs.
macro_rules! int_tile_fn {
    ($(#[$doc:meta])* $name:ident, $a:ty, $b:ty, $offset:expr, $widen:expr) => {
        $(#[$doc])*
        #[inline(never)]
        pub(crate) fn $name(ap: &[$a], bp: &[$b], rows: usize, out: &mut Acc<i32>) {
            let mut acc = [[0i32; NR]; MR];
            let mut colsum = [0i32; NR];
            for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
                let mut bw = [0i32; NR];
                for (w, &v) in bw.iter_mut().zip(b) {
                    *w = v as i32;
                }
                for (s, &bv) in colsum.iter_mut().zip(&bw) {
                    *s += bv;
                }
                for (i, acc_i) in acc.iter_mut().enumerate() {
                    let ai = ($widen)(a, i);
                    for (acc_ij, &bv) in acc_i.iter_mut().zip(&bw) {
                        *acc_ij += ai * bv;
                    }
                }
            }
            for (out_i, acc_i) in out.iter_mut().zip(&acc).take(rows) {
                for ((o, &v), &s) in out_i.iter_mut().zip(acc_i).zip(&colsum) {
                    *o = v - $offset * s;
                }
            }
        }
    };
}

int_tile_fn!(
    /// The INT8 micro-kernel: weights read as `(a as u8) ^ 0x80 = a + 128`.
    tile_i8,
    i8,
    i8,
    128,
    |a: &[i8], i: usize| ((a[i] as u8) ^ 0x80) as i32
);

int_tile_fn!(
    /// The Winograd micro-kernel: one position product of `i16` activations
    /// against weights stored pre-offset, `U + 2048` as `u16` in `[896,
    /// 3200]`. The `& 0x0FFF` is an identity on those values, and it is what
    /// proves the upper 20 bits zero to LLVM (a bare `u16` leaves bit 15
    /// open), so the loop compiles to `vpdpwssd` like [`tile_i8`]. The offset
    /// is a power of two so that the correction is a shift, not a `vpmulld`.
    tile_i16,
    u16,
    i16,
    WINO_U_OFFSET,
    |a: &[u16], i: usize| (a[i] & 0x0FFF) as i32
);

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
    /// channels of width `w` (a multiple of `NR`), read in place from a
    /// zero-bordered `[c][r + 2][w + 2]` band of the input, `r` rows within
    /// [`STRIP_BYTES`] (at least one).
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

/// Elements of the row-band strip buffers of an FP32 `[m x 9c x h*w]` band
/// conv ([`Strip::Band`]).
pub(crate) fn band_scratch_len(m: usize, c: usize, h: usize, w: usize) -> usize {
    Split::new(m, 9 * c, h * w, w, size_of::<f32>(), Strip::Band { c, w }).scratch_len()
}

/// Writes the band's k-step offsets into `offs`: `(c, ky, kx)` at `c *
/// plane + ky * (w + 2) + kx`, `plane` being one channel's `(r + 2) * (w +
/// 2)` elements.
fn band_offsets(c: usize, w: usize, plane: usize, offs: &mut Vec<u32>) {
    let at = |ci: usize, tap: usize| ci * plane + tap / 3 * (w + 2) + tap % 3;
    offs.clear();
    for ci in 0..c {
        offs.extend((0..9).map(|tap| u32::try_from(at(ci, tap)).expect("band offsets fit u32")));
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
    pack: impl Fn(Range<usize>, &mut [A::B]) + Sync,
    store: impl Fn(&A::Out, Tile, &mut [&mut [C]]) + Sync,
) where
    A::B: PackElem,
{
    with_thread_work(|work| run_with(a, n, (layout, strip), c, work, pack, store));
}

/// The driver itself. `c` is laid out as `layout` says — the rows of a
/// row-major `C`, the `[2H, 2W]` output planes of a 2x2 transpose conv (4
/// GEMM rows scatter into one plane, a quantum of one input row owns 2 output
/// rows), or the `[H, W]` planes of a Winograd conv (a quantum of one tile
/// row owns 2 output rows). The parts' strip buffers are slices of `work`'s,
/// grown to [`strip_scratch_len`] when shorter. `pack(cols, buf)` fills a
/// strip buffer with columns `cols` of `B` as `strip` says; `store(out,
/// tile, chunks)` writes one finished tile into the part's chunk pieces.
pub(crate) fn run_with<A: Panels, C: Send>(
    a: &A,
    n: usize,
    (layout, strip): (OutLayout, Strip),
    c: &mut [C],
    work: &mut Work<A::B>,
    pack: impl Fn(Range<usize>, &mut [A::B]) + Sync,
    store: impl Fn(&A::Out, Tile, &mut [&mut [C]]) + Sync,
) {
    let (m, k) = a.dims();
    let rpc = layout.rows;
    assert!(m.is_multiple_of(rpc) && MR.is_multiple_of(rpc), "row tiles cover whole chunks");
    assert_eq!(c.len(), m / rpc * layout.len, "C size");
    if m == 0 || n == 0 {
        return;
    }
    let split = Split::new(m, k, n, layout.quantum, size_of::<A::B>(), strip);
    let (n_parts, strip_len) = (split.row_parts * split.col_parts, split.strip_len);
    let Work { strips, offsets: offs } = work;
    if strips.len() < n_parts * strip_len {
        strips.resize(n_parts * strip_len, A::B::ZERO);
    }
    // Where a panel starts in its strip and where its k-steps sit.
    if let Strip::Band { c, w } = strip {
        band_offsets(c, w, strip_len / c, offs);
    }
    let offs = &*offs;
    let panel = |j: usize| match strip {
        Strip::Panels => (j * k..(j + NR) * k, Steps::Packed),
        Strip::Band { w, .. } => (j / w * (w + 2) + j % w..strip_len, Steps::Band(offs)),
    };
    let mut rest = &mut strips[..];
    let mut parts: Vec<Part<'_, A::B, C>> = (0..n_parts)
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
        let mut acc = A::Out::default();
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
                    let (at, steps) = panel(col - strip_cols.start);
                    a.tile(row / MR, &part.strip[at], steps, rows, &mut acc);
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
        let packed = (elems * size_of::<A::B>()) as u64;
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
    let layout = match strip {
        Strip::Panels => OutLayout::rows(n),
        // Column parts own whole output rows.
        Strip::Band { w, .. } => OutLayout { rows: 1, len: n, quantum: w, quantum_elems: w },
    };
    run_with(pa, n, (layout, strip), c, work, pack, |acc, t, chunks| match epi {
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
/// epilogue fused into the store, on `work`.
pub(crate) fn run_requant(
    pa: &PackedA<i8>,
    n: usize,
    out: &mut [i8],
    (bias, shift, relu): (&[i32], i32, bool),
    work: &mut Work<i8>,
    pack: impl Fn(Range<usize>, &mut [i8]) + Sync,
) {
    run_with(pa, n, (OutLayout::rows(n), Strip::Panels), out, work, pack, |acc, t, chunks| {
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
    let pack = |cols, buf: &mut [i8]| pack_b(pa.k, cols, |kk, j| b[kk * n + j], buf);
    with_thread_work(|work| run_requant(pa, n, out, (bias, shift, relu), work, pack));
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
            let pack =
                |cols: Range<usize>, buf: &mut [i8]| pack_b(k, cols, |kk, j| b[kk * n + j], buf);
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
