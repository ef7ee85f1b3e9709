//! Packed, register-tiled matrix multiplication: one strip-mined
//! pack+compute driver, three micro-kernels, fused epilogues.
//!
//! Every GEMM of the crate — the matrix entry points here ([`sgemm`] …
//! [`igemm_fused`]) and the implicit-GEMM convolutions of [`crate::igemm`],
//! in `f32`, `i8` and nibble-packed INT4 — computes `C = A * B` with
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
//! 2. **Parts.** One fork-join per GEMM. With at least as many strips as
//!    threads the parts split the *columns* — so layers with few output rows
//!    (`c_out <= 32`, every full-resolution layer of the 1M model) use every
//!    core; otherwise they split the row tiles and each packs the one strip
//!    itself. GEMMs under [`FORK_MIN_MACS`] run inline on the caller. The
//!    per-part strip buffers are slices of the *calling* thread's scratch
//!    (worker threads are short-lived, their thread-locals would be
//!    re-allocated per call); parts never touch that scratch themselves.
//! 3. **Micro-kernels.** An `MR x NR` accumulator tile walks one `A` row
//!    panel (`[ip][kk][MR]`, packed once per weight tensor — [`PackedA`],
//!    [`PackedA4`]) and one `B` panel over the whole `k` extent; constant
//!    trip counts let LLVM keep the tile in vector registers.
//! 4. **Fused epilogues.** Bias, ReLU, the DPU requantise-clamp and the
//!    transpose-conv scatter are applied to the finished tile as it is
//!    stored; there is no pass over `C` after the GEMM.
//!
//! Each output element is accumulated in ascending-`k` order over the full
//! extent whatever the strip or part split, so `f32` results do not depend on
//! the thread count or the cache budget, and the integer paths are bit-exact
//! under any regrouping.
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
//! largest Table II `k` is 9216). The INT4 kernel is the same with
//! `(nibble ^ 8)` and `8 · colsum`.
//!
//! Three codegen hazards, each re-tested with rustc 1.95 on AVX-512:
//!
//! * *Inlining the MAC loop into the driver closure* still makes LLVM
//!   vectorise over `k`, assembling operands byte by byte (`vpinsrb`) with
//!   the accumulators in stack slots — so `tile_i8` / `tile_i4` are
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

/// Cache budget of one packed `B` strip (see [`strip_cols`]). Sized for the
/// L2 of the smallest cores this runs on; every row tile re-reads the strip
/// from there.
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
}

/// This thread's reusable pack buffers for one element type: the `A` panels
/// of the entry points that pack weights per call, and the parts' `B` strips.
type PackScratch<T> = RefCell<[Vec<T>; 2]>;
const A_PANELS: usize = 0;
const STRIPS: usize = 1;

thread_local! {
    static PACK_F32: PackScratch<f32> = const { RefCell::new([Vec::new(), Vec::new()]) };
    static PACK_I8: PackScratch<i8> = const { RefCell::new([Vec::new(), Vec::new()]) };
}

/// Element type of a packed GEMM operand (`f32`, `i8`).
pub trait PackElem: Zero + Send + Sync + 'static {
    /// Largest shared (`k`) extent the micro-kernel of this type accumulates
    /// without overflow (see the module docs for the INT8 bound).
    const MAX_K: usize;

    #[doc(hidden)]
    fn scratch() -> &'static LocalKey<PackScratch<Self>>;
}

impl PackElem for f32 {
    const MAX_K: usize = usize::MAX;

    fn scratch() -> &'static LocalKey<PackScratch<f32>> {
        &PACK_F32
    }
}

impl PackElem for i8 {
    const MAX_K: usize = 1 << 16;

    fn scratch() -> &'static LocalKey<PackScratch<i8>> {
        &PACK_I8
    }
}

/// Takes buffer `slot` out of the calling thread's pack scratch (so no
/// `RefCell` borrow is held while the GEMM runs); [`put_buf`] returns it.
fn take_buf<T: PackElem>(slot: usize) -> Vec<T> {
    T::scratch().with(|s| std::mem::take(&mut s.borrow_mut()[slot]))
}

fn put_buf<T: PackElem>(slot: usize, buf: Vec<T>) {
    T::scratch().with(|s| s.borrow_mut()[slot] = buf);
}

/// A pre-packed `A` operand: the `MR`-tall k-major row panels the micro-kernel
/// consumes, built once and reused across calls.
///
/// Inference weights are immutable, so re-packing them on every frame (as
/// [`sgemm_fused`] / [`igemm_fused`] must, since they only see flat slices) is
/// pure per-frame overhead. The pack-slot pass in `seneca-ir` builds one
/// `PackedA` per weight tensor at lowering time and routes frames through the
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
        let pa = Self::pack_with(m, k, get, take_buf(A_PANELS));
        let r = f(&pa);
        put_buf(A_PANELS, pa.panels);
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

/// A pre-packed INT4 `A` operand: the same `MR`-tall k-major row panels as
/// [`PackedA<i8>`], but with two signed nibbles per byte — the panel buffer
/// is exactly half the size, halving weight-panel memory traffic in the
/// micro-kernel.
///
/// Packing runs along the `MR` dimension: each k-step of a panel holds `MR`
/// weights in `MR / 2` bytes, with the even row in the low nibble and the odd
/// row in the high nibble (`byte j = (a[2j+1] << 4) | (a[2j] & 0xF)`). The
/// micro-kernel widens both nibbles in registers, so [`igemm4_fused_packed`]
/// is bit-identical to unpacking to `i8` and calling [`igemm_fused`].
#[derive(Debug, Clone)]
pub struct PackedA4 {
    m: usize,
    k: usize,
    pub(crate) panels: Vec<u8>,
}

impl PackedA4 {
    /// Packs a row-major `m x k` matrix whose values all lie in `[-8, 7]`
    /// (panics otherwise — INT4 packing of wider data would corrupt weights
    /// silently).
    pub fn pack(m: usize, k: usize, a: &[i8]) -> Self {
        assert!(
            a.iter().all(|&v| (-8..=7).contains(&(v as i32))),
            "INT4 pack requires all values in [-8, 7]"
        );
        let wide = PackedA::pack(m, k, a);
        Self { m, k, panels: pack_nibble_pairs(&wide.panels) }
    }

    /// Rows of the packed matrix.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Shared (`k`) extent of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bytes held by the panel buffer (half of the equivalent INT8 panels).
    pub fn panel_len(&self) -> usize {
        self.panels.len()
    }

    /// Expands the nibble panels back to the equivalent [`PackedA<i8>`]
    /// (reference/fallback path; the panel bytes match `PackedA::pack` of the
    /// original matrix exactly).
    pub fn unpack(&self) -> PackedA<i8> {
        let mut panels = vec![0i8; self.panels.len() * 2];
        unpack_nibble_pairs(&self.panels, &mut panels);
        PackedA { m: self.m, k: self.k, panels }
    }
}

/// Packs adjacent pairs of `[-8, 7]` values into single bytes: even index in
/// the low nibble, odd index in the high nibble. `src.len()` must be even.
pub fn pack_nibble_pairs(src: &[i8]) -> Vec<u8> {
    assert!(src.len().is_multiple_of(2), "nibble packing needs an even length");
    src.chunks_exact(2).map(|p| ((p[1] as u8) << 4) | (p[0] as u8 & 0xF)).collect()
}

/// Inverse of [`pack_nibble_pairs`]: sign-extends both nibbles of each byte.
/// `dst.len()` must be `2 * src.len()`.
pub fn unpack_nibble_pairs(src: &[u8], dst: &mut [i8]) {
    assert_eq!(dst.len(), src.len() * 2, "nibble unpack size");
    for (d, &b) in dst.chunks_exact_mut(2).zip(src) {
        d[0] = ((b as i8) << 4) >> 4;
        d[1] = (b as i8) >> 4;
    }
}

/// Elements of `A`-panel storage an `m x k` operand packs into (the `MR`-tall
/// row panels, tail panel zero padded).
pub fn packed_a_len(m: usize, k: usize) -> usize {
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

/// The `A` side of a GEMM as the driver sees it: packed row panels plus the
/// micro-kernel that multiplies one of them with a packed `B` panel.
pub(crate) trait Panels: Sync {
    /// Element type of the packed `B` panels.
    type B: PackElem;
    /// Accumulator type.
    type Acc: Copy + Default;

    /// `(m, k)`.
    fn dims(&self) -> (usize, usize);

    /// Overwrites the first `rows` rows of `acc` (at least) with row panel
    /// `ip` times `bp`, summed over all `k`.
    fn tile(&self, ip: usize, bp: &[Self::B], rows: usize, acc: &mut [[Self::Acc; NR]; MR]);
}

impl Panels for PackedA<f32> {
    type B = f32;
    type Acc = f32;

    fn dims(&self) -> (usize, usize) {
        (self.m, self.k)
    }

    #[inline(always)]
    fn tile(&self, ip: usize, bp: &[f32], _rows: usize, acc: &mut [[f32; NR]; MR]) {
        *acc = tile_f32(&self.panels[ip * MR * self.k..][..MR * self.k], bp);
    }
}

impl Panels for PackedA<i8> {
    type B = i8;
    type Acc = i32;

    fn dims(&self) -> (usize, usize) {
        (self.m, self.k)
    }

    fn tile(&self, ip: usize, bp: &[i8], rows: usize, acc: &mut [[i32; NR]; MR]) {
        tile_i8(&self.panels[ip * MR * self.k..][..MR * self.k], bp, rows, acc);
    }
}

impl Panels for PackedA4 {
    type B = i8;
    type Acc = i32;

    fn dims(&self) -> (usize, usize) {
        (self.m, self.k)
    }

    fn tile(&self, ip: usize, bp: &[i8], rows: usize, acc: &mut [[i32; NR]; MR]) {
        tile_i4(&self.panels[ip * (MR / 2) * self.k..][..MR / 2 * self.k], bp, rows, acc);
    }
}

/// The f32 micro-kernel: an `MR x NR` accumulator tile over the full `k`
/// extent of one A row panel and one B column panel. Branch-free with
/// constant trip counts so LLVM keeps the tile in vector registers.
#[inline(always)]
fn tile_f32(ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let a: &[f32; MR] = a.try_into().expect("panel chunk");
        let b: &[f32; NR] = b.try_into().expect("panel chunk");
        for (i, acc_i) in acc.iter_mut().enumerate() {
            let aik = a[i];
            for (acc_ij, &bv) in acc_i.iter_mut().zip(b) {
                *acc_ij += aik * bv;
            }
        }
    }
    acc
}

/// An integer micro-kernel in the offset form of the module docs: `$widen`
/// reads row `i` of one k-step of the `A` panel (`$step` bytes) as the
/// non-negative weight `a + $offset`; the column sums of `B` take the offset
/// back out when the first `rows` rows of the finished tile are written to
/// `out` (rows beyond are padding and left alone — and the dynamic trip count
/// keeps LLVM from transposing that loop into gathers). Isolated
/// `#[inline(never)]` functions — see the codegen hazards in the module docs.
macro_rules! int_tile_fn {
    ($(#[$doc:meta])* $name:ident, $a:ty, $step:expr, $offset:expr, $widen:expr) => {
        $(#[$doc])*
        #[inline(never)]
        fn $name(ap: &[$a], bp: &[i8], rows: usize, out: &mut [[i32; NR]; MR]) {
            let mut acc = [[0i32; NR]; MR];
            let mut colsum = [0i32; NR];
            for (a, b) in ap.chunks_exact($step).zip(bp.chunks_exact(NR)) {
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
    MR,
    128,
    |a: &[i8], i: usize| ((a[i] as u8) ^ 0x80) as i32
);

int_tile_fn!(
    /// The INT4 micro-kernel: each k-step is `MR / 2` bytes, even row in the
    /// low nibble; weights read as `nibble ^ 8 = a + 8`.
    tile_i4,
    u8,
    MR / 2,
    8,
    |a: &[u8], i: usize| (((a[i / 2] >> (4 * (i % 2))) & 0xF) ^ 8) as i32
);

/// Columns per strip for a `k`-row packed operand of `elem_bytes`-wide
/// elements: the largest multiple of `NR` within [`STRIP_BYTES`], at least
/// one panel.
pub fn strip_cols(k: usize, elem_bytes: usize) -> usize {
    (STRIP_BYTES / (k.max(1) * elem_bytes) / NR).max(1) * NR
}

/// How one GEMM is cut into strips and parallel parts — shared by the driver
/// and by the memory accounting ([`strip_scratch_len`]), so the two cannot
/// drift.
struct Split {
    /// Columns per strip (a multiple of `NR`).
    nc: usize,
    row_parts: usize,
    col_parts: usize,
    /// Rows per row part (a multiple of `MR`).
    rows_per: usize,
    /// Columns per column part (a multiple of the caller's quantum).
    cols_per: usize,
}

impl Split {
    /// `quantum` is the granularity of column-part boundaries: `NR` for a
    /// row-major `C`, one input row for the tconv scatter.
    fn new(m: usize, k: usize, n: usize, quantum: usize, elem_bytes: usize) -> Self {
        let nc = strip_cols(k, elem_bytes);
        let (tiles, quanta) = (m.div_ceil(MR), n.div_ceil(quantum));
        let threads = if m * k * n < FORK_MIN_MACS { 1 } else { rayon::current_num_threads() };
        // Columns when every thread gets at least one strip of its own, the
        // row tiles (each part packing the strips itself) with what is left.
        let col_parts = threads.min(n.div_ceil(nc)).min(quanta).max(1);
        let row_parts = (threads / col_parts).min(tiles).max(1);
        Self {
            nc,
            row_parts,
            col_parts,
            rows_per: tiles.div_ceil(row_parts) * MR,
            cols_per: quanta.div_ceil(col_parts) * quantum,
        }
    }

    /// Elements of one part's strip buffer.
    fn strip_len(&self, k: usize, n: usize) -> usize {
        packed_b_len(k, self.nc.min(self.cols_per).min(n))
    }
}

/// Elements of per-call `B` scratch the driver allocates for an `m x k x n`
/// GEMM whose packed operand has `elem_bytes`-wide elements: one strip buffer
/// per parallel part. This is the *only* per-frame GEMM work memory (the
/// weight panels are packed once). `quantum` as in the entry point: `NR` for
/// a convolution, the input width for a 2x2 transpose convolution.
pub fn strip_scratch_len(m: usize, k: usize, n: usize, quantum: usize, elem_bytes: usize) -> usize {
    let s = Split::new(m, k, n, quantum, elem_bytes);
    s.row_parts * s.col_parts * s.strip_len(k, n)
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

/// One parallel part: a block of row tiles times a range of columns, with its
/// strip buffer and its piece of every output chunk its rows touch.
struct Part<'a, B, C> {
    rows: Range<usize>,
    cols: Range<usize>,
    strip: &'a mut [B],
    chunks: Vec<&'a mut [C]>,
}

/// The strip-mined driver behind every GEMM of the crate (see the module
/// docs). `c` is `m / rpc` contiguous chunks of `rpc * n` elements — the rows
/// of a row-major `C` (`rpc = 1`) or the `[2H, 2W]` output planes of a 2x2
/// transpose conv (`rpc = 4` GEMM rows scatter into one plane) — and a column
/// range `j0..j1` on a `quantum` boundary owns elements `rpc*j0..rpc*j1` of
/// each. `pack(cols, buf)` packs a strip of `B`; `store(acc, tile, chunks)`
/// writes one finished tile into the part's chunk pieces.
pub(crate) fn run<A: Panels, C: Send>(
    a: &A,
    n: usize,
    rpc: usize,
    quantum: usize,
    c: &mut [C],
    pack: impl Fn(Range<usize>, &mut [A::B]) + Sync,
    store: impl Fn(&[[A::Acc; NR]; MR], Tile, &mut [&mut [C]]) + Sync,
) {
    let (m, k) = a.dims();
    assert_eq!(c.len(), m * n, "C size");
    assert!(m.is_multiple_of(rpc) && MR.is_multiple_of(rpc), "row tiles cover whole chunks");
    if m == 0 || n == 0 {
        return;
    }
    let split = Split::new(m, k, n, quantum, size_of::<A::B>());
    let (n_parts, strip_len) = (split.row_parts * split.col_parts, split.strip_len(k, n));
    let mut strips = take_buf::<A::B>(STRIPS);
    if strips.len() < n_parts * strip_len {
        strips.resize(n_parts * strip_len, A::B::ZERO);
    }
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
    for (ci, mut chunk) in c.chunks_mut(rpc * n).enumerate() {
        let rp = ci * rpc / split.rows_per;
        for part in &mut parts[rp * split.col_parts..(rp + 1) * split.col_parts] {
            let piece;
            (piece, chunk) = std::mem::take(&mut chunk).split_at_mut(rpc * part.cols.len());
            part.chunks.push(piece);
        }
    }
    parts.retain(|p| !p.rows.is_empty() && !p.cols.is_empty());

    #[cfg(feature = "trace-gemm")]
    let spent = [std::sync::atomic::AtomicU64::new(0), std::sync::atomic::AtomicU64::new(0)];
    parts.into_par_iter().for_each(|mut part| {
        let mut acc = [[A::Acc::default(); NR]; MR];
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
                    let bp = &part.strip[(col - strip_cols.start) * k..][..NR * k];
                    a.tile(row / MR, bp, rows, &mut acc);
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
        let packed = (packed_b_len(k, n) * size_of::<A::B>()) as u64;
        seneca_trace::record_ns("gemm", "pack", spent[0].load(Relaxed), packed);
        seneca_trace::record_ns("gemm", "kernel", spent[1].load(Relaxed), size_of_val(c) as u64);
    }
    put_buf(STRIPS, strips);
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
    let q = requantize_i32(v + bias, shift);
    if relu && q < 0 {
        0
    } else {
        q
    }
}

/// Row `i` of a per-row bias; a short or empty slice contributes zero.
#[inline(always)]
pub(crate) fn bias_at<T: Zero>(bias: &[T], i: usize) -> T {
    bias.get(i).copied().unwrap_or(T::ZERO)
}

/// Runs the f32 driver into a row-major `C` with `epi` fused into the store.
pub(crate) fn run_f32(
    pa: &PackedA<f32>,
    n: usize,
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
    pack: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    run(pa, n, 1, NR, c, pack, |acc, t, chunks| match epi {
        GemmEpilogue::None => store_rows(acc, t, chunks, |_| (), |v, ()| v),
        GemmEpilogue::Bias(b) => store_rows(acc, t, chunks, |i| bias_at(b, i), |v, b| v + b),
        GemmEpilogue::BiasRelu(b) => {
            store_rows(acc, t, chunks, |i| bias_at(b, i), |v, b| (v + b).max(0.0))
        }
    });
}

/// Runs an INT8/INT4 driver into a row-major `i8` `C` with the requantise
/// epilogue fused into the store.
pub(crate) fn run_requant<A: Panels<B = i8, Acc = i32>>(
    pa: &A,
    n: usize,
    out: &mut [i8],
    (bias, shift, relu): (&[i32], i32, bool),
    pack: impl Fn(Range<usize>, &mut [i8]) + Sync,
) {
    run(pa, n, 1, NR, out, pack, |acc, t, chunks| {
        store_rows(acc, t, chunks, |i| bias_at(bias, i), |v, b| requant(v, b, shift, relu))
    });
}

/// Shared f32 entry for flat operands: packs `A` into the thread's scratch
/// and strip-mines `B`. `ga(i, kk)` / `gb(kk, j)` adapt the operand layouts
/// (row-major or transposed) without separate kernel copies.
fn gemm_f32(
    (m, k, n): (usize, usize, usize),
    ga: impl Fn(usize, usize) -> f32,
    gb: impl Fn(usize, usize) -> f32 + Sync,
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
) {
    PackedA::with_scratch(m, k, ga, |pa| {
        run_f32(pa, n, c, epi, |cols, buf| pack_b(k, cols, &gb, buf))
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
    assert_eq!(b.len(), k * n, "B size");
    gemm_f32((m, k, n), |i, kk| a[i * k + kk], |kk, j| b[kk * n + j], c, epi);
}

/// `f32` GEMM with `A` transposed: `c = a^T * b` where `a: k x m` row-major.
///
/// Used by the convolution backward pass (`dX = W^T * dY`). The transposition
/// is absorbed by the packing step — the micro-kernel is shared.
pub fn sgemm_at(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "A size (transposed)");
    assert_eq!(b.len(), k * n, "B size");
    gemm_f32((m, k, n), |i, kk| a[kk * m + i], |kk, j| b[kk * n + j], c, GemmEpilogue::None);
}

/// `f32` GEMM with `B` transposed: `c = a * b^T` where `b: n x k` row-major.
///
/// Used by the convolution weight-gradient pass (`dW = dY * col^T`).
pub fn sgemm_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), n * k, "B size (transposed)");
    gemm_f32((m, k, n), |i, kk| a[i * k + kk], |kk, j| b[j * k + kk], c, GemmEpilogue::None);
}

/// [`sgemm_fused`] with a pre-packed `A` operand: only the `B` strips are
/// packed per call. Bit-identical to the unpacked call — the `A` panel bytes
/// are the same.
pub fn sgemm_fused_packed(
    pa: &PackedA<f32>,
    n: usize,
    b: &[f32],
    c: &mut [f32],
    epi: GemmEpilogue<'_>,
) {
    assert_eq!(b.len(), pa.k * n, "B size");
    run_f32(pa, n, c, epi, |cols, buf| pack_b(pa.k, cols, |kk, j| b[kk * n + j], buf));
}

/// [`igemm_fused`] with a pre-packed `A` operand (see
/// [`sgemm_fused_packed`]); bit-identical to the unpacked call.
pub fn igemm_fused_packed(
    pa: &PackedA<i8>,
    n: usize,
    b: &[i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
) {
    requant_packed(pa, n, b, (bias, shift, relu), out);
}

/// [`igemm_fused_packed`] for a nibble-packed INT4 `A` operand: the weight
/// panels stream at half the bytes, the activation (`B`) packing and the
/// fused bias/requant/ReLU epilogue are identical. Bit-identical to
/// `pa.unpack()` + [`igemm_fused_packed`].
pub fn igemm4_fused_packed(
    pa: &PackedA4,
    n: usize,
    b: &[i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
) {
    requant_packed(pa, n, b, (bias, shift, relu), out);
}

fn requant_packed<A: Panels<B = i8, Acc = i32>>(
    pa: &A,
    n: usize,
    b: &[i8],
    epi: (&[i32], i32, bool),
    out: &mut [i8],
) {
    let k = pa.dims().1;
    assert_eq!(b.len(), k * n, "B size");
    run_requant(pa, n, out, epi, |cols, buf| pack_b(k, cols, |kk, j| b[kk * n + j], buf));
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
            run(pa, n, 1, NR, c, pack, |acc, t, chunks| {
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

/// Reference (naive, sequential) f32 GEMM used by tests and benchmarks.
pub fn sgemm_reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
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
    use crate::quantized::requantize_slice;
    use rand::{Rng, SeedableRng};

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn rand_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-128i32..128) as i8).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "idx {i}: {x} vs {y}");
        }
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
            assert_close(&c, &c_ref, 1e-4);
        }
    }

    #[test]
    fn sgemm_at_matches_reference() {
        let (m, k, n) = (17, 29, 13);
        let a_t = rand_vec(k * m, 3); // stored as k x m
        let b = rand_vec(k * n, 4);
        // Build the untransposed A for the reference.
        let mut a = vec![0.0; m * k];
        for i in 0..m {
            for kk in 0..k {
                a[i * k + kk] = a_t[kk * m + i];
            }
        }
        let mut c = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        sgemm_at(m, k, n, &a_t, &b, &mut c);
        sgemm_reference(m, k, n, &a, &b, &mut c_ref);
        assert_close(&c, &c_ref, 1e-4);
    }

    #[test]
    fn sgemm_bt_matches_reference() {
        let (m, k, n) = (9, 21, 15);
        let a = rand_vec(m * k, 5);
        let b_t = rand_vec(n * k, 6); // stored as n x k
        let mut b = vec![0.0; k * n];
        for kk in 0..k {
            for j in 0..n {
                b[kk * n + j] = b_t[j * k + kk];
            }
        }
        let mut c = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        sgemm_bt(m, k, n, &a, &b_t, &mut c);
        sgemm_reference(m, k, n, &a, &b, &mut c_ref);
        assert_close(&c, &c_ref, 1e-4);
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

    fn rand_i4(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-8i32..8) as i8).collect()
    }

    #[test]
    fn nibble_pack_unpack_roundtrip() {
        let src = rand_i4(64, 40);
        let packed = pack_nibble_pairs(&src);
        assert_eq!(packed.len(), src.len() / 2);
        let mut back = vec![0i8; src.len()];
        unpack_nibble_pairs(&packed, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    fn packed_a4_unpack_matches_packed_a_i8() {
        for &(m, k) in &[(1, 1), (7, 13), (64, 576), (33, 100)] {
            let a = rand_i4(m * k, 41);
            let pa4 = PackedA4::pack(m, k, &a);
            let pa8 = PackedA::pack(m, k, &a);
            assert_eq!(pa4.panel_len() * 2, pa8.panel_len(), "{m}x{k}");
            assert_eq!(pa4.unpack().panels, pa8.panels, "{m}x{k}");
        }
    }

    #[test]
    fn igemm4_matches_unpacked_i8_bit_exactly() {
        for &(m, k, n) in &[(11, 90, 23), (64, 576, 100), (1, 1, 1), (8, 16, 32)] {
            let a = rand_i4(m * k, 42);
            let b = rand_i8(k * n, 43);
            let bias: Vec<i32> = (0..m as i32).map(|i| i * 13 - 60).collect();
            let pa4 = PackedA4::pack(m, k, &a);
            for &(shift, relu) in &[(4, false), (2, true), (0, false), (-1, true)] {
                let mut c8 = vec![0i8; m * n];
                let mut c4 = vec![0i8; m * n];
                igemm_fused(m, k, n, &a, &b, &bias, shift, relu, &mut c8);
                igemm4_fused_packed(&pa4, n, &b, &bias, shift, relu, &mut c4);
                assert_eq!(c4, c8, "{m}x{k}x{n} shift {shift} relu {relu}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "INT4 pack requires")]
    fn packed_a4_rejects_wide_values() {
        PackedA4::pack(1, 2, &[8, 0]);
    }

    #[test]
    fn igemm_exact_small_case() {
        // 2x3 * 3x2
        let a: Vec<i8> = vec![1, -2, 3, 0, 5, -6];
        let b: Vec<i8> = vec![7, 8, 9, 10, 11, 12];
        let mut c = vec![0i32; 4];
        igemm(2, 3, 2, &a, &b, &mut c);
        assert_eq!(
            c,
            vec![1 * 7 - 2 * 9 + 3 * 11, 1 * 8 - 2 * 10 + 3 * 12, 5 * 9 - 6 * 11, 5 * 10 - 6 * 12]
        );
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
