//! Exact integer Winograd F(2x2, 3x3) for the INT8 3x3 same conv (Lavin &
//! Gray, arXiv:1509.09308): 16 multiplies per 2x2 output tile instead of 36,
//! bit for bit the direct conv.
//!
//! Per input channel, a 2x2 output tile is `Y = Aᵀ [U ⊙ V] A` over a 4x4
//! transform domain, with
//!
//! ```text
//!   U = (2G) g (2G)ᵀ   the 3x3 weights g, transformed once at packing
//!   V = Bᵀ d B         the 4x4 input patch d around the tile
//! ```
//!
//! and `Bᵀ`, `Aᵀ` from the paper. Scaling `G` by 2 makes every matrix an
//! integer one, so nothing rounds: `|U| <= 9 * 128` ([`WINO_U_MAX`]), `|V| <=
//! 4 * 128` ([`WINO_V_MAX`]), and `Y = 4y` for the direct conv's accumulator
//! `y`, which `>> 2` recovers exactly. Summed over channels, each of the 16
//! positions `ξ` is one GEMM, `M_ξ = U_ξ · V_ξ` with `k = C_in`, so the conv
//! runs on the crate's one driver ([`crate::gemm`]) with no driver of its own:
//!
//! * **the pack closure is the input transform** ([`pack_b_winograd`]): a
//!   strip of tiles is transformed once into `NR`-wide panels of 16 position
//!   sub-panels, `[ξ][c][NR]` `i16`, straight from the NCHW map (zero
//!   padding at the borders, as the im2col gather);
//! * **the tile** runs the 16 position products of one row tile against one
//!   panel, each through `tile_i16` — the INT8 tile's `i16` sibling, with the
//!   same offset form and column-sum correction;
//! * **the store is the output transform plus requant**: `Aᵀ M A`, `>> 2`,
//!   then the same `requant` as the direct conv, written as 2x2 blocks
//!   clipped at odd `H` / `W`. A column part owns whole tile rows, i.e. a
//!   band of every output plane, as a tconv part owns whole input rows.
//!
//! Overflow: the GEMM accumulates `k` products of `U' = U + 2048 <= 3200`
//! and `|V| <= 512`, so `C_in <= 1310` ([`WINO_MAX_C_IN`], asserted at
//! packing as [`crate::gemm::PackElem::MAX_K`] is) keeps it inside `i32`. The output transform's partial
//! sums can leave `i32` (three sums of up to `C_in * 9 * 128 * 512`); it uses
//! wrapping arithmetic, which is exact because the final `4y`, bounded by
//! `4 * 9 * C_in * 128²`, fits.

use crate::gemm::{
    bias_at, packed_b_len, requant, run_with, strip_scratch_len, tile_i16, Acc, OutLayout, Panels,
    Steps, Strip, Tile, Work, MR, NR,
};
use crate::im2col::ConvGeom;
use std::ops::Range;

/// Largest `|U|` of a transformed `i8` weight tile (`9 * 128`).
pub const WINO_U_MAX: i32 = 9 * 128;

/// The offset transformed weights are stored at: `U + 2048` lies in `[896,
/// 3200]`, twelve unsigned bits (see the Winograd tile in [`crate::gemm`]).
pub const WINO_U_OFFSET: i32 = 2048;

/// Largest `|V|` of a transformed `i8` input patch (`4 * 128`).
pub const WINO_V_MAX: i32 = 4 * 128;

/// Largest `C_in` the Winograd tile accumulates without overflow: `C_in *
/// (2048 + 1152) * 512 < 2^31`.
pub const WINO_MAX_C_IN: usize =
    (i32::MAX as usize) / ((WINO_U_OFFSET + WINO_U_MAX) as usize * WINO_V_MAX as usize);

/// Positions of the 4x4 transform domain.
const POS: usize = 16;

/// `2G`: the weight transform, scaled to integers.
const G2: [[i32; 3]; 4] = [[2, 0, 0], [1, 1, 1], [1, -1, 1], [0, 0, 2]];

/// Pre-transformed, pre-packed Winograd weights of one 3x3 conv: per `MR`-row
/// panel, 16 position sub-panels `[ξ][c][MR]` of `U + 2048` as `u16`.
///
/// 16 `u16` per `(c_out, c_in)` pair, against 9 `i8` in [`crate::gemm::PackedA`]:
/// the panels are 3.6x the direct conv's.
#[derive(Debug, Clone)]
pub struct PackedWinograd {
    m: usize,
    c_in: usize,
    panels: Vec<u16>,
}

impl PackedWinograd {
    /// Transforms and packs `[C_out, C_in, 3, 3]` weights. Panics if `C_in`
    /// exceeds the accumulator-safe extent [`WINO_MAX_C_IN`].
    pub fn pack(c_out: usize, c_in: usize, w: &[i8]) -> Self {
        assert_eq!(w.len(), c_out * c_in * 9, "weight size");
        assert!(c_in > 0, "Winograd conv without input channels");
        assert!(
            c_in <= WINO_MAX_C_IN,
            "C_in = {c_in} exceeds the Winograd accumulator-safe extent {WINO_MAX_C_IN}"
        );
        // Padding rows hold U = 0; the tile never stores them.
        let mut panels = vec![WINO_U_OFFSET as u16; c_out.div_ceil(MR) * POS * c_in * MR];
        for (ip, panel) in panels.chunks_exact_mut(POS * c_in * MR).enumerate() {
            let rows = MR.min(c_out - ip * MR);
            for ci in 0..c_in {
                for ii in 0..rows {
                    let g = &w[((ip * MR + ii) * c_in + ci) * 9..][..9];
                    // (2G) g, then ((2G) g) (2G)ᵀ.
                    let gg: [[i32; 3]; 4] = G2.map(|r| {
                        [0, 1, 2].map(|b| (0..3).map(|a| r[a] * i32::from(g[3 * a + b])).sum())
                    });
                    for (p, ggp) in gg.iter().enumerate() {
                        for (q, r) in G2.iter().enumerate() {
                            let u: i32 = (0..3).map(|b| ggp[b] * r[b]).sum();
                            panel[((4 * p + q) * c_in + ci) * MR + ii] = (u + WINO_U_OFFSET) as u16;
                        }
                    }
                }
            }
        }
        Self { m: c_out, c_in, panels }
    }

    /// Output channels.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Input channels (the GEMM `k` of each position product).
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// `u16` elements held by the panel buffer (for memory accounting).
    pub fn panel_len(&self) -> usize {
        self.panels.len()
    }
}

impl Panels for PackedWinograd {
    type B = i16;
    type Out = [Acc<i32>; POS];

    fn dims(&self) -> (usize, usize) {
        (self.m, POS * self.c_in)
    }

    fn tile(
        &self,
        ip: usize,
        bp: &[i16],
        steps: Steps<'_>,
        rows: usize,
        out: &mut [Acc<i32>; POS],
    ) {
        debug_assert!(matches!(steps, Steps::Packed), "integer tiles read packed panels");
        let k = self.c_in;
        let ap = &self.panels[ip * POS * MR * k..][..POS * MR * k];
        for ((a, b), o) in ap.chunks_exact(MR * k).zip(bp.chunks_exact(NR * k)).zip(out) {
            tile_i16(a, b, rows, o);
        }
    }
}

/// Tiles of the 2x2 tiling of an `h x w` map: `(tile rows, tile columns)`.
pub fn winograd_tiles(h: usize, w: usize) -> (usize, usize) {
    (h.div_ceil(2), w.div_ceil(2))
}

/// The input transform as the driver's pack: tiles `cols` (row-major over the
/// tiling of `geom`'s map) become `NR`-wide panels of 16 position sub-panels
/// `[ξ][c][NR]`, `V = Bᵀ d B` of each tile's 4x4 patch `d` (rows `2ty - 1 ..
/// 2ty + 3`, columns likewise, zero outside the map). Tiles are walked in runs
/// that share a tile row; the tail panel's missing tiles are zero.
pub fn pack_b_winograd(geom: &ConvGeom, x: &[i8], cols: Range<usize>, buf: &mut [i16]) {
    let (c_in, h, w) = (geom.c_in, geom.h, geom.w);
    assert_eq!(x.len(), c_in * h * w, "input size");
    let tw = winograd_tiles(h, w).1;
    let depth = POS * c_in;
    for (jp, panel) in
        buf[..packed_b_len(depth, cols.len())].chunks_exact_mut(NR * depth).enumerate()
    {
        let j0 = cols.start + jp * NR;
        let valid = NR.min(cols.end - j0);
        if valid < NR {
            panel.fill(0);
        }
        let mut jj = 0;
        while jj < valid {
            let (ty, tx0) = ((j0 + jj) / tw, (j0 + jj) % tw);
            let seg = (tw - tx0).min(valid - jj);
            // The run's patches span map columns `2 tx0 - 1 .. 2 (tx0 + seg) + 1`:
            // `win[i]` is column `2 tx0 - 1 + i`, zero outside the map.
            let (lo, x0) = if tx0 == 0 { (1, 0) } else { (0, 2 * tx0 - 1) };
            let hi = (w - x0 + lo).min(2 * seg + 2);
            let mut win = [0i16; 2 * NR + 2];
            let mut t = [[[0i16; NR]; 4]; 4];
            for (c, plane) in x.chunks_exact(h * w).enumerate() {
                // d B along each patch row (rows outside the map are zero) ...
                for (r, tr) in t.iter_mut().enumerate() {
                    let iy = 2 * ty + r; // map row `iy - 1`
                    if iy == 0 || iy > h {
                        *tr = [[0; NR]; 4];
                        continue;
                    }
                    let src = &plane[(iy - 1) * w + x0..];
                    match <&[i8; 2 * NR + 2]>::try_from(src.get(..2 * NR + 2).unwrap_or(&[])) {
                        Ok(s) if hi - lo == 2 * NR + 2 => win = s.map(i16::from),
                        _ => {
                            for (d, &s) in win[lo..hi].iter_mut().zip(src) {
                                *d = i16::from(s);
                            }
                        }
                    }
                    let [t0, t1, t2, t3] = tr;
                    for j in 0..NR {
                        let [d0, d1, d2, d3] =
                            [win[2 * j], win[2 * j + 1], win[2 * j + 2], win[2 * j + 3]];
                        (t0[j], t1[j], t2[j], t3[j]) = (d0 - d2, d1 + d2, d2 - d1, d1 - d3);
                    }
                }
                // ... then Bᵀ (d B) across them: V[p][q] into sub-panel 4p + q,
                // `a ± b` per row of Bᵀ, computed straight into the panel (a
                // copy out of a temporary becomes a `memcpy` call per
                // sub-panel), a whole-panel run as one fixed-size vector op.
                for q in 0..4 {
                    let [t0, t1, t2, t3] = [&t[0][q], &t[1][q], &t[2][q], &t[3][q]];
                    for (p, (a, b, sub)) in
                        [(t0, t2, true), (t1, t2, false), (t2, t1, true), (t1, t3, true)]
                            .into_iter()
                            .enumerate()
                    {
                        let f = |x: i16, y: i16| if sub { x - y } else { x + y };
                        let dst = &mut panel[((4 * p + q) * c_in + c) * NR + jj..][..seg];
                        match <&mut [i16; NR]>::try_from(&mut *dst) {
                            Ok(d) => *d = std::array::from_fn(|j| f(a[j], b[j])),
                            Err(_) => {
                                for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                                    *d = f(x, y);
                                }
                            }
                        }
                    }
                }
            }
            jj += seg;
        }
    }
}

/// `Aᵀ v` for a 4-vector `v`: rows `(1, 1, 1, 0)` and `(0, 1, -1, -1)`, in
/// wrapping `i32` (see the module docs).
#[inline(always)]
fn at(v: [i32; 4]) -> [i32; 2] {
    [v[0].wrapping_add(v[1]).wrapping_add(v[2]), v[1].wrapping_sub(v[2]).wrapping_sub(v[3])]
}

/// The output transform plus requant as the driver's store: for each valid
/// row (output channel) of the tile, `Y = Aᵀ M A` per tile column, `y = Y >>
/// 2` (exact), then `requant(y, bias, shift, relu)` written as the tile's 2x2
/// output block, clipped at `h` / `w`. `chunks[i]` is the band of output plane
/// `row0 + i` that the part's tile rows cover.
fn store_winograd(
    m: &[Acc<i32>; POS],
    t: Tile,
    chunks: &mut [&mut [i8]],
    (h, w): (usize, usize),
    (bias, shift, relu): (&[i32], i32, bool),
) {
    let tw = winograd_tiles(h, w).1;
    let ty0 = t.col0 / tw;
    for ii in 0..t.rows {
        // M A per patch row p: the two column combinations, every tile column ...
        let mut ma = [[[0i32; NR]; 2]; 4];
        for (p, [a0, a1]) in ma.iter_mut().enumerate() {
            let [m0, m1, m2, m3] =
                [&m[4 * p][ii], &m[4 * p + 1][ii], &m[4 * p + 2][ii], &m[4 * p + 3][ii]];
            for j in 0..NR {
                [a0[j], a1[j]] = at([m0[j], m1[j], m2[j], m3[j]]);
            }
        }
        // ... then Aᵀ (M A), `>> 2` and requant: q[2 dy + dx][j] is output
        // pixel (dy, dx) of tile column j ...
        let b = bias_at(bias, t.row + ii);
        let mut q = [[0i8; NR]; 4];
        for dx in 0..2 {
            for j in 0..NR {
                let [y0, y1] = at([ma[0][dx][j], ma[1][dx][j], ma[2][dx][j], ma[3][dx][j]]);
                q[dx][j] = requant(y0 >> 2, b, shift, relu);
                q[2 + dx][j] = requant(y1 >> 2, b, shift, relu);
            }
        }
        // ... interleaved into the tile row's two output rows, so that each
        // run of tile columns sharing a tile row is one copy per output row
        // (an odd width clips the last tile's right column).
        let mut rows = [[0i8; 2 * NR]; 2];
        for (dy, row) in rows.iter_mut().enumerate() {
            let (q0, q1) = (&q[2 * dy], &q[2 * dy + 1]);
            for ((d, &v0), &v1) in row.as_chunks_mut::<2>().0.iter_mut().zip(q0).zip(q1) {
                *d = [v0, v1];
            }
        }
        let band = &mut chunks[t.row - t.row0 + ii];
        let mut done = 0;
        while done < t.cols {
            let (ty, tx0) = ((t.col + done) / tw, (t.col + done) % tw);
            let seg = (tw - tx0).min(t.cols - done);
            for (dy, src) in rows.iter().enumerate().take(2.min(h - 2 * ty)) {
                let row = &mut band[(2 * (ty - ty0) + dy) * w..][..w];
                let dst = &mut row[2 * tx0..(2 * (tx0 + seg)).min(w)];
                dst.copy_from_slice(&src[2 * done..][..dst.len()]);
            }
            done += seg;
        }
    }
}

/// Winograd INT8 3x3 same conv of one `[C, H, W]` image against pre-packed
/// transformed weights, with the fused requantise-clamp epilogue: bit for bit
/// [`crate::igemm::igemm_conv_with`] on the same weights and input. `out` is
/// `[C_out, H, W]`. The driver's strip buffers
/// are slices of `work`'s, grown when shorter than
/// [`winograd_strip_scratch_len`]: the caller owns them, as the executor's
/// worker arena does (a thread-local of their size, up to 1 MB per part at
/// `C_in = 1024`, would live as long as the thread).
#[allow(clippy::too_many_arguments)]
pub fn igemm_conv_winograd(
    pw: &PackedWinograd,
    geom: &ConvGeom,
    x: &[i8],
    bias: &[i32],
    shift: i32,
    relu: bool,
    out: &mut [i8],
    work: &mut Work<i16>,
) {
    assert!(
        (geom.k, geom.pad, geom.stride) == (3, 1, 1),
        "Winograd F(2x2, 3x3) computes the 3x3 stride-1 pad-1 conv only"
    );
    assert_eq!(pw.c_in, geom.c_in, "packed C_in vs conv geometry");
    let (h, w) = (geom.h, geom.w);
    let (th, tw) = winograd_tiles(h, w);
    // A column part owns whole tile rows: two output rows of every plane.
    let layout = OutLayout { rows: 1, len: h * w, quantum: tw, quantum_elems: 2 * w };
    let pack = |cols: Range<usize>, buf: &mut [i16]| pack_b_winograd(geom, x, cols, buf);
    run_with(pw, th * tw, (layout, Strip::Panels), out, work, pack, |m, t, chunks| {
        store_winograd(m, t, chunks, (h, w), (bias, shift, relu))
    });
}

/// `i16` strip elements [`igemm_conv_winograd`] packs into for a `c_in ->
/// c_out` conv on an `h x w` map (the [`crate::gemm::strip_scratch_len`] of
/// its split).
pub fn winograd_strip_scratch_len(c_out: usize, c_in: usize, h: usize, w: usize) -> usize {
    let (th, tw) = winograd_tiles(h, w);
    strip_scratch_len(c_out, POS * c_in, th * tw, tw, size_of::<i16>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::PackedA;
    use crate::igemm::igemm_conv_packed;
    use rand::{Rng, SeedableRng};
    use std::array::from_fn;

    fn rand_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-128i32..128) as i8).collect()
    }

    /// One tile, one channel, by hand: the transforms reproduce the 3x3
    /// correlation times 4.
    #[test]
    fn transforms_compute_four_times_the_direct_conv() {
        let g = rand_i8(9, 1);
        let d = rand_i8(16, 2);
        let pw = PackedWinograd::pack(1, 1, &g);
        let geom = ConvGeom { c_in: 1, h: 4, w: 4, k: 3, pad: 1, stride: 1 };
        let mut v = vec![0i16; packed_b_len(POS, NR)];
        // Tile (1, 1) of a 4x4 map covers rows/columns 1..5 of the padded map.
        pack_b_winograd(&geom, &d, 3..4, &mut v);
        let m: Vec<i32> = (0..POS)
            .map(|xi| (i32::from(pw.panels[xi * MR]) - WINO_U_OFFSET) * i32::from(v[xi * NR]))
            .collect();
        let ma: Vec<[i32; 2]> = (0..4).map(|p| at(from_fn(|q| m[4 * p + q]))).collect();
        let ma_cols: [[i32; 4]; 2] = from_fn(|dx| from_fn(|p| ma[p][dx]));
        for (dx, &col) in ma_cols.iter().enumerate() {
            let y = at(col);
            for (dy, &yv) in y.iter().enumerate() {
                let (oy, ox) = (2 + dy, 2 + dx);
                let mut want = 0;
                for (ky, kx) in (0..3).flat_map(|a| (0..3).map(move |b| (a, b))) {
                    let (iy, ix) = (oy + ky, ox + kx);
                    if (1..5).contains(&iy) && (1..5).contains(&ix) {
                        want += i32::from(g[ky * 3 + kx]) * i32::from(d[(iy - 1) * 4 + ix - 1]);
                    }
                }
                assert_eq!(yv, 4 * want, "pixel ({oy}, {ox})");
            }
        }
    }

    #[test]
    fn matches_the_direct_conv_bit_for_bit() {
        for &(c_in, c_out, h, w) in &[(16, 8, 9, 11), (3, 13, 1, 7), (20, 5, 3, 3), (17, 9, 40, 70)]
        {
            let geom = ConvGeom { c_in, h, w, k: 3, pad: 1, stride: 1 };
            let wt = rand_i8(c_out * c_in * 9, 3);
            let x = rand_i8(c_in * h * w, 4);
            let bias: Vec<i32> = (0..c_out as i32).map(|i| i * 91 - 777).collect();
            for &(shift, relu) in &[(9, true), (11, false), (-1, false)] {
                let mut want = vec![0i8; c_out * h * w];
                let pa = PackedA::pack(c_out, c_in * 9, &wt);
                igemm_conv_packed(&pa, &geom, &x, &bias, shift, relu, &mut want);
                let mut got = vec![0i8; c_out * h * w];
                igemm_conv_winograd(
                    &PackedWinograd::pack(c_out, c_in, &wt),
                    &geom,
                    &x,
                    &bias,
                    shift,
                    relu,
                    &mut got,
                    &mut Work::default(),
                );
                assert_eq!(got, want, "{c_in}->{c_out} {h}x{w} shift {shift} relu {relu}");
            }
        }
    }
}
