//! The INT8 activation layout: bordered channel quads.
//!
//! An INT8 feature map of `C` channels over `H x W` pixels is stored as
//! `[⌈C/4⌉][H+2][W+2][4]` bytes: each pixel holds the four channels of one
//! quad side by side, each value `x` as the byte of the unsigned `x ^ 0x80 =
//! x + 128` (held in an `i8`: the arena is the INT8 program's one buffer),
//! and every plane has a one-pixel border of `0x80` (zero). That is what the
//! VNNI micro-kernel reads (`vpdpbusd` multiplies unsigned activation bytes
//! four at a time, see [`crate::gemm`]), so an INT8 conv reads its input map
//! in place, the border standing in for the conv's zero padding, and its
//! requantising store writes the next map directly ([`crate::igemm`]).
//!
//! A map's channels are a whole number of quads. A value whose channels are
//! not (a concat half of 6 or 11 channels, a 1-channel input) leaves lanes
//! of its last quad unused; its readers give those lanes zero weights, so
//! any byte there adds nothing. A concat of two maps is their planes one
//! after the other: where each real channel sits is its *slot*, the padded
//! channel index `slots[c]` of [`pack_nchw`] and [`unpack_nchw`].

use crate::gemm::QUAD;

/// The zero activation's byte (`0 ^ 0x80`): the border and the unused lanes.
pub const ZERO: i8 = i8::MIN;

/// The geometry of one bordered quad map: `c` channels (a whole number of
/// quads) of `h x w` pixels inside a one-pixel border.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadMap {
    /// Channels, padded to whole quads.
    pub c: usize,
    /// Interior height.
    pub h: usize,
    /// Interior width.
    pub w: usize,
}

impl QuadMap {
    /// A map of `c` channels padded to whole quads.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Self { c: c.next_multiple_of(QUAD), h, w }
    }

    /// Channel quads (planes).
    pub fn quads(&self) -> usize {
        self.c / QUAD
    }

    /// Bytes of one bordered row.
    pub fn row(&self) -> usize {
        (self.w + 2) * QUAD
    }

    /// Bytes of one bordered plane.
    pub fn plane(&self) -> usize {
        (self.h + 2) * self.row()
    }

    /// Bytes of the map.
    pub fn len(&self) -> usize {
        self.quads() * self.plane()
    }

    /// Whether the map holds no byte.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte of lane 0 of interior pixel `(y, x)` of quad `q`.
    pub fn at(&self, q: usize, y: usize, x: usize) -> usize {
        q * self.plane() + (y + 1) * self.row() + (x + 1) * QUAD
    }

    /// The map of a 2x2 stride-2 pool of this one (floor on odd sizes).
    pub fn pooled(&self) -> Self {
        Self { h: self.h / 2, w: self.w / 2, ..*self }
    }
}

/// Writes the `0x80` border of every plane of `map`: its first and last
/// rows and the first and last pixel of every row between.
pub fn write_border(g: QuadMap, map: &mut [i8]) {
    assert_eq!(map.len(), g.len(), "quad map size");
    let row = g.row();
    for plane in map.chunks_exact_mut(g.plane()) {
        let (top, rest) = plane.split_at_mut(row);
        let (mid, bottom) = rest.split_at_mut(g.h * row);
        top.fill(ZERO);
        bottom.fill(ZERO);
        for r in mid.chunks_exact_mut(row) {
            r[..QUAD].fill(ZERO);
            r[row - QUAD..].fill(ZERO);
        }
    }
}

/// Stores one NCHW `i8` image of `slots.len()` channels into `map`, border
/// included: channel `c` at padded channel `slots[c]`, every unused lane
/// `0x80`.
pub fn pack_nchw(x: &[i8], slots: &[usize], g: QuadMap, map: &mut [i8]) {
    let hw = g.h * g.w;
    assert_eq!(x.len(), slots.len() * hw, "NCHW image size");
    let mut channel = vec![None; g.c];
    for (c, &s) in slots.iter().enumerate() {
        channel[s] = Some(&x[c * hw..][..hw]);
    }
    write_border(g, map);
    // Runs of `RUN` pixels as `u32` words, every lane `0x80` (zero) until
    // its channel flips it in: one pass per channel, each of which
    // vectorises (a pass per pixel measured 2-4x slower).
    const RUN: usize = 64;
    for (q, plane) in map.chunks_exact_mut(g.plane()).enumerate() {
        for (y, r) in plane.chunks_exact_mut(g.row()).skip(1).take(g.h).enumerate() {
            let pixels = &mut r.as_chunks_mut::<QUAD>().0[1..=g.w];
            for (x0, run) in (0..g.w).step_by(RUN).zip(pixels.chunks_mut(RUN)) {
                let mut words = [u32::from_le_bytes([ZERO as u8; QUAD]); RUN];
                for (l, src) in channel[QUAD * q..][..QUAD].iter().enumerate() {
                    let Some(src) = src else { continue };
                    for (word, &v) in words.iter_mut().zip(&src[y * g.w + x0..][..run.len()]) {
                        *word ^= u32::from(v as u8) << (8 * l);
                    }
                }
                for (px, word) in run.iter_mut().zip(words) {
                    *px = word.to_le_bytes().map(|b| b as i8);
                }
            }
        }
    }
}

/// Reads `slots.len()` channels of `map` back into one NCHW `i8` image:
/// channel `c` from padded channel `slots[c]`.
pub fn unpack_nchw(map: &[i8], g: QuadMap, slots: &[usize], out: &mut [i8]) {
    let hw = g.h * g.w;
    assert_eq!(map.len(), g.len(), "quad map size");
    assert_eq!(out.len(), slots.len() * hw, "NCHW image size");
    for (&s, plane) in slots.iter().zip(out.chunks_exact_mut(hw.max(1))) {
        let (q, lane) = (s / QUAD, s % QUAD);
        for (y, r) in plane.chunks_exact_mut(g.w.max(1)).enumerate() {
            let src = &map[g.at(q, y, 0)..][..g.w * QUAD];
            for (d, px) in r.iter_mut().zip(src.as_chunks::<QUAD>().0) {
                *d = px[lane] ^ ZERO;
            }
        }
    }
}

/// 2x2 stride-2 max pool of the quad map `x` (geometry `g`) into `out` (of
/// [`QuadMap::pooled`]), border included: lane by lane on the bytes read as
/// unsigned, which `^ 0x80` keeps in the order of the `i8` values, so each
/// lane is the `i8` pool's result.
pub fn maxpool2x2_quads(g: QuadMap, x: &[i8], out: &mut [i8]) {
    // Runs of `RUN` output pixels: the two rows' byte-wise max first (it
    // vectorises), then each pixel pair's; one pass of four measured ~1.7x
    // slower.
    const RUN: usize = 32;
    let o = g.pooled();
    assert_eq!(x.len(), g.len(), "quad map size");
    write_border(o, out);
    for q in 0..g.quads() {
        for oy in 0..o.h {
            let r0 = &x[g.at(q, 2 * oy, 0)..][..2 * o.w * QUAD];
            let r1 = &x[g.at(q, 2 * oy + 1, 0)..][..2 * o.w * QUAD];
            let dst = &mut out[o.at(q, oy, 0)..][..o.w * QUAD];
            let runs = r0.chunks(2 * RUN * QUAD).zip(r1.chunks(2 * RUN * QUAD));
            for (d, (a, b)) in dst.chunks_mut(RUN * QUAD).zip(runs) {
                let mut v = [0u8; 2 * RUN * QUAD];
                for ((v, &a), &b) in v.iter_mut().zip(a).zip(b) {
                    *v = (a as u8).max(b as u8);
                }
                let pairs = v.as_chunks::<{ 2 * QUAD }>().0;
                for (d, p) in d.as_chunks_mut::<QUAD>().0.iter_mut().zip(pairs) {
                    *d = std::array::from_fn(|l| p[l].max(p[QUAD + l]) as i8);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::maxpool2x2_into;
    use crate::shape::Shape4;

    /// Packing then unpacking gives the image back for any slot layout, the
    /// border and the unused lanes read `0x80`, and the pool of the map is
    /// the map of the `i8` pool.
    #[test]
    fn pack_unpack_and_pool_agree_with_nchw() {
        let (h, w) = (5, 7);
        // A concat of 3 and 2 channels: slots 0..3 and 4..6 of 8.
        let slots = [0, 1, 2, 4, 5];
        let g = QuadMap::new(8, h, w);
        let x: Vec<i8> = (0..slots.len() * h * w).map(|i| (i * 37 % 256) as u8 as i8).collect();
        let mut map = vec![1i8; g.len()];
        pack_nchw(&x, &slots, g, &mut map);
        let mut back = vec![0i8; x.len()];
        unpack_nchw(&map, g, &slots, &mut back);
        assert_eq!(back, x);
        for q in 0..g.quads() {
            for y in 0..h + 2 {
                for xx in 0..w + 2 {
                    let px = &map[q * g.plane() + (y * (w + 2) + xx) * QUAD..][..QUAD];
                    let inside = (1..=h).contains(&y) && (1..=w).contains(&xx);
                    for (l, &v) in px.iter().enumerate() {
                        let used = inside && slots.contains(&(QUAD * q + l));
                        assert!(used || v == ZERO, "q{q} ({y}, {xx}) lane {l}: {v:#x}");
                    }
                }
            }
        }
        let s = Shape4::new(1, slots.len(), h, w);
        let mut want = vec![0i8; s.pooled2x2().len()];
        maxpool2x2_into(s, &x, &mut want);
        let mut pooled = vec![0i8; g.pooled().len()];
        maxpool2x2_quads(g, &map, &mut pooled);
        let mut got = vec![0i8; want.len()];
        unpack_nchw(&pooled, g.pooled(), &slots, &mut got);
        assert_eq!(got, want);
    }
}
