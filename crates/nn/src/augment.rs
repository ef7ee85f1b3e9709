//! Training-time data augmentation for 2-D CT slices.
//!
//! Standard geometric/intensity augmentations for medical segmentation:
//! horizontal flips (anatomically plausible for the near-symmetric trunk),
//! small translations, smooth elastic deformation (the classic coarse
//! displacement grid, bilinearly upsampled), intensity scale/shift jitter
//! and Gaussian noise. Labels follow geometric transforms exactly (nearest
//! neighbour for elastic); intensity transforms leave them untouched. The
//! policy is one set of constants, like the CT-ORG authors' own pipeline;
//! [`crate::train::TrainConfig::augment`] only switches it on or off.
//!
//! For the training loop use [`Augmenter`]: it keeps scratch buffers across
//! calls and mutates samples in place — the flip is a true in-place column
//! swap, translation and elastic reuse one scratch image/label pair, and
//! intensity jitter writes through, so steady-state augmentation performs
//! no allocation at all.

use crate::train::Sample;
use rand::Rng;

/// Probability of a horizontal (left-right) flip.
pub const FLIP_PROB: f64 = 0.5;
/// Maximum |shift| in pixels along each axis (zero-padded).
pub const MAX_SHIFT: isize = 4;
/// Intensity scale jitter: factor drawn from `1 ± SCALE_JITTER`.
pub const SCALE_JITTER: f32 = 0.05;
/// Intensity shift jitter: offset drawn from `± SHIFT_JITTER`.
pub const SHIFT_JITTER: f32 = 0.05;
/// Additive Gaussian noise sigma (post-normalisation units).
pub const NOISE_SIGMA: f32 = 0.02;
/// Probability of applying an elastic deformation.
pub const ELASTIC_PROB: f64 = 0.3;
/// Maximum |displacement| of an elastic grid node, in pixels.
pub const ELASTIC_ALPHA: f32 = 2.5;
/// Spacing of the coarse elastic displacement grid, in pixels.
pub const ELASTIC_GRID: usize = 8;

/// Smooth elastic deformation: random displacements on a coarse `grid`-px
/// lattice (uniform in `±alpha` px), bilinearly upsampled to a per-pixel
/// warp field. The image is sampled bilinearly (out-of-bounds reads air),
/// labels nearest-neighbour so classes never blend.
pub fn elastic_deform<R: Rng>(s: &Sample, alpha: f32, grid: usize, rng: &mut R) -> Sample {
    let mut out = s.clone();
    Augmenter::new().elastic_in_place(&mut out, alpha, grid, rng);
    out
}

/// Applies the policy to one sample (convenience wrapper over
/// [`Augmenter`], which is what the training loop uses).
pub fn augment<R: Rng>(s: &Sample, rng: &mut R) -> Sample {
    let mut out = s.clone();
    Augmenter::new().apply(&mut out, rng);
    out
}

/// Reusable in-place augmentation engine.
///
/// Holds the scratch image/label pair and the elastic node buffers, so a
/// training loop pays for their allocation once and then augments every
/// sample of every epoch without touching the allocator.
#[derive(Debug, Clone, Default)]
pub struct Augmenter {
    scratch_img: Vec<f32>,
    scratch_lab: Vec<u8>,
    node_dx: Vec<f32>,
    node_dy: Vec<f32>,
}

impl Augmenter {
    /// Creates an engine (scratch grows lazily to the slice size).
    pub fn new() -> Self {
        Self::default()
    }

    /// Augments `s` in place: flip, shift, elastic warp, then intensity
    /// jitter. Deterministic given the RNG state.
    pub fn apply<R: Rng>(&mut self, s: &mut Sample, rng: &mut R) {
        if rng.gen_bool(FLIP_PROB) {
            flip_horizontal_in_place(s);
        }
        let (dx, dy) =
            (rng.gen_range(-MAX_SHIFT..=MAX_SHIFT), rng.gen_range(-MAX_SHIFT..=MAX_SHIFT));
        if dx != 0 || dy != 0 {
            self.translate_in_place(s, dx, dy);
        }
        if rng.gen_bool(ELASTIC_PROB) {
            self.elastic_in_place(s, ELASTIC_ALPHA, ELASTIC_GRID, rng);
        }
        jitter_intensity(s, rng);
    }

    fn translate_in_place(&mut self, s: &mut Sample, dx: isize, dy: isize) {
        let shape = s.image.shape();
        let (h, w) = (shape.h as isize, shape.w as isize);
        let n = (h * w) as usize;
        self.scratch_img.clear();
        self.scratch_img.resize(n, -1.0); // air after [-1,1] rescale
        self.scratch_lab.clear();
        self.scratch_lab.resize(n, 0);
        let img = s.image.data();
        for y in 0..h {
            let sy = y - dy;
            if sy < 0 || sy >= h {
                continue;
            }
            for x in 0..w {
                let sx = x - dx;
                if sx >= 0 && sx < w {
                    self.scratch_img[(y * w + x) as usize] = img[(sy * w + sx) as usize];
                    self.scratch_lab[(y * w + x) as usize] = s.labels[(sy * w + sx) as usize];
                }
            }
        }
        s.image.data_mut().copy_from_slice(&self.scratch_img);
        s.labels.copy_from_slice(&self.scratch_lab);
    }

    fn elastic_in_place<R: Rng>(&mut self, s: &mut Sample, alpha: f32, grid: usize, rng: &mut R) {
        assert!(grid >= 2, "elastic grid spacing must be >= 2 px");
        assert!(alpha >= 0.0, "elastic amplitude must be non-negative");
        let shape = s.image.shape();
        let (h, w) = (shape.h, shape.w);
        let n = h * w;
        // Coarse node lattice covering [0, w) x [0, h) with one extra node
        // past each border so every pixel has four surrounding nodes.
        let gw = (w - 1) / grid + 2;
        let gh = (h - 1) / grid + 2;
        self.node_dx.clear();
        self.node_dy.clear();
        for _ in 0..gw * gh {
            self.node_dx.push(rng.gen_range(-alpha..=alpha));
            self.node_dy.push(rng.gen_range(-alpha..=alpha));
        }
        self.scratch_img.clear();
        self.scratch_img.resize(n, -1.0);
        self.scratch_lab.clear();
        self.scratch_lab.resize(n, 0);
        let img = s.image.data();
        for y in 0..h {
            let gy = y as f32 / grid as f32;
            let iy = gy as usize; // floor (gy >= 0)
            let fy = gy - iy as f32;
            for x in 0..w {
                let gx = x as f32 / grid as f32;
                let ix = gx as usize;
                let fx = gx - ix as f32;
                let node = |f: &[f32]| {
                    let a = f[iy * gw + ix];
                    let b = f[iy * gw + ix + 1];
                    let c = f[(iy + 1) * gw + ix];
                    let d = f[(iy + 1) * gw + ix + 1];
                    a * (1.0 - fx) * (1.0 - fy)
                        + b * fx * (1.0 - fy)
                        + c * (1.0 - fx) * fy
                        + d * fx * fy
                };
                let sx = x as f32 + node(&self.node_dx);
                let sy = y as f32 + node(&self.node_dy);
                let i = y * w + x;
                // Labels: nearest neighbour, background outside.
                let (rx, ry) = (sx.round(), sy.round());
                if rx >= 0.0 && ry >= 0.0 && (rx as usize) < w && (ry as usize) < h {
                    self.scratch_lab[i] = s.labels[ry as usize * w + rx as usize];
                }
                // Image: bilinear, air outside.
                if sx >= 0.0 && sy >= 0.0 && sx <= (w - 1) as f32 && sy <= (h - 1) as f32 {
                    let (x0, y0) = (sx as usize, sy as usize);
                    let (x1, y1) = ((x0 + 1).min(w - 1), (y0 + 1).min(h - 1));
                    let (tx, ty) = (sx - x0 as f32, sy - y0 as f32);
                    let v = img[y0 * w + x0] * (1.0 - tx) * (1.0 - ty)
                        + img[y0 * w + x1] * tx * (1.0 - ty)
                        + img[y1 * w + x0] * (1.0 - tx) * ty
                        + img[y1 * w + x1] * tx * ty;
                    self.scratch_img[i] = v;
                }
            }
        }
        s.image.data_mut().copy_from_slice(&self.scratch_img);
        s.labels.copy_from_slice(&self.scratch_lab);
    }
}

/// Horizontal flip without allocating: swaps columns of both the image and
/// the label map.
pub fn flip_horizontal_in_place(s: &mut Sample) {
    let shape = s.image.shape();
    let (h, w) = (shape.h, shape.w);
    let img = s.image.data_mut();
    for y in 0..h {
        let row = y * w;
        for x in 0..w / 2 {
            img.swap(row + x, row + w - 1 - x);
            s.labels.swap(row + x, row + w - 1 - x);
        }
    }
}

/// Intensity jitter: one scale (`1 ± SCALE_JITTER`) and offset
/// (`± SHIFT_JITTER`) per sample, Gaussian noise (`NOISE_SIGMA`) per pixel,
/// clamped to the preprocessed `[-1, 1]` range. Labels are untouched.
fn jitter_intensity<R: Rng>(s: &mut Sample, rng: &mut R) {
    let scale = 1.0 + rng.gen_range(-SCALE_JITTER..=SCALE_JITTER);
    let shift = rng.gen_range(-SHIFT_JITTER..=SHIFT_JITTER);
    for v in s.image.data_mut() {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let noise = NOISE_SIGMA * (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
        *v = (*v * scale + shift + noise).clamp(-1.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seneca_tensor::{Shape4, Tensor};

    fn sample() -> Sample {
        let mut image = Tensor::zeros(Shape4::new(1, 1, 4, 4));
        let mut labels = vec![0u8; 16];
        *image.at_mut(0, 0, 1, 0) = 0.8;
        labels[4] = 3;
        Sample { image, labels }
    }

    #[test]
    fn flip_is_involutive() {
        let s = sample();
        let mut t = s.clone();
        flip_horizontal_in_place(&mut t);
        assert_eq!(t.image.at(0, 0, 1, 3), 0.8);
        assert_eq!(t.labels[4 + 3], 3);
        flip_horizontal_in_place(&mut t);
        assert_eq!(t.image, s.image);
        assert_eq!(t.labels, s.labels);
    }

    #[test]
    fn translate_moves_content_and_pads_with_air() {
        let mut t = sample();
        Augmenter::new().translate_in_place(&mut t, 2, 1);
        assert_eq!(t.image.at(0, 0, 2, 2), 0.8);
        assert_eq!(t.labels[2 * 4 + 2], 3);
        // Vacated corner is air / background.
        assert_eq!(t.image.at(0, 0, 0, 0), -1.0);
        assert_eq!(t.labels[0], 0);
    }

    #[test]
    fn intensity_jitter_leaves_labels_alone() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let s = sample();
        let mut a = s.clone();
        jitter_intensity(&mut a, &mut rng);
        // No geometric change: labels identical even though intensities moved.
        assert_eq!(a.labels, s.labels);
        assert_ne!(a.image, s.image);
    }

    #[test]
    fn augmented_values_stay_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let s = sample();
        for _ in 0..20 {
            let a = augment(&s, &mut rng);
            assert!(a.image.data().iter().all(|v| (-1.0..=1.0).contains(v)));
            assert!(a.labels.iter().all(|&l| l <= 6));
        }
    }

    #[test]
    fn elastic_is_deterministic_and_identity_at_zero_amplitude() {
        let mut img = Tensor::zeros(Shape4::new(1, 1, 16, 16));
        let mut labels = vec![0u8; 256];
        for y in 0..16 {
            for x in 0..16 {
                *img.at_mut(0, 0, y, x) = (x as f32 - 8.0) / 8.0;
                labels[y * 16 + x] = ((x > 4 && x < 12 && y > 4 && y < 12) as u8) * 3;
            }
        }
        let s = Sample { image: img, labels };
        let mut r1 = rand::rngs::StdRng::seed_from_u64(11);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(11);
        let a = elastic_deform(&s, 2.0, 4, &mut r1);
        let b = elastic_deform(&s, 2.0, 4, &mut r2);
        assert_eq!(a.image, b.image);
        assert_eq!(a.labels, b.labels);
        // Zero amplitude: exact identity (bilinear weights collapse).
        let mut r3 = rand::rngs::StdRng::seed_from_u64(12);
        let id = elastic_deform(&s, 0.0, 4, &mut r3);
        assert_eq!(id.labels, s.labels);
        for (a, b) in id.image.data().iter().zip(s.image.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn augmenter_reuses_scratch_and_matches_the_wrapper() {
        let mut aug = Augmenter::new();
        for seed in 0..4 {
            let s = sample();
            let mut r1 = rand::rngs::StdRng::seed_from_u64(seed);
            let mut r2 = rand::rngs::StdRng::seed_from_u64(seed);
            let via_fn = augment(&s, &mut r1);
            let mut via_engine = s.clone();
            aug.apply(&mut via_engine, &mut r2);
            assert_eq!(via_fn.image, via_engine.image, "seed {seed}");
            assert_eq!(via_fn.labels, via_engine.labels, "seed {seed}");
        }
    }
}
