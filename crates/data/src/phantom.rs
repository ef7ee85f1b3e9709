//! Rasterising an [`Anatomy`] into a [`Volume`].
//!
//! Each slice is rasterised in parallel (rayon); after classification the HU
//! field gets Gaussian noise plus a small in-plane box blur that simulates
//! partial-volume averaging — this is what produces the low-contrast organ
//! borders the paper emphasises.

use crate::anatomy::Anatomy;
use crate::volume::Volume;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Rasterisation settings.
#[derive(Debug, Clone, Copy)]
pub struct RasterConfig {
    /// Slice width/height in voxels (square slices, like CT).
    pub size: usize,
    /// Longitudinal extent covered by the scan, in normalized z.
    pub z_range: (f32, f32),
    /// Number of slices across `z_range`.
    pub slices: usize,
    /// Multiplier on the anatomy's HU noise sigma (1 = nominal dose; a
    /// quarter-dose scan doubles it — see [`crate::scenario`]).
    pub noise_scale: f32,
    /// In-plane field of view: the raster grid spans `[-fov, fov]` in
    /// normalized coordinates (1 = full body; < 1 zooms into the centre at
    /// the same matrix size, like a reduced reconstruction FOV).
    pub fov: f32,
}

impl Default for RasterConfig {
    fn default() -> Self {
        Self { size: 128, z_range: (0.0, 1.0), slices: 56, noise_scale: 1.0, fov: 1.0 }
    }
}

/// Rasterises a patient volume. Deterministic given `(anatomy, cfg, seed)`.
pub fn rasterize(anatomy: &Anatomy, cfg: &RasterConfig, seed: u64, patient_id: usize) -> Volume {
    assert!(cfg.slices >= 1 && cfg.size >= 8, "degenerate raster config");
    assert!(cfg.noise_scale >= 0.0 && cfg.fov > 0.0, "degenerate acquisition settings");
    let mut vol = Volume::air(cfg.size, cfg.size, cfg.slices, patient_id);
    let n = cfg.size;
    let slice_len = n * n;
    let (z0, z1) = cfg.z_range;
    let sigma = anatomy.noise_sigma * cfg.noise_scale;
    let has_lesions = !anatomy.lesions.is_empty();
    if has_lesions {
        vol.lesion = vec![0u8; slice_len * cfg.slices];
    }

    let hu_slices: Vec<(Vec<f32>, Vec<u8>, Vec<u8>)> = (0..cfg.slices)
        .into_par_iter()
        .map(|zi| {
            let z = if cfg.slices == 1 {
                z0
            } else {
                z0 + (z1 - z0) * zi as f32 / (cfg.slices - 1) as f32
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                seed ^ (patient_id as u64) << 32 ^ (zi as u64).wrapping_mul(0x9E37_79B9),
            );
            let mut hu = vec![0.0f32; slice_len];
            let mut labels = vec![0u8; slice_len];
            let mut lesion = if has_lesions { vec![0u8; slice_len] } else { Vec::new() };
            for y in 0..n {
                let ny = ((y as f32 / (n - 1) as f32) * 2.0 - 1.0) * cfg.fov;
                for x in 0..n {
                    let nx = ((x as f32 / (n - 1) as f32) * 2.0 - 1.0) * cfg.fov;
                    let (l, base_hu, in_lesion) = anatomy.classify_voxel(nx, ny, z);
                    labels[y * n + x] = l;
                    if in_lesion {
                        lesion[y * n + x] = 1;
                    }
                    // Box-Muller Gaussian noise.
                    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                    let u2: f32 = rng.gen_range(0.0..1.0);
                    let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                    hu[y * n + x] = base_hu + sigma * g;
                }
            }
            (box_blur3(&hu, n, n), labels, lesion)
        })
        .collect();

    for (zi, (hu, labels, lesion)) in hu_slices.into_iter().enumerate() {
        vol.hu[zi * slice_len..(zi + 1) * slice_len].copy_from_slice(&hu);
        vol.labels[zi * slice_len..(zi + 1) * slice_len].copy_from_slice(&labels);
        if has_lesions {
            vol.lesion[zi * slice_len..(zi + 1) * slice_len].copy_from_slice(&lesion);
        }
    }
    vol
}

/// 3x3 box blur with clamped borders (partial-volume simulation).
pub fn box_blur3(src: &[f32], w: usize, h: usize) -> Vec<f32> {
    assert_eq!(src.len(), w * h);
    let mut out = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for dy in -1i32..=1 {
                let yy = (y as i32 + dy).clamp(0, h as i32 - 1) as usize;
                for dx in -1i32..=1 {
                    let xx = (x as i32 + dx).clamp(0, w as i32 - 1) as usize;
                    acc += src[yy * w + xx];
                }
            }
            out[y * w + x] = acc / 9.0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::Organ;
    use rand::SeedableRng;

    fn small_volume(seed: u64) -> Volume {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let anatomy = Anatomy::sample(&mut rng);
        rasterize(
            &anatomy,
            &RasterConfig {
                size: 64,
                z_range: (-0.25, 1.0),
                slices: 40,
                ..RasterConfig::default()
            },
            seed,
            3,
        )
    }

    #[test]
    fn rasterize_is_deterministic() {
        let a = small_volume(5);
        let b = small_volume(5);
        assert_eq!(a.hu, b.hu);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_volume(5);
        let b = small_volume(6);
        assert_ne!(a.hu, b.hu);
    }

    #[test]
    fn total_body_volume_contains_all_organs() {
        let v = small_volume(7);
        let h = v.label_histogram();
        for organ in Organ::ALL {
            assert!(h[organ.label() as usize] > 0, "{organ} missing");
        }
    }

    #[test]
    fn air_dominates_outside_and_is_dark() {
        let v = small_volume(8);
        // Corner voxel: outside the body, near -1000 HU.
        let corner = v.hu[0];
        assert!(corner < -700.0, "corner {corner}");
    }

    #[test]
    fn blur_softens_label_boundaries() {
        // With blur, HU at a lung/tissue boundary is between the two tissue
        // values rather than bimodal. Check global: lung interior voxels
        // average far below boundary voxels.
        let v = small_volume(9);
        let n = v.width;
        let mut interior = vec![];
        let mut boundary = vec![];
        let lungs = Organ::Lungs.label();
        for z in 0..v.depth {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = (z * n + y) * n + x;
                    if v.labels[i] != lungs {
                        continue;
                    }
                    let neighbours =
                        [v.labels[i - 1], v.labels[i + 1], v.labels[i - n], v.labels[i + n]];
                    if neighbours.iter().all(|&l| l == lungs) {
                        interior.push(v.hu[i]);
                    } else {
                        boundary.push(v.hu[i]);
                    }
                }
            }
        }
        assert!(!interior.is_empty() && !boundary.is_empty());
        let mi: f32 = interior.iter().sum::<f32>() / interior.len() as f32;
        let mb: f32 = boundary.iter().sum::<f32>() / boundary.len() as f32;
        assert!(mb > mi + 30.0, "boundary {mb} vs interior {mi}");
    }

    #[test]
    fn box_blur_preserves_constant_field() {
        let src = vec![5.0f32; 12];
        let out = box_blur3(&src, 4, 3);
        for v in out {
            assert!((v - 5.0).abs() < 1e-6);
        }
    }
}
