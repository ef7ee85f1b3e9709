//! Acquisition scenarios: dose, slice thickness and field of view.
//!
//! The robustness suite evaluates every model on *distributions the
//! calibration set never saw*. A [`Scenario`] perturbs the acquisition, not
//! the model input pipeline: dose scales the rasteriser's HU noise (quarter
//! dose doubles sigma, the usual `1/sqrt(dose)` photon-statistics law), FOV
//! shrinks the reconstructed in-plane extent at the same matrix size, and
//! slice thickness merges adjacent axial slices (z partial-volume
//! averaging, with the label majority vote resolving ties to the lowest
//! label exactly like [`crate::preprocess::downsample`]).
//!
//! Scenarios apply **at rasterization**, before stage-A preprocessing, so
//! the FP32 baseline and every quantized deployment see bit-identical
//! inputs for a given `(anatomy, scenario, seed)` — the measured Dice gap
//! is attributable to quantization, never to input jitter.

use crate::anatomy::Anatomy;
use crate::phantom::{rasterize, RasterConfig};
use crate::preprocess::majority_label;
use crate::volume::Volume;
use serde::{Deserialize, Serialize};

/// One acquisition scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Relative tube current (1 = the nominal acquisition the training and
    /// calibration sets were drawn from). Noise sigma scales `1/sqrt(dose)`.
    pub dose: f32,
    /// Axial slices merged into one (1 = native thickness).
    pub slice_thickness: usize,
    /// In-plane field of view as a fraction of the full body frame
    /// (1 = full FOV; 0.8 reconstructs the central 80% at the same matrix).
    pub fov: f32,
}

impl Scenario {
    /// The nominal acquisition: full dose, native thickness, full FOV.
    /// Volumes rasterised under it are bit-identical to the healthy
    /// pipeline's output.
    pub fn nominal() -> Self {
        Self { dose: 1.0, slice_thickness: 1, fov: 1.0 }
    }

    /// Noise sigma multiplier implied by the dose (`1/sqrt(dose)`).
    pub fn noise_scale(&self) -> f32 {
        assert!(self.dose > 0.0, "dose must be positive");
        1.0 / self.dose.sqrt()
    }

    /// Compact scenario key, e.g. `d100_t1_f100` for the nominal scan.
    pub fn name(&self) -> String {
        format!(
            "d{:03}_t{}_f{:03}",
            (self.dose * 100.0).round() as u32,
            self.slice_thickness,
            (self.fov * 100.0).round() as u32
        )
    }
}

/// A full factorial grid over dose, slice thickness and FOV.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioGrid {
    /// Relative doses to sweep (include 1.0 for the in-distribution corner).
    pub doses: Vec<f32>,
    /// Slice-merge factors to sweep.
    pub thicknesses: Vec<usize>,
    /// FOV fractions to sweep.
    pub fovs: Vec<f32>,
}

impl ScenarioGrid {
    /// The grid used by the recorded robustness experiment: 3 doses x
    /// 2 thicknesses x 2 FOVs, anchored at the nominal corner.
    pub fn paper_default() -> Self {
        Self { doses: vec![1.0, 0.5, 0.25], thicknesses: vec![1, 2], fovs: vec![1.0, 0.85] }
    }

    /// All scenarios in row-major (dose, thickness, fov) order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        assert!(
            !self.doses.is_empty() && !self.thicknesses.is_empty() && !self.fovs.is_empty(),
            "empty scenario grid axis"
        );
        let mut out =
            Vec::with_capacity(self.doses.len() * self.thicknesses.len() * self.fovs.len());
        for &dose in &self.doses {
            for &slice_thickness in &self.thicknesses {
                for &fov in &self.fovs {
                    out.push(Scenario { dose, slice_thickness, fov });
                }
            }
        }
        out
    }
}

/// Rasterises `anatomy` under a scenario. With [`Scenario::nominal`] this is
/// exactly [`rasterize`] with `base` — bit for bit.
pub fn rasterize_scenario(
    anatomy: &Anatomy,
    base: &RasterConfig,
    scenario: &Scenario,
    seed: u64,
    patient_id: usize,
) -> Volume {
    assert!(scenario.slice_thickness >= 1, "slice thickness must be >= 1");
    let cfg = RasterConfig {
        noise_scale: base.noise_scale * scenario.noise_scale(),
        fov: base.fov * scenario.fov,
        ..*base
    };
    let vol = rasterize(anatomy, &cfg, seed, patient_id);
    if scenario.slice_thickness == 1 {
        vol
    } else {
        apply_slice_thickness(&vol, scenario.slice_thickness)
    }
}

/// Merges groups of `t` adjacent axial slices: HU is averaged (z
/// partial-volume), labels take the per-voxel majority across the group
/// (ties to the lowest label), the lesion mask ORs. A trailing partial
/// group is kept and averaged over its actual members.
pub fn apply_slice_thickness(vol: &Volume, t: usize) -> Volume {
    assert!(t >= 1, "slice thickness must be >= 1");
    if t == 1 {
        return vol.clone();
    }
    let n = vol.slice_len();
    let depth = vol.depth.div_ceil(t);
    let mut out = Volume::air(vol.width, vol.height, depth, vol.patient_id);
    let has_lesions = !vol.lesion.is_empty();
    if has_lesions {
        out.lesion = vec![0u8; n * depth];
    }
    for zo in 0..depth {
        let z_first = zo * t;
        let z_last = (z_first + t).min(vol.depth);
        let inv = 1.0 / (z_last - z_first) as f32;
        for i in 0..n {
            let mut acc = 0.0f32;
            let mut counts = [0u16; 7];
            let mut lesion = 0u8;
            for z in z_first..z_last {
                let v = z * n + i;
                acc += vol.hu[v];
                let l = vol.labels[v];
                debug_assert!(l <= 6, "corrupted volume: label {l} out of range (0..=6)");
                counts[l as usize] += 1;
                if has_lesions && vol.lesion[v] != 0 {
                    lesion = 1;
                }
            }
            out.hu[zo * n + i] = acc * inv;
            out.labels[zo * n + i] = majority_label(&counts);
            if has_lesions {
                out.lesion[zo * n + i] = lesion;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathology::seed_lesions;
    use rand::SeedableRng;

    fn anatomy(seed: u64) -> Anatomy {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Anatomy::sample(&mut rng)
    }

    fn base_cfg() -> RasterConfig {
        RasterConfig { size: 64, z_range: (0.0, 1.0), slices: 24, ..RasterConfig::default() }
    }

    #[test]
    fn nominal_scenario_is_bit_identical_to_plain_rasterization() {
        let a = anatomy(11);
        let plain = rasterize(&a, &base_cfg(), 42, 1);
        let nominal = rasterize_scenario(&a, &base_cfg(), &Scenario::nominal(), 42, 1);
        assert_eq!(plain.hu, nominal.hu);
        assert_eq!(plain.labels, nominal.labels);
    }

    #[test]
    fn scenario_rasterization_is_deterministic() {
        // Same (anatomy, scenario, seed) -> bit-identical volumes,
        // lesions included (extends rasterize_is_deterministic in phantom).
        let mut a = anatomy(12);
        let mut lrng = rand::rngs::StdRng::seed_from_u64(99);
        a.lesions = seed_lesions(&a, &mut lrng);
        let sc = Scenario { dose: 0.25, slice_thickness: 2, fov: 0.85 };
        let v1 = rasterize_scenario(&a, &base_cfg(), &sc, 7, 2);
        let v2 = rasterize_scenario(&a, &base_cfg(), &sc, 7, 2);
        assert_eq!(v1.hu, v2.hu);
        assert_eq!(v1.labels, v2.labels);
        assert_eq!(v1.lesion, v2.lesion);
    }

    #[test]
    fn low_dose_raises_noise() {
        let a = anatomy(13);
        let full = rasterize_scenario(&a, &base_cfg(), &Scenario::nominal(), 5, 0);
        let quarter = rasterize_scenario(
            &a,
            &base_cfg(),
            &Scenario { dose: 0.25, ..Scenario::nominal() },
            5,
            0,
        );
        let half = rasterize_scenario(
            &a,
            &base_cfg(),
            &Scenario { dose: 0.5, ..Scenario::nominal() },
            5,
            0,
        );
        // Same labels (noise never moves anatomy).
        assert_eq!(full.labels, quarter.labels);
        // Dose only rescales the (identically seeded) noise field, so the
        // voxelwise deviation from nominal grows like `noise_scale - 1`:
        // quarter dose deviates (2-1)/(sqrt2-1) = 2.41x more than half dose.
        let dev = |v: &Volume| {
            v.hu.iter().zip(&full.hu).map(|(a, b)| (a - b).abs()).sum::<f32>() / v.hu.len() as f32
        };
        let (dq, dh) = (dev(&quarter), dev(&half));
        assert!(dq > 0.0 && dh > 0.0, "dose change must perturb HU");
        assert!(dq > dh * 2.0, "quarter-dose deviation {dq} !> 2x half-dose {dh}");
        assert_eq!(Scenario { dose: 0.25, ..Scenario::nominal() }.noise_scale(), 2.0);
    }

    #[test]
    fn reduced_fov_zooms_into_the_body() {
        let a = anatomy(14);
        // Zooming into the centre makes the body fill more of the matrix:
        // strictly fewer air voxels on the mid slice, same matrix size.
        let sc = Scenario { fov: 0.6, ..Scenario::nominal() };
        let zoomed = rasterize_scenario(&a, &base_cfg(), &sc, 5, 0);
        let full = rasterize_scenario(&a, &base_cfg(), &Scenario::nominal(), 5, 0);
        let mid = zoomed.depth / 2;
        let air = |v: &Volume| {
            let s = mid * v.slice_len();
            v.hu[s..s + v.slice_len()].iter().filter(|&&h| h < -700.0).count()
        };
        let (az, af) = (air(&zoomed), air(&full));
        assert!(af > 0, "full-FOV mid slice must contain air");
        assert!(az < af, "zoomed air {az} !< full-FOV air {af}");
        // Zoom does not change the matrix size.
        assert_eq!(zoomed.width, full.width);
        assert_eq!(zoomed.depth, full.depth);
    }

    #[test]
    fn slice_thickness_merges_depth_and_averages_hu() {
        let a = anatomy(15);
        let native = rasterize_scenario(&a, &base_cfg(), &Scenario::nominal(), 9, 3);
        let thick = rasterize_scenario(
            &a,
            &base_cfg(),
            &Scenario { slice_thickness: 2, ..Scenario::nominal() },
            9,
            3,
        );
        assert_eq!(thick.depth, native.depth.div_ceil(2));
        // First merged voxel is the mean of the native pair.
        let expect = (native.hu[0] + native.hu[native.slice_len()]) / 2.0;
        assert!((thick.hu[0] - expect).abs() < 1e-5);
    }

    #[test]
    fn thickness_vote_ties_go_to_the_lowest_label() {
        let mut v = Volume::air(2, 1, 2, 0);
        v.labels = vec![5, 0, 3, 4];
        let t = apply_slice_thickness(&v, 2);
        assert_eq!(t.depth, 1);
        // Voxel 0: {5, 3} tie -> 3; voxel 1: {0, 4} tie -> 0.
        assert_eq!(t.labels, vec![3, 0]);
    }

    #[test]
    fn grid_enumerates_the_full_factorial() {
        let grid = ScenarioGrid::paper_default();
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 12);
        assert!(scenarios.contains(&Scenario::nominal()));
        // Names are unique keys.
        let names: std::collections::HashSet<String> = scenarios.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), scenarios.len());
        assert_eq!(Scenario::nominal().name(), "d100_t1_f100");
    }

    #[test]
    fn lesions_survive_the_scenario_pipeline() {
        let sc = Scenario { dose: 0.5, slice_thickness: 1, fov: 0.9 };
        let mut lesion_bearing = 0;
        for seed in 0..4 {
            let mut a = anatomy(16 + seed);
            let mut lrng = rand::rngs::StdRng::seed_from_u64(3 + seed);
            a.lesions = seed_lesions(&a, &mut lrng);
            let v = rasterize_scenario(&a, &base_cfg(), &sc, 21, 4);
            if v.lesion_voxels() == 0 {
                continue;
            }
            lesion_bearing += 1;
            // Lesion voxels are folded into organ labels, never a new label.
            // (Only guaranteed at native thickness — z-merging ORs the mask
            // but majority-votes the labels, so merged boundary voxels may
            // differ.)
            for (i, &m) in v.lesion.iter().enumerate() {
                if m != 0 {
                    assert!((1..=5).contains(&v.labels[i]), "lesion voxel label {}", v.labels[i]);
                }
            }
            // The mask survives z-merging too (OR semantics).
            let thick = apply_slice_thickness(&v, 2);
            assert!(thick.lesion_voxels() > 0);
            assert!(thick.lesion_voxels() <= v.lesion_voxels());
        }
        assert!(lesion_bearing > 0, "no lesion voxel rasterised over 4 patients");
    }
}
