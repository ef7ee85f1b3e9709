//! The synthetic 140-patient cohort standing in for CT-ORG.
//!
//! Volumes are generated lazily and deterministically from `(COHORT_SEED,
//! patient_id)`, so experiments never need the whole cohort in memory.
//! Like CT-ORG, the cohort mixes chest-only and total-body acquisitions;
//! only a small fraction of total-body scans include the head, which is what
//! makes the brain label massively under-represented (Table I: 0.18%). The
//! scan mix and the partial-volume blur are properties of the dataset, so
//! they are constants; a cohort's settings are its size and resolution.

use crate::anatomy::Anatomy;
use crate::pathology::seed_lesions;
use crate::phantom::RasterConfig;
use crate::scenario::{rasterize_scenario, Scenario};
use crate::volume::{Slice2d, Volume};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Acquisition coverage of one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanKind {
    /// Chest-only: apex of the lungs to the upper liver.
    ChestOnly,
    /// Shoulders to pelvis (most "total-body" CT-ORG scans).
    TotalBody,
    /// Head to pelvis (rare; the only scans containing the brain).
    TotalBodyWithHead,
}

impl ScanKind {
    /// Longitudinal extent in normalized z.
    pub fn z_range(self) -> (f32, f32) {
        match self {
            ScanKind::ChestOnly => (0.0, 0.55),
            ScanKind::TotalBody => (0.0, 1.0),
            ScanKind::TotalBodyWithHead => (-0.25, 1.0),
        }
    }
}

/// Dataset split membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitKind {
    /// Training patients (~70%).
    Train,
    /// Validation patients (~15%).
    Val,
    /// Held-out test patients (~15%).
    Test,
}

/// Master seed of the cohort: anatomy, lesions and acquisition noise.
pub const COHORT_SEED: u64 = 0x5EED_C70E;
/// Fraction of chest-only scans.
pub const CHEST_ONLY_FRACTION: f64 = 0.35;
/// Fraction of *all* scans that include the head.
pub const HEAD_FRACTION: f64 = 0.025;

/// Cohort generation settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticCtOrgConfig {
    /// Number of patients (CT-ORG has 140).
    pub n_patients: usize,
    /// Raster resolution (the real dataset is 512x512; smaller values trade
    /// fidelity for speed and are used by tests).
    pub slice_size: usize,
    /// Slices generated per unit of normalized z.
    pub slices_per_unit_z: f32,
}

impl Default for SyntheticCtOrgConfig {
    fn default() -> Self {
        Self { n_patients: 140, slice_size: 128, slices_per_unit_z: 56.0 }
    }
}

/// The synthetic cohort.
#[derive(Debug, Clone)]
pub struct SyntheticCtOrg {
    /// Generation settings.
    pub config: SyntheticCtOrgConfig,
}

impl SyntheticCtOrg {
    /// Creates a cohort handle (no volumes generated yet).
    pub fn new(config: SyntheticCtOrgConfig) -> Self {
        Self { config }
    }

    /// Per-patient RNG.
    fn patient_rng(&self, patient_id: usize) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(
            COHORT_SEED.wrapping_mul(0x100_0000_01B3) ^ patient_id as u64,
        )
    }

    /// The acquisition kind of a patient (deterministic).
    pub fn scan_kind(&self, patient_id: usize) -> ScanKind {
        let mut rng = self.patient_rng(patient_id);
        let u: f64 = rng.gen();
        if u < HEAD_FRACTION {
            ScanKind::TotalBodyWithHead
        } else if u < HEAD_FRACTION + CHEST_ONLY_FRACTION {
            ScanKind::ChestOnly
        } else {
            ScanKind::TotalBody
        }
    }

    /// Split membership (~71/14/14 by patient id, deterministic; modulo 7
    /// so even small test cohorts keep all three splits populated).
    pub fn split(&self, patient_id: usize) -> SplitKind {
        match patient_id % 7 {
            0..=4 => SplitKind::Train,
            5 => SplitKind::Val,
            _ => SplitKind::Test,
        }
    }

    /// Patient ids belonging to a split.
    pub fn patients(&self, split: SplitKind) -> Vec<usize> {
        (0..self.config.n_patients).filter(|&id| self.split(id) == split).collect()
    }

    /// Generates the full volume of one patient (healthy, nominal
    /// acquisition — this is what training and calibration see).
    pub fn volume(&self, patient_id: usize) -> Volume {
        self.scenario_volume(patient_id, &Scenario::nominal(), false)
    }

    /// Generates one patient under an acquisition [`Scenario`], with seeded
    /// lesions ([`crate::pathology`]) when `lesions` is set.
    /// `(Scenario::nominal(), false)` reproduces [`Self::volume`] bit for
    /// bit: lesion seeding uses its own RNG stream
    /// (`COHORT_SEED ^ 0x1E51_0000 ^ patient_id`), so healthy anatomy
    /// sampling is untouched, and nominal scenario multipliers are exact 1.0s.
    pub fn scenario_volume(&self, patient_id: usize, scenario: &Scenario, lesions: bool) -> Volume {
        assert!(patient_id < self.config.n_patients, "patient {patient_id} out of cohort");
        let mut rng = self.patient_rng(patient_id);
        let _ = rng.gen::<f64>(); // consumed by scan_kind
        let mut anatomy = Anatomy::sample(&mut rng);
        if lesions {
            let mut lrng =
                rand::rngs::StdRng::seed_from_u64(COHORT_SEED ^ 0x1E51_0000 ^ patient_id as u64);
            anatomy.lesions = seed_lesions(&anatomy, &mut lrng);
        }
        let kind = self.scan_kind(patient_id);
        let (z0, z1) = kind.z_range();
        let slices = ((z1 - z0) * self.config.slices_per_unit_z).round().max(8.0) as usize;
        rasterize_scenario(
            &anatomy,
            &RasterConfig {
                size: self.config.slice_size,
                z_range: (z0, z1),
                slices,
                ..RasterConfig::default()
            },
            scenario,
            COHORT_SEED ^ 0xABCD,
            patient_id,
        )
    }

    /// Extracts every `stride`-th slice of every patient in `split`
    /// (raw HU slices — apply [`crate::preprocess`] before training).
    pub fn slices(&self, split: SplitKind, stride: usize) -> Vec<Slice2d> {
        assert!(stride >= 1);
        let mut out = Vec::new();
        for id in self.patients(split) {
            let vol = self.volume(id);
            for z in (0..vol.depth).step_by(stride) {
                out.push(vol.slice(z));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::Organ;

    fn tiny_cohort() -> SyntheticCtOrg {
        SyntheticCtOrg::new(SyntheticCtOrgConfig {
            n_patients: 20,
            slice_size: 48,
            slices_per_unit_z: 24.0,
        })
    }

    #[test]
    fn splits_partition_the_cohort() {
        let ds = tiny_cohort();
        let train = ds.patients(SplitKind::Train);
        let val = ds.patients(SplitKind::Val);
        let test = ds.patients(SplitKind::Test);
        assert_eq!(train.len() + val.len() + test.len(), 20);
        assert_eq!(train.len(), 15);
        assert_eq!(val.len(), 3);
        assert_eq!(test.len(), 2);
        for id in &train {
            assert!(!val.contains(id) && !test.contains(id));
        }
    }

    #[test]
    fn volumes_are_deterministic() {
        let ds = tiny_cohort();
        let a = ds.volume(3);
        let b = ds.volume(3);
        assert_eq!(a.hu, b.hu);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn scan_kind_controls_depth() {
        let ds = tiny_cohort();
        for id in 0..20 {
            let vol = ds.volume(id);
            let kind = ds.scan_kind(id);
            let (z0, z1) = kind.z_range();
            let expect = ((z1 - z0) * 24.0).round().max(8.0) as usize;
            assert_eq!(vol.depth, expect, "patient {id} kind {kind:?}");
        }
    }

    #[test]
    fn chest_only_scans_have_no_bladder() {
        let ds = tiny_cohort();
        for id in 0..20 {
            if ds.scan_kind(id) == ScanKind::ChestOnly {
                let h = ds.volume(id).label_histogram();
                assert_eq!(h[Organ::Bladder.label() as usize], 0, "patient {id}");
                assert!(h[Organ::Lungs.label() as usize] > 0, "patient {id}");
            }
        }
    }

    #[test]
    fn brain_only_in_head_scans() {
        // Head scans are rare (HEAD_FRACTION): pick them by scan kind from a
        // large cohort, and check them alongside the first 40 patients.
        let ds = SyntheticCtOrg::new(SyntheticCtOrgConfig {
            n_patients: 400,
            slice_size: 48,
            slices_per_unit_z: 24.0,
        });
        let head: Vec<usize> =
            (0..400).filter(|&id| ds.scan_kind(id) == ScanKind::TotalBodyWithHead).collect();
        assert!(!head.is_empty(), "cohort draw produced no head scans");
        for id in head.into_iter().chain(0..40) {
            let has_brain = ds.volume(id).label_histogram()[Organ::Brain.label() as usize] > 0;
            let is_head = ds.scan_kind(id) == ScanKind::TotalBodyWithHead;
            assert_eq!(has_brain, is_head, "patient {id}");
        }
    }

    #[test]
    fn slices_iterate_with_stride() {
        let ds = tiny_cohort();
        let all = ds.slices(SplitKind::Test, 1);
        let half = ds.slices(SplitKind::Test, 2);
        assert!(half.len() >= all.len() / 2);
        assert!(half.len() <= all.len() / 2 + ds.patients(SplitKind::Test).len());
    }

    #[test]
    #[should_panic(expected = "out of cohort")]
    fn volume_bounds_checked() {
        let ds = tiny_cohort();
        let _ = ds.volume(99);
    }

    #[test]
    fn nominal_scenario_volume_matches_plain_volume() {
        // volume() delegates to scenario_volume(); the healthy nominal path
        // must stay bit-identical (zoo caches key off these voxels).
        let ds = tiny_cohort();
        let plain = ds.volume(4);
        let nominal = ds.scenario_volume(4, &Scenario::nominal(), false);
        assert_eq!(plain.hu, nominal.hu);
        assert_eq!(plain.labels, nominal.labels);
        assert!(nominal.lesion.is_empty());
    }

    #[test]
    fn pathology_volumes_are_deterministic_and_lesion_bearing() {
        let ds = tiny_cohort();
        let sc = Scenario { dose: 0.5, slice_thickness: 2, fov: 0.9 };
        let a = ds.scenario_volume(7, &sc, true);
        let b = ds.scenario_volume(7, &sc, true);
        assert_eq!(a.hu, b.hu);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.lesion, b.lesion);
        // At least one patient in the cohort rasterises lesion voxels.
        let total: u64 = (0..8)
            .map(|id| ds.scenario_volume(id, &Scenario::nominal(), true).lesion_voxels())
            .sum();
        assert!(total > 0, "no lesion voxels across 8 patients");
    }

    #[test]
    fn pathology_keeps_healthy_label_geometry() {
        // Lesions are folded into organ labels: the label field with
        // pathology is identical to the healthy one (HU differs inside).
        let ds = tiny_cohort();
        let mut sick_patients = 0;
        for id in 0..8 {
            let healthy = ds.volume(id);
            let sick = ds.scenario_volume(id, &Scenario::nominal(), true);
            assert_eq!(healthy.labels, sick.labels, "patient {id}");
            if sick.lesion_voxels() > 0 {
                assert_ne!(healthy.hu, sick.hu, "patient {id}");
                sick_patients += 1;
            }
        }
        assert!(sick_patients > 0, "no lesion voxels across 8 patients");
    }
}
