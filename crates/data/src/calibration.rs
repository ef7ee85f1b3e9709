//! Calibration-set construction for post-training quantisation (Table III).
//!
//! The Vitis AI quantizer calibrates activation ranges on a small unlabeled
//! set (the paper uses 500 slices). §III-D observes that *random* sampling
//! mirrors the dataset's organ imbalance, letting rare organs (bladder)
//! contribute almost nothing to the calibration — so the authors manually
//! level the frequencies (Table III). [`manual_calibration`] reproduces that
//! with a greedy frequency-matching sampler.

use crate::stats::{FrequencyAccumulator, OrganFrequencies};
use crate::volume::Slice2d;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Table III "Manual Sampling" row: target percentages for
/// liver, bladder, lungs, kidneys, bones.
pub const PAPER_MANUAL_TARGET: [f64; 5] = [21.69, 7.66, 32.02, 6.90, 31.73];

/// A constructed calibration set.
#[derive(Debug, Clone)]
pub struct CalibrationSet {
    /// Selected slices (unlabeled use downstream; labels retained for stats).
    pub slices: Vec<Slice2d>,
    /// Achieved organ frequencies.
    pub frequencies: OrganFrequencies,
}

/// Uniform random sampling of `n` slices (Table III "Random Sampling" row).
pub fn random_calibration(pool: &[Slice2d], n: usize, seed: u64) -> CalibrationSet {
    assert!(!pool.is_empty(), "empty slice pool");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    idx.shuffle(&mut rng);
    let slices: Vec<Slice2d> = idx.into_iter().take(n).map(|i| pool[i].clone()).collect();
    finish(slices)
}

/// Greedy frequency-leveling sampler (Table III "Manual Sampling" row).
///
/// Builds the set one slice at a time; at each step it examines a random
/// candidate window and keeps the slice whose addition brings the running
/// organ distribution closest (L1) to `target_pct` (percent over the five
/// target organs).
pub fn manual_calibration(
    pool: &[Slice2d],
    n: usize,
    target_pct: [f64; 5],
    seed: u64,
) -> CalibrationSet {
    assert!(!pool.is_empty(), "empty slice pool");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut counts = [0u64; 5]; // per target organ (labels 1..=5)
    let mut slices: Vec<Slice2d> = Vec::with_capacity(n);
    let hists: Vec<[u64; 7]> = pool.iter().map(|s| s.label_histogram()).collect();
    let candidates_per_step = 24.min(pool.len());

    for _ in 0..n {
        let mut best: Option<(usize, f64)> = None;
        for _ in 0..candidates_per_step {
            let i = rng.gen_range(0..pool.len());
            let mut c = counts;
            for (k, cv) in c.iter_mut().enumerate() {
                *cv += hists[i][k + 1];
            }
            let total: u64 = c.iter().sum();
            let dist: f64 = (0..5)
                .map(|k| {
                    let pct = 100.0 * c[k] as f64 / total.max(1) as f64;
                    (pct - target_pct[k]).abs()
                })
                .sum();
            if best.is_none_or(|(_, d)| dist < d) {
                best = Some((i, dist));
            }
        }
        let (i, _) = best.expect("candidates_per_step >= 1");
        for (k, cv) in counts.iter_mut().enumerate() {
            *cv += hists[i][k + 1];
        }
        slices.push(pool[i].clone());
    }
    finish(slices)
}

fn finish(slices: Vec<Slice2d>) -> CalibrationSet {
    let mut acc = FrequencyAccumulator::new();
    for s in &slices {
        acc.add_slice(s);
    }
    CalibrationSet { frequencies: acc.finish(), slices }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{SplitKind, SyntheticCtOrg, SyntheticCtOrgConfig};
    use crate::volume::Organ;

    fn pool() -> Vec<Slice2d> {
        let ds = SyntheticCtOrg::new(SyntheticCtOrgConfig {
            n_patients: 24,
            slice_size: 48,
            slices_per_unit_z: 28.0,
        });
        ds.slices(SplitKind::Train, 1)
    }

    #[test]
    fn random_sampling_mirrors_pool_distribution() {
        let pool = pool();
        let mut all = FrequencyAccumulator::new();
        for s in &pool {
            all.add_slice(s);
        }
        let pool_f = all.finish();
        let cal = random_calibration(&pool, 200, 7);
        assert_eq!(cal.slices.len(), 200);
        for organ in Organ::TARGETS {
            let d = (cal.frequencies.of(organ) - pool_f.of(organ)).abs();
            assert!(d < 8.0, "{organ}: {d:.2} pct points off pool distribution");
        }
    }

    #[test]
    fn manual_sampling_raises_rare_organs() {
        let pool = pool();
        let rand_cal = random_calibration(&pool, 150, 1);
        let man_cal = manual_calibration(&pool, 150, PAPER_MANUAL_TARGET, 1);
        // Bladder and kidneys share must increase vs random sampling
        // (the Table III effect).
        assert!(
            man_cal.frequencies.of(Organ::Bladder) > rand_cal.frequencies.of(Organ::Bladder),
            "bladder {:.2} !> {:.2}",
            man_cal.frequencies.of(Organ::Bladder),
            rand_cal.frequencies.of(Organ::Bladder)
        );
        // Dominant organs shrink or stay comparable.
        assert!(
            man_cal.frequencies.of(Organ::Bones) <= rand_cal.frequencies.of(Organ::Bones) + 2.0
        );
    }

    #[test]
    fn manual_sampling_approaches_target() {
        let pool = pool();
        let cal = manual_calibration(&pool, 200, PAPER_MANUAL_TARGET, 3);
        let mut dist = 0.0;
        for (k, organ) in Organ::TARGETS.iter().enumerate() {
            dist += (cal.frequencies.of(*organ) - PAPER_MANUAL_TARGET[k]).abs();
        }
        assert!(dist < 30.0, "total L1 distance {dist:.1}");
    }

    #[test]
    fn samplers_are_deterministic() {
        let pool = pool();
        let a = random_calibration(&pool, 50, 11);
        let b = random_calibration(&pool, 50, 11);
        assert_eq!(a.frequencies.pct, b.frequencies.pct);
        let c = manual_calibration(&pool, 50, PAPER_MANUAL_TARGET, 11);
        let d = manual_calibration(&pool, 50, PAPER_MANUAL_TARGET, 11);
        assert_eq!(c.frequencies.pct, d.frequencies.pct);
    }

    #[test]
    #[should_panic(expected = "empty slice pool")]
    fn empty_pool_rejected() {
        let _ = random_calibration(&[], 10, 0);
    }
}
