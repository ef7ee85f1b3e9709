//! Organ pixel-frequency accounting — regenerates Table I.

use crate::dataset::SyntheticCtOrg;
use crate::volume::{Organ, Slice2d};
use serde::{Deserialize, Serialize};

/// Organ frequencies as percentages of *labeled* pixels (Table I convention).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OrganFrequencies {
    /// Percent of labeled pixels per organ, Table I column order
    /// (liver, bladder, lungs, kidneys, bones, brain).
    pub pct: [f64; 6],
    /// Total labeled pixels counted.
    pub labeled: u64,
    /// Total pixels counted (labeled + background).
    pub total: u64,
}

impl OrganFrequencies {
    /// Frequency of one organ in percent.
    pub fn of(&self, organ: Organ) -> f64 {
        self.pct[organ.label() as usize - 1]
    }

    /// Builds frequencies from raw per-label counts (index = label value).
    pub fn from_histogram(h: &[u64; 7]) -> Self {
        let labeled: u64 = h[1..=6].iter().sum();
        let total: u64 = h.iter().sum();
        let mut pct = [0.0; 6];
        for (i, p) in pct.iter_mut().enumerate() {
            *p = 100.0 * h[i + 1] as f64 / labeled.max(1) as f64;
        }
        Self { pct, labeled, total }
    }

    /// Table-I-style one-line report.
    pub fn table_row(&self) -> String {
        Organ::ALL
            .iter()
            .map(|o| format!("{}: {:.2}%", o.name(), self.of(*o)))
            .collect::<Vec<_>>()
            .join("  ")
    }
}

/// Accumulates label histograms across slices/volumes.
#[derive(Debug, Clone, Default)]
pub struct FrequencyAccumulator {
    hist: [u64; 7],
}

impl FrequencyAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one slice.
    pub fn add_slice(&mut self, slice: &Slice2d) {
        let h = slice.label_histogram();
        for (a, b) in self.hist.iter_mut().zip(&h) {
            *a += b;
        }
    }

    /// Adds a raw histogram.
    pub fn add_histogram(&mut self, h: &[u64; 7]) {
        for (a, b) in self.hist.iter_mut().zip(h) {
            *a += b;
        }
    }

    /// Finalises into frequencies.
    pub fn finish(&self) -> OrganFrequencies {
        OrganFrequencies::from_histogram(&self.hist)
    }
}

/// Computes whole-cohort organ frequencies (streams volumes one at a time).
pub fn cohort_frequencies(ds: &SyntheticCtOrg) -> OrganFrequencies {
    let mut acc = FrequencyAccumulator::new();
    for id in 0..ds.config.n_patients {
        acc.add_histogram(&ds.volume(id).label_histogram());
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticCtOrgConfig;

    #[test]
    fn from_histogram_percentages() {
        let h = [100, 10, 0, 30, 0, 60, 0];
        let f = OrganFrequencies::from_histogram(&h);
        assert_eq!(f.labeled, 100);
        assert_eq!(f.total, 200);
        assert!((f.of(Organ::Liver) - 10.0).abs() < 1e-9);
        assert!((f.of(Organ::Lungs) - 30.0).abs() < 1e-9);
        assert!((f.of(Organ::Bones) - 60.0).abs() < 1e-9);
        assert_eq!(f.of(Organ::Bladder), 0.0);
    }

    #[test]
    fn accumulator_sums_slices() {
        let s1 = Slice2d {
            width: 2,
            height: 1,
            pixels: vec![0.0; 2],
            labels: vec![1, 3],
            patient_id: 0,
            slice_index: 0,
        };
        let mut acc = FrequencyAccumulator::new();
        acc.add_slice(&s1);
        acc.add_slice(&s1);
        let f = acc.finish();
        assert_eq!(f.labeled, 4);
        assert!((f.of(Organ::Liver) - 50.0).abs() < 1e-9);
    }

    /// The headline Table I reproduction: ordering and rough magnitudes.
    /// (Exact percentages are asserted loosely — the phantom is calibrated,
    /// not fitted.)
    #[test]
    fn cohort_frequencies_match_table1_shape() {
        let ds = SyntheticCtOrg::new(SyntheticCtOrgConfig {
            n_patients: 30,
            slice_size: 64,
            slices_per_unit_z: 32.0,
        });
        let f = cohort_frequencies(&ds);
        // Ordering: bones & lungs dominate, then liver, kidneys, bladder, brain.
        assert!(f.of(Organ::Lungs) > f.of(Organ::Liver));
        assert!(f.of(Organ::Bones) > f.of(Organ::Liver));
        assert!(f.of(Organ::Liver) > f.of(Organ::Kidneys));
        assert!(f.of(Organ::Kidneys) > f.of(Organ::Bladder));
        assert!(f.of(Organ::Bladder) > f.of(Organ::Brain));
        // Magnitudes within a factor ~2 of Table I.
        for organ in Organ::TARGETS {
            let paper = organ.paper_frequency_pct();
            let ours = f.of(organ);
            assert!(
                ours > paper * 0.4 && ours < paper * 2.5,
                "{organ}: ours {ours:.2}% vs paper {paper:.2}%"
            );
        }
        // Brain drastically under-represented.
        assert!(f.of(Organ::Brain) < 1.5, "brain {:.2}%", f.of(Organ::Brain));
    }
}

#[cfg(test)]
mod debug_print {
    use super::*;
    use crate::dataset::SyntheticCtOrgConfig;

    #[test]
    #[ignore]
    fn print_frequencies() {
        let ds = crate::dataset::SyntheticCtOrg::new(SyntheticCtOrgConfig {
            n_patients: 30,
            slice_size: 64,
            slices_per_unit_z: 32.0,
        });
        let f = cohort_frequencies(&ds);
        println!("{}", f.table_row());
    }
}
