//! Segmentation metrics on label maps.
//!
//! All metrics work on flat `u8` label maps (prediction vs ground truth of
//! equal length); class `c` is evaluated one-vs-rest.

use serde::{Deserialize, Serialize};

/// One-vs-rest confusion counts for a class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// False negatives.
    pub fn_: u64,
    /// True negatives.
    pub tn: u64,
}

impl Confusion {
    /// Dice similarity coefficient `2TP / (2TP + FP + FN)` (Eq. 4). Returns
    /// `None` when the class is absent from both prediction and truth.
    pub fn dice(&self) -> Option<f64> {
        let denom = 2 * self.tp + self.fp + self.fn_;
        if denom == 0 {
            None
        } else {
            Some(2.0 * self.tp as f64 / denom as f64)
        }
    }

    /// Recall / true positive rate `TP / (TP + FN)` (Eq. 5).
    pub fn tpr(&self) -> Option<f64> {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            None
        } else {
            Some(self.tp as f64 / denom as f64)
        }
    }

    /// Specificity / true negative rate `TN / (TN + FP)` (Eq. 6).
    pub fn tnr(&self) -> Option<f64> {
        let denom = self.tn + self.fp;
        if denom == 0 {
            None
        } else {
            Some(self.tn as f64 / denom as f64)
        }
    }

    /// Merges counts (accumulate over slices/volumes).
    pub fn merge(&mut self, other: &Confusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.tn += other.tn;
    }
}

/// One-vs-rest confusion of class `c`.
pub fn confusion(pred: &[u8], truth: &[u8], c: u8) -> Confusion {
    assert_eq!(pred.len(), truth.len(), "label map length mismatch");
    let mut conf = Confusion::default();
    for (&p, &g) in pred.iter().zip(truth) {
        match (p == c, g == c) {
            (true, true) => conf.tp += 1,
            (true, false) => conf.fp += 1,
            (false, true) => conf.fn_ += 1,
            (false, false) => conf.tn += 1,
        }
    }
    conf
}

/// Dice of class `c` (None when absent everywhere).
pub fn dice(pred: &[u8], truth: &[u8], c: u8) -> Option<f64> {
    confusion(pred, truth, c).dice()
}

/// TPR of class `c`.
pub fn tpr(pred: &[u8], truth: &[u8], c: u8) -> Option<f64> {
    confusion(pred, truth, c).tpr()
}

/// TNR of class `c`.
pub fn tnr(pred: &[u8], truth: &[u8], c: u8) -> Option<f64> {
    confusion(pred, truth, c).tnr()
}

/// Per-class Dice for classes `1..=n_classes` (organ labels; 0 = background
/// is excluded, matching the paper).
pub fn per_organ_dice(pred: &[u8], truth: &[u8], n_classes: u8) -> Vec<Option<f64>> {
    (1..=n_classes).map(|c| dice(pred, truth, c)).collect()
}

/// Global DSC "computed as the weighted mean of single organs DSCs"
/// (§IV-C), weighted by each organ's ground-truth pixel count.
pub fn global_weighted_dice(pred: &[u8], truth: &[u8], n_classes: u8) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for c in 1..=n_classes {
        let conf = confusion(pred, truth, c);
        if let Some(d) = conf.dice() {
            let weight = (conf.tp + conf.fn_) as f64; // ground-truth pixels
            num += d * weight;
            den += weight;
        }
    }
    if den == 0.0 {
        None
    } else {
        Some(num / den)
    }
}

/// Global TPR/TNR as support-weighted means over per-organ confusions,
/// gated on organ presence in the ground truth (`tp + fn_ > 0`), matching
/// the paper's per-patient sensitivity/specificity aggregation (§IV-D).
///
/// Each rate is weighted by its *own* support: TPR by positive pixels
/// (`tp + fn_`), TNR by negative pixels (`tn + fp`). Weighting specificity
/// by positive support would let a tiny organ's poor TNR vanish behind a
/// large organ's pixel count (and vice versa).
pub fn weighted_global_rates(confs: &[Confusion]) -> (Option<f64>, Option<f64>) {
    let (mut tpr_num, mut tpr_den) = (0.0f64, 0.0f64);
    let (mut tnr_num, mut tnr_den) = (0.0f64, 0.0f64);
    for conf in confs {
        let pos = (conf.tp + conf.fn_) as f64;
        if pos == 0.0 {
            continue; // organ absent from this ground truth
        }
        if let Some(t) = conf.tpr() {
            tpr_num += pos * t;
            tpr_den += pos;
        }
        let neg = (conf.tn + conf.fp) as f64;
        if neg > 0.0 {
            if let Some(t) = conf.tnr() {
                tnr_num += neg * t;
                tnr_den += neg;
            }
        }
    }
    let rate = |num: f64, den: f64| if den > 0.0 { Some(num / den) } else { None };
    (rate(tpr_num, tpr_den), rate(tnr_num, tnr_den))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let gt = vec![0u8, 1, 1, 2, 0, 2];
        for c in 0..=2 {
            assert_eq!(dice(&gt, &gt, c), Some(1.0));
            assert_eq!(tpr(&gt, &gt, c), Some(1.0));
            assert_eq!(tnr(&gt, &gt, c), Some(1.0));
        }
        assert_eq!(global_weighted_dice(&gt, &gt, 2), Some(1.0));
    }

    #[test]
    fn disjoint_prediction_zero_dice() {
        let gt = vec![1u8, 1, 0, 0];
        let pred = vec![0u8, 0, 1, 1];
        assert_eq!(dice(&pred, &gt, 1), Some(0.0));
        assert_eq!(tpr(&pred, &gt, 1), Some(0.0));
    }

    #[test]
    fn half_overlap() {
        // GT has 2 pixels of class 1, prediction hits 1 of them + 1 FP.
        let gt = vec![1u8, 1, 0, 0];
        let pred = vec![1u8, 0, 1, 0];
        // dice = 2*1 / (2*1 + 1 + 1) = 0.5
        assert_eq!(dice(&pred, &gt, 1), Some(0.5));
        assert_eq!(tpr(&pred, &gt, 1), Some(0.5));
        // TNR: TN=1 (idx3), FP=1 -> 0.5
        assert_eq!(tnr(&pred, &gt, 1), Some(0.5));
    }

    #[test]
    fn absent_class_is_none() {
        let gt = vec![0u8; 8];
        let pred = vec![0u8; 8];
        assert_eq!(dice(&pred, &gt, 3), None);
        // But predicted-only class gives Some(0).
        let pred2 = vec![3u8, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(dice(&pred2, &gt, 3), Some(0.0));
    }

    #[test]
    fn global_dice_weights_by_organ_size() {
        // Organ 1: 90 px perfectly segmented. Organ 2: 10 px fully missed.
        let mut gt = vec![0u8; 200];
        let mut pred = vec![0u8; 200];
        gt[..90].fill(1);
        pred[..90].fill(1);
        gt[90..100].fill(2);
        let g = global_weighted_dice(&pred, &gt, 2).unwrap();
        assert!((g - 0.9).abs() < 1e-9, "{g}");
    }

    #[test]
    fn merge_accumulates() {
        let a = confusion(&[1, 0], &[1, 1], 1);
        let b = confusion(&[1, 1], &[1, 0], 1);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.tp, a.tp + b.tp);
        assert_eq!(m.fp, a.fp + b.fp);
        assert_eq!(m.fn_, a.fn_ + b.fn_);
    }

    #[test]
    fn weighted_rates_use_matching_support() {
        // Hand-computed two-organ case where positive- and negative-support
        // weightings of TNR disagree badly:
        //   A: 100 GT px, 90 hit, clean background    -> tpr 0.9,  tnr 1.0
        //   B: 1 GT px hit, 300 FP over 900 negatives -> tpr 1.0,  tnr 2/3
        let a = Confusion { tp: 90, fn_: 10, fp: 0, tn: 900 };
        let b = Confusion { tp: 1, fn_: 0, fp: 300, tn: 600 };
        let (tpr, tnr) = weighted_global_rates(&[a, b]);
        // TPR weighted by positive support: (100·0.9 + 1·1.0) / 101.
        assert!((tpr.unwrap() - 91.0 / 101.0).abs() < 1e-12);
        // TNR weighted by negative support: (900·1.0 + 900·(2/3)) / 1800 = 5/6.
        assert!((tnr.unwrap() - 5.0 / 6.0).abs() < 1e-12);
        // The old positive-support weighting would report ≈ 0.9967 instead,
        // hiding B's 300 false positives behind A's pixel count.
        let buggy = (100.0 * 1.0 + 1.0 * (2.0 / 3.0)) / 101.0;
        assert!((tnr.unwrap() - buggy).abs() > 0.15);
    }

    #[test]
    fn weighted_rates_gate_on_presence() {
        // An organ absent from the ground truth contributes to neither rate,
        // even though its background pixels would carry TNR weight.
        let absent = Confusion { tp: 0, fn_: 0, fp: 5, tn: 5 };
        assert_eq!(weighted_global_rates(&[absent]), (None, None));
        let present = Confusion { tp: 4, fn_: 0, fp: 0, tn: 6 };
        let (tpr, tnr) = weighted_global_rates(&[present, absent]);
        assert_eq!(tpr, Some(1.0));
        assert_eq!(tnr, Some(1.0)); // only the present organ's negatives count
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = confusion(&[0, 1], &[0], 1);
    }
}
