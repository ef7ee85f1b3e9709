//! Activation-range observers for calibration.
//!
//! During calibration each fused-graph node gets one observer; the observer
//! sees every activation tensor produced for the calibration images and, at
//! the end, proposes an INT8 fix position.

use seneca_tensor::quantized::choose_fix_pos;
use serde::{Deserialize, Serialize};

/// Range-estimation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObserverKind {
    /// Global min/max over all calibration activations (Vitis AI default).
    MinMax,
    /// Mean of per-image maxima — more robust to single-image outliers.
    AveragedMax,
    /// Percentile of sampled absolute values (e.g. 99.9).
    Percentile(u16),
}

/// One node's range observer.
#[derive(Debug, Clone)]
pub struct RangeObserver {
    kind: ObserverKind,
    global_max: f32,
    per_image_max: Vec<f32>,
    samples: Vec<f32>,
    sample_stride: usize,
}

impl RangeObserver {
    /// New observer of the given kind.
    pub fn new(kind: ObserverKind) -> Self {
        Self {
            kind,
            global_max: 0.0,
            per_image_max: Vec::new(),
            samples: Vec::new(),
            sample_stride: 97,
        }
    }

    /// Records one activation tensor's elements (one calibration image's
    /// output at this node).
    pub fn observe(&mut self, t: &[f32]) {
        let m = t.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        self.global_max = self.global_max.max(m);
        self.per_image_max.push(m);
        if matches!(self.kind, ObserverKind::Percentile(_)) {
            // Strided subsample keeps memory bounded on big calibration sets.
            for v in t.iter().step_by(self.sample_stride) {
                self.samples.push(v.abs());
            }
        }
    }

    /// Number of images observed.
    pub fn count(&self) -> usize {
        self.per_image_max.len()
    }

    /// The estimated range (absolute max to represent).
    pub fn range(&self) -> f32 {
        match self.kind {
            ObserverKind::MinMax => self.global_max,
            ObserverKind::AveragedMax => {
                if self.per_image_max.is_empty() {
                    0.0
                } else {
                    self.per_image_max.iter().sum::<f32>() / self.per_image_max.len() as f32
                }
            }
            ObserverKind::Percentile(p) => {
                if self.samples.is_empty() {
                    return self.global_max;
                }
                let mut s = self.samples.clone();
                s.sort_by(|a, b| a.total_cmp(b));
                let rank = ((p as f64 / 1000.0).min(1.0) * (s.len() - 1) as f64).round() as usize;
                s[rank]
            }
        }
    }

    /// The proposed fix position.
    pub fn fix_pos(&self) -> i32 {
        choose_fix_pos(self.range())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn minmax_tracks_global_extreme() {
        let mut o = RangeObserver::new(ObserverKind::MinMax);
        o.observe(&[0.5, -0.2]);
        o.observe(&[-3.0, 1.0]);
        assert_eq!(o.range(), 3.0);
        assert_eq!(o.count(), 2);
    }

    #[test]
    fn averaged_max_smooths_outliers() {
        let mut o = RangeObserver::new(ObserverKind::AveragedMax);
        for _ in 0..9 {
            o.observe(&[1.0]);
        }
        o.observe(&[11.0]);
        assert!((o.range() - 2.0).abs() < 1e-5); // (9*1 + 11)/10
                                                 // MinMax would say 11: averaged-max yields a larger fix position
                                                 // (finer quantum) than min-max here.
        let mut mm = RangeObserver::new(ObserverKind::MinMax);
        for _ in 0..9 {
            mm.observe(&[1.0]);
        }
        mm.observe(&[11.0]);
        assert!(o.fix_pos() > mm.fix_pos());
    }

    #[test]
    fn percentile_clips_tail() {
        let mut o = RangeObserver::new(ObserverKind::Percentile(990));
        // 1000 samples: 999 small, one huge. With stride the huge one may be
        // skipped; feed as separate observations of size 1 to defeat stride.
        for i in 0..1000 {
            o.observe(&[if i == 500 { 100.0 } else { 1.0 }]);
        }
        let r = o.range();
        assert!(r < 100.0, "99th percentile must clip the outlier, got {r}");
    }

    #[test]
    fn empty_observer_defaults_sanely() {
        let o = RangeObserver::new(ObserverKind::MinMax);
        assert_eq!(o.range(), 0.0);
        assert_eq!(o.fix_pos(), 15); // choose_fix_pos(0) = max
    }
}
