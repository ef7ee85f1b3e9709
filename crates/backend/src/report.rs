//! The shared throughput vocabulary.
//!
//! Both device models — the DPU DES simulation and the GPU latency model —
//! report the same [`ThroughputReport`] from their inherent
//! `throughput(n_frames, seed)`, and μ±σ aggregation over seeded runs lives
//! in one place ([`ThroughputStats::from_runs`]).

use serde::{Deserialize, Serialize};

/// Result of one simulated throughput run on a device model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Frames per second.
    pub fps: f64,
    /// Average board power (W).
    pub watt: f64,
    /// Host runner threads used.
    pub threads: usize,
    /// Accelerator utilisation in `[0, 1]`.
    pub util: f64,
}

impl ThroughputReport {
    /// Energy efficiency, Eq. (3): FPS / Watt = frames / Joule.
    pub fn energy_efficiency(&self) -> f64 {
        if self.watt <= 0.0 {
            return 0.0;
        }
        self.fps / self.watt
    }
}

/// Aggregated throughput statistics over seeded runs (the μ±σ of Table IV).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputStats {
    /// Mean FPS.
    pub fps_mean: f64,
    /// FPS standard deviation.
    pub fps_std: f64,
    /// Mean board power (W).
    pub watt_mean: f64,
    /// Power standard deviation.
    pub watt_std: f64,
    /// Mean energy efficiency (FPS/W).
    pub ee_mean: f64,
    /// EE standard deviation.
    pub ee_std: f64,
    /// The individual runs.
    pub runs: Vec<ThroughputReport>,
}

impl ThroughputStats {
    /// Aggregates individual runs into mean ± (population) std; `None` when
    /// there are no runs to aggregate.
    pub fn from_runs(runs: Vec<ThroughputReport>) -> Option<Self> {
        if runs.is_empty() {
            return None;
        }
        let mean_std = |xs: Vec<f64>| -> (f64, f64) {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
            (m, v.sqrt())
        };
        let (fps_mean, fps_std) = mean_std(runs.iter().map(|r| r.fps).collect());
        let (watt_mean, watt_std) = mean_std(runs.iter().map(|r| r.watt).collect());
        let (ee_mean, ee_std) = mean_std(runs.iter().map(|r| r.energy_efficiency()).collect());
        Some(Self { fps_mean, fps_std, watt_mean, watt_std, ee_mean, ee_std, runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(fps: f64, watt: f64) -> ThroughputReport {
        ThroughputReport { fps, watt, threads: 1, util: 0.0 }
    }

    #[test]
    fn energy_efficiency_guards_zero_power() {
        assert_eq!(rep(100.0, 0.0).energy_efficiency(), 0.0);
        assert!((rep(100.0, 20.0).energy_efficiency() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_runs_aggregate_to_none() {
        assert!(ThroughputStats::from_runs(Vec::new()).is_none());
    }

    #[test]
    fn stats_aggregate_mean_and_std() {
        let s = ThroughputStats::from_runs(vec![rep(90.0, 20.0), rep(110.0, 20.0)]).unwrap();
        assert!((s.fps_mean - 100.0).abs() < 1e-9);
        assert!((s.fps_std - 10.0).abs() < 1e-9);
        assert!((s.watt_std).abs() < 1e-9);
        assert!((s.ee_mean - 5.0).abs() < 1e-9);
        assert_eq!(s.runs.len(), 2);
    }
}
