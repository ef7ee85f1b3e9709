//! HDR-style fixed-bucket latency histogram.
//!
//! Values are recorded in microseconds into the bucket scheme of
//! [`seneca_trace::hdr`] (exact below 8 µs, then 12.5% bounded relative
//! error across the full `u64` range). Recording is lock-free (one atomic
//! increment), so replicas and the scheduler can share one histogram without
//! contention on the serving hot path.

use seneca_trace::hdr::{bucket_of, percentile, BUCKETS};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A concurrent fixed-bucket latency histogram (µs resolution).
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.counts[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) in µs: the upper edge of the bucket
    /// holding the target sample, so the reported value never understates
    /// the true quantile by more than the bucket precision (12.5%).
    pub fn percentile_us(&self, q: f64) -> u64 {
        let counts = self.counts.iter().map(|c| c.load(Ordering::Relaxed));
        percentile(counts, self.count(), self.max_us.load(Ordering::Relaxed), q)
    }

    /// Point-in-time summary (p50/p95/p99, mean, max, count).
    pub fn summary(&self) -> LatencySummary {
        let count = self.count();
        LatencySummary {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                self.sum_us.load(Ordering::Relaxed) as f64 / count as f64
            },
            p50_us: self.percentile_us(0.50),
            p95_us: self.percentile_us(0.95),
            p99_us: self.percentile_us(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Plain snapshot of a [`LatencyHistogram`] for reports and JSON artifacts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Recorded samples.
    pub count: u64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Median (µs, bucket upper edge).
    pub p50_us: u64,
    /// 95th percentile (µs).
    pub p95_us: u64,
    /// 99th percentile (µs).
    pub p99_us: u64,
    /// Largest recorded sample (µs, exact).
    pub max_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_uniform_ramp() {
        let h = LatencyHistogram::new();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile_us(0.50) as f64 / 1000.0;
        let p99 = h.percentile_us(0.99) as f64 / 1000.0;
        // Bucket precision is 12.5%; the ramp medians must land near 50/99 ms.
        assert!((45.0..=60.0).contains(&p50), "p50 {p50}");
        assert!((90.0..=112.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.summary().max_us, 100_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        let s = h.summary();
        assert_eq!((s.count, s.p50_us, s.p99_us, s.max_us), (0, 0, 0, 0));
        assert_eq!(s.mean_us, 0.0);
    }
}
