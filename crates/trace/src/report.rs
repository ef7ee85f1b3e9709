//! Aggregated trace output: per-key statistics tables and their JSON form.
//!
//! Durations are folded into the [`crate::hdr`] fixed-bucket histogram at
//! nanosecond resolution (12.5% bounded relative error), so p95 comes out of
//! the aggregate without keeping raw samples around.

use crate::hdr::{bucket_of, bucket_upper, BUCKETS};
use serde::{Deserialize, Serialize};

/// Running aggregate for one `(domain, name)` key. Not thread-safe on its
/// own: the collector updates it under the aggregate lock, off the hot path.
#[derive(Clone)]
pub(crate) struct KeyAgg {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    pub bytes: u64,
    hist: Box<[u64; BUCKETS]>,
}

impl Default for KeyAgg {
    fn default() -> Self {
        Self { count: 0, total_ns: 0, max_ns: 0, bytes: 0, hist: Box::new([0; BUCKETS]) }
    }
}

impl KeyAgg {
    pub fn add(&mut self, dur_ns: u64, bytes: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
        self.bytes = self.bytes.saturating_add(bytes);
        self.hist[bucket_of(dur_ns)] += 1;
    }

    /// The `q`-quantile (ns): upper edge of the bucket holding the target
    /// sample, capped at the exact observed maximum.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

/// One aggregate row of a [`TraceReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRow {
    /// Instrumentation domain, e.g. `fp32-op`, `int8-op`, `session`, `serve`.
    pub domain: String,
    /// Probe name within the domain, e.g. the op mnemonic or stage name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of sample durations (ns).
    pub total_ns: u64,
    /// Mean duration (ns).
    pub mean_ns: f64,
    /// 95th percentile duration (ns, bucket upper edge, ≤ exact max).
    pub p95_ns: u64,
    /// Largest sample (ns, exact).
    pub max_ns: u64,
    /// Bytes attributed to the samples where known (0 when not reported).
    pub bytes: u64,
}

/// The drained, aggregated view of everything recorded since the last reset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceReport {
    /// Aggregate rows, sorted by `total_ns` descending.
    pub rows: Vec<TraceRow>,
    /// Samples lost to ring-buffer overwrites between drains.
    pub dropped: u64,
}

impl TraceReport {
    /// Rows belonging to one domain, preserving the total-descending order.
    pub fn domain_rows(&self, domain: &str) -> Vec<&TraceRow> {
        self.rows.iter().filter(|r| r.domain == domain).collect()
    }

    /// Summed `total_ns` across one domain.
    pub fn domain_total_ns(&self, domain: &str) -> u64 {
        self.rows.iter().filter(|r| r.domain == domain).map(|r| r.total_ns).sum()
    }

    /// Looks up one row by key.
    pub fn get(&self, domain: &str, name: &str) -> Option<&TraceRow> {
        self.rows.iter().find(|r| r.domain == domain && r.name == name)
    }

    /// Renders the report as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| domain | name | count | total (ms) | mean (µs) | p95 (µs) | max (µs) | MiB |\n\
             |---|---|---:|---:|---:|---:|---:|---:|\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
                r.domain,
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.mean_ns / 1e3,
                r.p95_ns as f64 / 1e3,
                r.max_ns as f64 / 1e3,
                r.bytes as f64 / (1024.0 * 1024.0),
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("\n(+ {} samples dropped to ring overwrites)\n", self.dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_tracks_ramp_within_bucket_error() {
        let mut agg = KeyAgg::default();
        for us in 1..=100u64 {
            agg.add(us * 1_000, 0);
        }
        let p95 = agg.percentile_ns(0.95) as f64 / 1_000.0;
        assert!((90.0..=110.0).contains(&p95), "p95 {p95}µs");
        assert_eq!(agg.percentile_ns(1.0), 100_000);
        assert_eq!(agg.count, 100);
    }
}
