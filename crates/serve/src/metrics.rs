//! Server-wide latency and outcome accounting.

use crate::histogram::{LatencyHistogram, LatencySummary};
use crate::request::{Priority, Timing};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Live counters and histograms, shared by the submit path and the
/// replicas. Everything is atomic: recording never takes a lock.
pub struct ServeMetrics {
    created: Instant,
    submitted: AtomicU64,
    served: AtomicU64,
    served_interactive: AtomicU64,
    served_batch: AtomicU64,
    rejected: AtomicU64,
    shed_expired: AtomicU64,
    shed_interactive: AtomicU64,
    shed_batch: AtomicU64,
    failed: AtomicU64,
    deadline_misses: AtomicU64,
    batches: AtomicU64,
    batched_frames: AtomicU64,
    /// ns offsets from `created`; `u64::MAX` = "no submission yet".
    first_submit_ns: AtomicU64,
    last_done_ns: AtomicU64,
    queue_hist: LatencyHistogram,
    exec_hist: LatencyHistogram,
    interactive_hist: LatencyHistogram,
    batch_hist: LatencyHistogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh metrics anchored at "now".
    pub fn new() -> Self {
        Self {
            created: Instant::now(),
            submitted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            served_interactive: AtomicU64::new(0),
            served_batch: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed_expired: AtomicU64::new(0),
            shed_interactive: AtomicU64::new(0),
            shed_batch: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_frames: AtomicU64::new(0),
            first_submit_ns: AtomicU64::new(u64::MAX),
            last_done_ns: AtomicU64::new(0),
            queue_hist: LatencyHistogram::new(),
            exec_hist: LatencyHistogram::new(),
            interactive_hist: LatencyHistogram::new(),
            batch_hist: LatencyHistogram::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.created.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a submission attempt (admitted or not).
    pub(crate) fn note_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.first_submit_ns.fetch_min(self.now_ns(), Ordering::Relaxed);
    }

    /// Records an admission rejection (queue full or shutting down).
    pub(crate) fn note_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request shed at dispatch because its deadline expired,
    /// attributed to its priority class.
    pub(crate) fn note_shed(&self, priority: Priority) {
        self.shed_expired.fetch_add(1, Ordering::Relaxed);
        match priority {
            Priority::Interactive => self.shed_interactive.fetch_add(1, Ordering::Relaxed),
            Priority::Batch => self.shed_batch.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Records `frames` requests answered with an error because the
    /// backend failed their batch.
    pub(crate) fn note_failed(&self, frames: usize) {
        self.failed.fetch_add(frames as u64, Ordering::Relaxed);
    }

    /// Records one dispatched micro-batch of `frames` frames.
    pub(crate) fn note_batch(&self, frames: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_frames.fetch_add(frames as u64, Ordering::Relaxed);
    }

    /// Records a served request with its latency breakdown.
    pub(crate) fn note_served(&self, priority: Priority, timing: &Timing, missed_deadline: bool) {
        self.served.fetch_add(1, Ordering::Relaxed);
        if missed_deadline {
            self.deadline_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.queue_hist.record(timing.queue);
        self.exec_hist.record(timing.execute);
        match priority {
            Priority::Interactive => {
                self.served_interactive.fetch_add(1, Ordering::Relaxed);
                self.interactive_hist.record(timing.total);
            }
            Priority::Batch => {
                self.served_batch.fetch_add(1, Ordering::Relaxed);
                self.batch_hist.record(timing.total);
            }
        }
        self.last_done_ns.fetch_max(self.now_ns(), Ordering::Relaxed);
    }

    /// Point-in-time snapshot of every counter and histogram.
    pub fn snapshot(&self) -> ServeStats {
        let served = self.served.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let first = self.first_submit_ns.load(Ordering::Relaxed);
        let last = self.last_done_ns.load(Ordering::Relaxed);
        let wall_s =
            if first == u64::MAX || last <= first { 0.0 } else { (last - first) as f64 * 1e-9 };
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            served,
            served_interactive: self.served_interactive.load(Ordering::Relaxed),
            served_batch: self.served_batch.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed_expired: self.shed_expired.load(Ordering::Relaxed),
            shed_interactive: self.shed_interactive.load(Ordering::Relaxed),
            shed_batch: self.shed_batch.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                self.batched_frames.load(Ordering::Relaxed) as f64 / batches as f64
            },
            served_fps: if wall_s > 0.0 { served as f64 / wall_s } else { 0.0 },
            serving_wall_s: wall_s,
            queue: self.queue_hist.summary(),
            execute: self.exec_hist.summary(),
            total_interactive: self.interactive_hist.summary(),
            total_batch: self.batch_hist.summary(),
        }
    }
}

/// Serializable snapshot of a server's lifetime statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Submission attempts (admitted + rejected).
    pub submitted: u64,
    /// Requests answered with a prediction.
    pub served: u64,
    /// Served `Interactive`-class requests (fleet isolation assertions
    /// need the per-priority split; `served` stays the aggregate).
    pub served_interactive: u64,
    /// Served `Batch`-class requests.
    pub served_batch: u64,
    /// Requests turned away at admission (queue full or shutting down).
    pub rejected: u64,
    /// Requests dropped because their deadline expired before execution.
    pub shed_expired: u64,
    /// Sheds that hit `Interactive`-class requests.
    pub shed_interactive: u64,
    /// Sheds that hit `Batch`-class requests.
    pub shed_batch: u64,
    /// Admitted requests answered with an error because the backend failed
    /// their batch.
    pub failed: u64,
    /// Served requests whose response arrived after their deadline.
    pub deadline_misses: u64,
    /// Micro-batches dispatched to replicas.
    pub batches: u64,
    /// Mean frames per dispatched micro-batch.
    pub mean_batch: f64,
    /// Served requests per second of serving wall-clock.
    pub served_fps: f64,
    /// First submission → last completion (s).
    pub serving_wall_s: f64,
    /// Queue-wait latency of served requests.
    pub queue: LatencySummary,
    /// Per-frame execution latency of served requests.
    pub execute: LatencySummary,
    /// End-to-end latency of served `Interactive` requests.
    pub total_interactive: LatencySummary,
    /// End-to-end latency of served `Batch` requests.
    pub total_batch: LatencySummary,
}

impl ServeStats {
    /// Deadline-miss rate over served requests (0 when nothing served).
    pub fn miss_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.served as f64
        }
    }

    /// Fraction of submissions not served (rejected, shed or failed).
    pub fn loss_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.rejected + self.shed_expired + self.failed) as f64 / self.submitted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn snapshot_aggregates_counters() {
        let m = ServeMetrics::new();
        for _ in 0..5 {
            m.note_submit();
        }
        m.note_reject();
        m.note_failed(1);
        m.note_shed(Priority::Batch);
        m.note_batch(1);
        m.note_batch(3);
        let t = Timing {
            queue: Duration::from_millis(2),
            execute: Duration::from_millis(5),
            total: Duration::from_millis(7),
        };
        m.note_served(Priority::Interactive, &t, false);
        m.note_served(Priority::Batch, &t, true);
        let s = m.snapshot();
        assert_eq!((s.submitted, s.served, s.rejected, s.shed_expired, s.failed), (5, 2, 1, 1, 1));
        assert_eq!((s.served_interactive, s.served_batch), (1, 1));
        assert_eq!((s.shed_interactive, s.shed_batch), (0, 1));
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch - 2.0).abs() < 1e-12);
        assert_eq!(s.total_interactive.count, 1);
        assert_eq!(s.total_batch.count, 1);
        assert_eq!(s.queue.count, 2);
        assert!(s.miss_rate() > 0.49 && s.miss_rate() < 0.51);
        assert!((s.loss_rate() - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn stats_serialize_to_json() {
        let s = ServeMetrics::new().snapshot();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"served_fps\""));
        assert!(json.contains("\"total_interactive\""));
        assert!(json.contains("\"served_interactive\""));
        assert!(json.contains("\"shed_batch\""));
    }
}
