//! `seneca-trace`: a low-overhead span/counter recorder for the whole stack.
//!
//! The paper's argument rests on *measured* behaviour — FPS, per-layer DPU
//! time (§IV, Tables IV–VI) — but until this crate the repo could only model
//! per-layer cost ([`seneca_dpu::profile`]-style estimates). This is the
//! measuring side, shaped like the profiling hooks vaitrace/VART expose per
//! operator:
//!
//! - **Probes** are spans (`span(domain, name)`, records on drop) or direct
//!   counters (`record_ns`) keyed by two `&'static str`s, so a probe costs
//!   two pointer copies and two clock reads — no allocation, no formatting.
//! - **Recording** goes to a thread-local ring buffer (overwrite-oldest, so
//!   a forgotten drain costs accuracy, never memory). Buffers are owned by
//!   `Arc` and registered with a process-global [`Collector`], which keeps
//!   them drainable after their threads exit — the inference session spawns
//!   transient scoped workers per batch.
//! - **Draining** folds samples into per-key aggregates (count, total, max,
//!   bytes, and an HDR-style ns histogram for p95) and prunes buffers whose
//!   threads are gone. [`report`] returns the aggregate as a serializable
//!   [`TraceReport`].
//! - **Disabled is free-ish**: tracing is off until [`set_enabled`]`(true)`;
//!   a disabled probe is one relaxed atomic load and a branch. The `noop`
//!   cargo feature removes even that, compiling every probe to nothing, for
//!   A/B-ing the cost of the tracer's mere presence.
//!
//! Timestamps are monotonic: nanoseconds since a process-global epoch taken
//! on first use, so durations are robust to wall-clock adjustments and spans
//! started on different threads are comparable.

pub mod hdr;
mod report;

pub use report::{TraceReport, TraceRow};

use report::KeyAgg;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Probe identity: `(domain, name)`. Static strings keep recording
/// allocation-free; op mnemonics and stage names are all `'static`.
type Key = (&'static str, &'static str);

/// One recorded sample, as stored in the ring.
#[derive(Clone, Copy)]
struct Sample {
    key: Key,
    dur_ns: u64,
    bytes: u64,
}

/// Per-thread ring capacity. At 40 bytes a sample this is ~160 KiB per
/// recording thread; overwrite-oldest keeps memory bounded between drains.
const RING_CAP: usize = 4096;

/// Fixed-capacity overwrite-oldest ring of samples.
struct Ring {
    buf: Vec<Sample>,
    next: usize,
    dropped: u64,
}

impl Ring {
    fn new() -> Self {
        Self { buf: Vec::new(), next: 0, dropped: 0 }
    }

    fn push(&mut self, s: Sample) {
        if self.buf.len() < RING_CAP {
            self.buf.push(s);
        } else {
            self.buf[self.next] = s;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % RING_CAP;
    }
}

/// A thread's buffer: the ring behind a mutex that is uncontended except
/// during a drain (the owning thread is the only other locker).
struct ThreadBuf {
    ring: Mutex<Ring>,
}

/// Process-global collector: the registry of live thread buffers plus the
/// running aggregate that drains fold into.
struct Collector {
    enabled: AtomicBool,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    agg: Mutex<Agg>,
}

#[derive(Default)]
struct Agg {
    keys: BTreeMap<Key, KeyAgg>,
    dropped: u64,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        enabled: AtomicBool::new(false),
        threads: Mutex::new(Vec::new()),
        agg: Mutex::new(Agg::default()),
    })
}

/// Nanoseconds since the process-global monotonic epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<ThreadBuf>> = const { std::cell::OnceCell::new() };
}

fn with_local(f: impl FnOnce(&ThreadBuf)) {
    LOCAL.with(|cell| {
        let buf = cell.get_or_init(|| {
            let buf = Arc::new(ThreadBuf { ring: Mutex::new(Ring::new()) });
            collector().threads.lock().unwrap().push(Arc::clone(&buf));
            buf
        });
        f(buf);
    });
}

/// Turns recording on or off process-wide. Off is the default; probes in
/// code that never enables tracing cost one relaxed load each.
pub fn set_enabled(on: bool) {
    if cfg!(feature = "noop") {
        return;
    }
    collector().enabled.store(on, Ordering::Relaxed);
}

/// Whether probes currently record.
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "noop") {
        return false;
    }
    collector().enabled.load(Ordering::Relaxed)
}

/// Records an externally measured duration (use when the interval crosses
/// threads, e.g. a request's queue wait measured at dispatch).
#[inline]
pub fn record_ns(domain: &'static str, name: &'static str, dur_ns: u64, bytes: u64) {
    if !enabled() {
        return;
    }
    with_local(|buf| buf.ring.lock().unwrap().push(Sample { key: (domain, name), dur_ns, bytes }));
}

/// An in-flight span; records its elapsed time into the ring when dropped.
/// When tracing is disabled the guard is inert and drop does nothing.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    key: Key,
    bytes: u64,
    start: u64,
}

impl Span {
    /// Attributes a byte count (e.g. the op's output size) to the sample.
    #[inline]
    pub fn set_bytes(&mut self, bytes: u64) {
        if let Some(inner) = &mut self.inner {
            inner.bytes = bytes;
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur_ns = now_ns().saturating_sub(inner.start);
            with_local(|buf| {
                buf.ring.lock().unwrap().push(Sample { key: inner.key, dur_ns, bytes: inner.bytes })
            });
        }
    }
}

/// Opens a span. The returned guard records `(domain, name, elapsed)` when
/// it drops; bind it (`let _sp = ...`) so it covers the intended scope.
#[inline]
pub fn span(domain: &'static str, name: &'static str) -> Span {
    span_bytes(domain, name, 0)
}

/// Opens a span carrying a known byte count (op output size, payload size).
#[inline]
pub fn span_bytes(domain: &'static str, name: &'static str, bytes: u64) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span { inner: Some(SpanInner { key: (domain, name), bytes, start: now_ns() }) }
}

/// Drains every registered thread buffer into the global aggregate and
/// prunes buffers whose owning threads have exited. Safe to call while
/// other threads record: their in-flight samples land in the next drain.
pub fn drain() {
    if cfg!(feature = "noop") {
        return;
    }
    let c = collector();
    let mut threads = c.threads.lock().unwrap();
    let mut agg = c.agg.lock().unwrap();
    for buf in threads.iter() {
        let mut ring = buf.ring.lock().unwrap();
        agg.dropped += ring.dropped;
        ring.dropped = 0;
        ring.next = 0;
        for s in ring.buf.drain(..) {
            agg.keys.entry(s.key).or_default().add(s.dur_ns, s.bytes);
        }
    }
    // A buffer only referenced by the registry belongs to a finished thread
    // (its thread-local Arc was dropped) and is empty after the drain above.
    threads.retain(|buf| Arc::strong_count(buf) > 1);
}

/// Drains and returns the aggregate since the last [`reset`].
pub fn report() -> TraceReport {
    drain();
    let agg = collector().agg.lock().unwrap();
    let mut rows: Vec<TraceRow> = agg
        .keys
        .iter()
        .map(|(&(domain, name), a)| TraceRow {
            domain: domain.to_string(),
            name: name.to_string(),
            count: a.count,
            total_ns: a.total_ns,
            mean_ns: if a.count == 0 { 0.0 } else { a.total_ns as f64 / a.count as f64 },
            p95_ns: a.percentile_ns(0.95),
            max_ns: a.max_ns,
            bytes: a.bytes,
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    TraceReport { rows, dropped: agg.dropped }
}

/// Discards all recorded samples and aggregates (rings and totals).
pub fn reset() {
    if cfg!(feature = "noop") {
        return;
    }
    let c = collector();
    let mut threads = c.threads.lock().unwrap();
    let mut agg = c.agg.lock().unwrap();
    for buf in threads.iter() {
        let mut ring = buf.ring.lock().unwrap();
        ring.buf.clear();
        ring.next = 0;
        ring.dropped = 0;
    }
    threads.retain(|buf| Arc::strong_count(buf) > 1);
    agg.keys.clear();
    agg.dropped = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; tests that toggle it serialize here.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = guard();
        set_enabled(false);
        reset();
        for _ in 0..100 {
            let _sp = span_bytes("test", "noop-path", 64);
        }
        record_ns("test", "noop-counter", 1_000, 0);
        let rep = report();
        assert!(rep.rows.is_empty(), "disabled tracer must add no samples: {:?}", rep.rows);
        assert_eq!(rep.dropped, 0);
    }

    #[test]
    fn disabled_probe_overhead_is_small() {
        let _g = guard();
        set_enabled(false);
        reset();
        // Smoke bound, deliberately loose for noisy CI: a disabled probe is
        // an atomic load + branch, which must stay well under 1µs even on a
        // contended shared runner (measured ~1–2ns on dev hardware).
        let n = 1_000_000u64;
        let t0 = Instant::now();
        for _ in 0..n {
            let _sp = span("test", "overhead");
        }
        let per_call = t0.elapsed().as_nanos() as f64 / n as f64;
        assert!(per_call < 1_000.0, "disabled span cost {per_call:.1}ns/call");
        assert!(report().rows.is_empty());
    }

    #[test]
    #[cfg_attr(feature = "noop", ignore = "recording compiled out")]
    fn spans_record_and_aggregate() {
        let _g = guard();
        set_enabled(true);
        reset();
        for i in 0..10u64 {
            let mut sp = span("test", "work");
            std::hint::black_box(i);
            sp.set_bytes(100);
            drop(sp);
        }
        record_ns("test", "external", 5_000, 7);
        set_enabled(false);
        let rep = report();
        let work = rep.get("test", "work").expect("work row");
        assert_eq!(work.count, 10);
        assert_eq!(work.bytes, 1_000);
        assert!(work.total_ns > 0);
        assert!(work.p95_ns <= work.max_ns);
        let ext = rep.get("test", "external").expect("external row");
        assert_eq!((ext.count, ext.total_ns, ext.bytes), (1, 5_000, 7));
        assert_eq!(rep.get("test", "external").unwrap().mean_ns, 5_000.0);
        reset();
        assert!(report().rows.is_empty());
    }

    #[test]
    #[cfg_attr(feature = "noop", ignore = "recording compiled out")]
    fn concurrent_threads_aggregate_exact_counts_and_totals() {
        let _g = guard();
        set_enabled(true);
        reset();
        // N transient threads × K samples per key; each thread also records
        // under its own per-thread key. Exactness: every sample must appear
        // exactly once — counts add up and totals are the precise sums, so
        // no sample is double-drained or lost when threads exit.
        const N: usize = 8;
        const K: u64 = 500;
        let keys: [&'static str; N] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
        std::thread::scope(|s| {
            for t in 0..N {
                s.spawn(move || {
                    for i in 1..=K {
                        record_ns("mt", "shared", i, 1);
                        record_ns("mt", keys[t], 1_000, 0);
                    }
                });
            }
        });
        set_enabled(false);
        let rep = report();
        let shared = rep.get("mt", "shared").expect("shared row");
        assert_eq!(shared.count, N as u64 * K);
        // Sum over threads of (1 + 2 + ... + K).
        assert_eq!(shared.total_ns, N as u64 * K * (K + 1) / 2);
        assert_eq!(shared.bytes, N as u64 * K);
        let mut per_thread_total = 0;
        for k in keys {
            let row = rep.get("mt", k).expect("per-thread row");
            assert_eq!(row.count, K);
            assert_eq!(row.total_ns, K * 1_000);
            per_thread_total += row.total_ns;
        }
        // Per-thread keys never share samples: their totals partition.
        assert_eq!(per_thread_total, N as u64 * K * 1_000);
        assert_eq!(rep.dropped, 0, "8×1000 samples fit the rings between drains");
        reset();
    }

    #[test]
    #[cfg_attr(feature = "noop", ignore = "recording compiled out")]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _g = guard();
        set_enabled(true);
        reset();
        let extra = 100u64;
        for _ in 0..(RING_CAP as u64 + extra) {
            record_ns("ring", "spill", 1, 0);
        }
        set_enabled(false);
        let rep = report();
        let row = rep.get("ring", "spill").expect("spill row");
        assert_eq!(row.count, RING_CAP as u64);
        assert_eq!(rep.dropped, extra);
        reset();
    }

    #[test]
    #[cfg_attr(feature = "noop", ignore = "recording compiled out")]
    fn dead_thread_buffers_survive_until_drained() {
        let _g = guard();
        set_enabled(true);
        reset();
        std::thread::spawn(|| record_ns("dead", "ghost", 42, 0)).join().unwrap();
        set_enabled(false);
        let rep = report();
        let row = rep.get("dead", "ghost").expect("sample from exited thread");
        assert_eq!((row.count, row.total_ns), (1, 42));
        reset();
    }

    #[test]
    #[cfg_attr(feature = "noop", ignore = "recording compiled out")]
    fn report_serializes_to_json() {
        let _g = guard();
        set_enabled(true);
        reset();
        record_ns("json", "row", 1_234, 56);
        set_enabled(false);
        let rep = report();
        let s = serde_json::to_string(&rep).expect("serialize");
        assert!(s.contains("\"domain\":\"json\""));
        assert!(s.contains("\"total_ns\":1234"));
        let md = rep.to_markdown();
        assert!(md.contains("| json | row | 1 |"));
        reset();
    }
}
