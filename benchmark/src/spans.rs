//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of every call into the
//! program (`seneca_trace` stays off): name, start, end, parent and a request
//! id, kept in memory and written out once when the run ends. A disabled
//! recorder drops every span, so the measured phase and the traced phase run
//! the same code.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span, used to name a parent.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// Per-name aggregate of [`Recorder::self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now. Disabled recorders keep nothing.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already kept stay.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds between this recorder's creation and `t` (0 if earlier).
    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one finished span; `None` when disabled.
    pub fn add(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that starts now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, request: u64) -> Option<SpanId> {
        let now = self.now_ns();
        self.add(name, now, now, parent, request)
    }

    /// Ends an open span now (no-op for the `None` of a disabled recorder).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of its
    /// interval that its direct children cover (overlapping children count
    /// once; a child reaching outside its parent is clipped).
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if lo < hi {
                    children[p].push((lo, hi));
                }
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name.clone()).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur - covered;
        }
        out
    }

    /// Self time summed over every span whose name starts with `layer.`.
    pub fn layer_self_ns(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (name, t) in self.self_times() {
            let layer = name.split('.').next().unwrap_or(&name).to_string();
            *out.entry(layer).or_insert(0) += t.self_ns;
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id as u64,
                    "name": s.name.clone(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": match s.parent { Some(p) => Value::from(p as u64), None => Value::Null },
                    "request": s.request
                })
            })
            .collect();
        let self_time: Vec<Value> = self
            .self_times()
            .into_iter()
            .map(|(name, t)| {
                json!({
                    "name": name,
                    "count": t.count,
                    "total_ns": t.total_ns,
                    "self_ns": t.self_ns
                })
            })
            .collect();
        json!({ "workload": workload, "self_time": self_time, "spans": spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.add("client.request", 0, 10, None, 1), None);
        let open = r.open("ir.execute", None, 1);
        assert_eq!(open, None);
        r.close(open);
        assert!(r.spans().is_empty());
        assert!(r.self_times().is_empty());
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let mut r = Recorder::new(true);
        let req = r.add("client.request", 0, 100, None, 1);
        // Two overlapping children cover [10, 60); a third reaches past the
        // parent's end and is clipped to [90, 100).
        r.add("serve.queue", 10, 40, req, 1);
        r.add("serve.execute", 30, 60, req, 1);
        let tail = r.add("serve.reply", 90, 130, req, 1);
        // A grandchild only reduces its own parent.
        r.add("serve.reply.copy", 95, 100, tail, 1);
        let t = r.self_times();
        assert_eq!(t["client.request"], SelfTime { count: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(t["serve.queue"].self_ns, 30);
        assert_eq!(t["serve.execute"].self_ns, 30);
        assert_eq!(t["serve.reply"], SelfTime { count: 1, total_ns: 40, self_ns: 35 });
        let layers = r.layer_self_ns();
        assert_eq!(layers["client"], 40);
        assert_eq!(layers["serve"], 30 + 30 + 35 + 5);
    }

    #[test]
    fn open_then_close_spans_the_time_between() {
        let mut r = Recorder::new(true);
        let id = r.open("client.request", None, 9);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(id);
        let s = &r.spans()[id.unwrap()];
        assert!(s.end_ns - s.start_ns >= 2_000_000, "{s:?}");
    }

    #[test]
    fn self_times_aggregate_by_name() {
        let mut r = Recorder::new(true);
        for req in 0..3u64 {
            let p = r.add("client.request", req * 100, req * 100 + 50, None, req);
            r.add("backend.infer_batch", req * 100 + 5, req * 100 + 45, p, req);
        }
        let t = r.self_times();
        assert_eq!(t["client.request"], SelfTime { count: 3, total_ns: 150, self_ns: 30 });
        assert_eq!(t["backend.infer_batch"], SelfTime { count: 3, total_ns: 120, self_ns: 120 });
    }

    #[test]
    fn trace_json_lists_every_span_with_its_parent() {
        let mut r = Recorder::new(true);
        let p = r.add("client.request", 0, 10, None, 4);
        r.add("serve.submit", 1, 2, p, 4);
        let v = r.to_json("stream-1m-int8");
        let spans = v.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert!(matches!(spans[0].get("parent"), Some(Value::Null)));
        assert_eq!(spans[1].get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(spans[1].get("request").and_then(Value::as_u64), Some(4));
    }
}
