//! The generator's bookkeeping: one [`Outcome`] per frame attempted, one
//! [`Phase`] per timed stretch, and the end-to-end metrics derived from it.
//!
//! Rates are not taken over a phase as a whole: one stalled cycle (for a
//! second at a time a neighbour takes most of a core) moves a total over
//! eight batches by a tenth, and the process CPU clock ticks at 10 ms, a
//! sixteenth of a short cycle. A phase is cut into [`WINDOWS`] consecutive
//! windows, frame/s and CPU per frame are taken per window, and the median
//! window is reported.
//!
//! The end-to-end table reports the three timings at reference machine speed
//! (see [`crate::calib`]); every method of [`Phase`] returns wall-clock
//! readings, and [`Phase::end_to_end`] alone applies [`Phase::speed`].

use crate::calib;
use crate::ledger::Ledger;
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::sys;
use std::collections::BTreeMap;
use std::time::Instant;

/// Windows a phase is cut into for the timing metrics.
pub const WINDOWS: usize = 8;
/// A closed loop takes one machine-speed reading per this much of the cycle
/// before (at least one, at most [`MAX_READINGS`]): under 2 % of the time. The
/// first reading after a 2 s threaded batch is often half as slow again (the
/// batch's memory is still going back), and the median needs clean company.
const READING_EVERY_S: f64 = 0.4;
const MAX_READINGS: usize = 6;

/// How one attempted frame ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Answered correctly within the workload's latency limit.
    Ok,
    /// Answered correctly, but later than the limit.
    Late,
    /// Turned away at submission, or shed before execution.
    Refused,
    /// Errored, or answered with the wrong logits.
    Failed,
}

#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub class: Class,
    /// Caller-observed time; in the open loop counted from the instant the
    /// request was due. 0 for a frame that never got an answer.
    pub latency_ms: f64,
    /// How late the generator sent the request (open loop only).
    pub lateness_ms: f64,
    /// The [`Slice`] of its phase the frame was sent (open loop: due) in.
    pub slice: usize,
    /// The class of request it belongs to (the fleet's tenants; 0 elsewhere).
    pub group: usize,
}

impl Outcome {
    /// An answered frame: right or wrong, in time or late.
    pub fn answered(correct: bool, latency_ms: f64, lateness_ms: f64, limit_ms: f64) -> Self {
        let class = match (correct, latency_ms <= limit_ms) {
            (false, _) => Class::Failed,
            (true, true) => Class::Ok,
            (true, false) => Class::Late,
        };
        Self { class, latency_ms, lateness_ms, slice: 0, group: 0 }
    }

    pub fn unanswered(class: Class, lateness_ms: f64) -> Self {
        Self { class, latency_ms: 0.0, lateness_ms, slice: 0, group: 0 }
    }

    pub fn in_slice(mut self, slice: usize) -> Self {
        self.slice = slice;
        self
    }

    pub fn in_group(mut self, group: usize) -> Self {
        self.group = group;
        self
    }
}

/// The wall clock and the process CPU clock, read together.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub t: Instant,
    cpu_s: f64,
}

impl Mark {
    pub fn now() -> Self {
        Self { t: Instant::now(), cpu_s: sys::cpu_seconds() }
    }

    /// The stretch from `self` to `later`.
    pub fn until(&self, later: &Mark) -> Slice {
        Slice { wall_s: (later.t - self.t).as_secs_f64(), cpu_s: later.cpu_s - self.cpu_s }
    }
}

/// A stretch of a phase with its own clock readings: one cycle of a closed
/// loop, or one of [`WINDOWS`] equal parts of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub wall_s: f64,
    /// Process user + system CPU, every thread.
    pub cpu_s: f64,
}

/// A closed loop: `cycle(seq, rec)` sends one frame (or one batch), waits
/// for the answer and returns the outcomes; the next cycle starts when it
/// returns, until `seconds` have passed (the cycle in flight then finishes).
/// Every cycle is a [`Slice`] of its phase; between cycles, outside every
/// slice, the loop takes machine-speed readings.
///
/// With `rec` off this is the measured phase: returns it and an empty phase.
/// With `rec` on (a traced run) every other cycle runs with spans on; returns
/// the spans-off and the spans-on cycles as two phases. Alternating cycle by
/// cycle, not phase by phase, keeps the machine's drift out of the frame/s
/// gap between the two.
pub fn closed_loop(
    seconds: f64,
    rec: &mut Recorder,
    mut cycle: impl FnMut(usize, &mut Recorder) -> Vec<Outcome>,
) -> (Phase, Phase) {
    let tracing = rec.enabled();
    let begun = Instant::now();
    let mut sides = [Phase::default(), Phase::default()];
    let mut seq = 0usize;
    let mut last_cycle_s = 0.0;
    while begun.elapsed().as_secs_f64() < seconds {
        let traced = tracing && seq % 2 == 1;
        rec.set_enabled(traced);
        let side = &mut sides[usize::from(traced)];
        let readings = ((last_cycle_s / READING_EVERY_S) as usize).clamp(1, MAX_READINGS);
        side.calib_ms.extend((0..readings).map(|_| calib::reading_ms()));
        let start = Mark::now();
        let outcomes = cycle(seq, rec);
        let slice = side.slices.len();
        side.slices.push(start.until(&Mark::now()));
        last_cycle_s = side.slices[slice].wall_s;
        side.outcomes.extend(outcomes.into_iter().map(|o| o.in_slice(slice)));
        seq += 1;
    }
    rec.set_enabled(tracing);
    let [plain, traced] = sides;
    (plain, traced)
}

/// One timed stretch of a workload.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    /// Consecutive stretches the phase is made of; every outcome names one.
    pub slices: Vec<Slice>,
    /// [`calib::reading_ms`] readings taken over the phase, outside its
    /// slices: before every cycle of a closed loop. None in an open
    /// loop: a reading needs the cores to itself, and readings taken before
    /// and after the phase did not track its latency (README, "Machine
    /// speed"), so an open loop reports wall-clock time.
    pub calib_ms: Vec<f64>,
    /// Open loop: the length of the arrival schedule. The phase's frame/s
    /// counts against at least this (the answers may all be in before the
    /// schedule's nominal end), and is taken over the whole phase: arrivals
    /// per window are a matter of the seed, not of the system.
    pub schedule_s: Option<f64>,
}

/// What one window of a phase saw.
#[derive(Debug, Default)]
struct Window {
    wall_s: f64,
    cpu_s: f64,
    ok: u64,
    /// Answered correctly, in time or late.
    served: u64,
}

impl Phase {
    pub fn count(&self, class: Class) -> u64 {
        self.outcomes.iter().filter(|o| o.class == class).count() as u64
    }

    pub fn attempted(&self) -> u64 {
        self.outcomes.len() as u64
    }

    /// Refused, shed, errored or wrong.
    pub fn failed(&self) -> u64 {
        self.count(Class::Refused) + self.count(Class::Failed)
    }

    pub fn wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }

    /// Speed of the machine over the phase.
    pub fn speed(&self) -> f64 {
        calib::speed(&self.calib_ms)
    }

    fn served_latencies(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.class, Class::Ok | Class::Late))
            .map(|o| o.latency_ms)
            .collect()
    }

    fn share(&self, n: u64) -> f64 {
        n as f64 / self.attempted().max(1) as f64
    }

    /// The phase as at most [`WINDOWS`] runs of consecutive slices, equal in
    /// slice count (to within one).
    fn windows(&self) -> Vec<Window> {
        let n = self.slices.len();
        let w = WINDOWS.min(n);
        let mut windows: Vec<Window> = (0..w).map(|_| Window::default()).collect();
        for (i, s) in self.slices.iter().enumerate() {
            windows[i * w / n].wall_s += s.wall_s;
            windows[i * w / n].cpu_s += s.cpu_s;
        }
        for o in &self.outcomes {
            let window = &mut windows[o.slice * w / n];
            window.ok += u64::from(o.class == Class::Ok);
            window.served += u64::from(matches!(o.class, Class::Ok | Class::Late));
        }
        windows
    }

    /// The median window's reading (windows without one are left out).
    fn median_window(&self, reading: impl Fn(&Window) -> Option<f64>) -> f64 {
        median(&self.windows().iter().filter_map(reading).collect::<Vec<_>>())
    }

    /// Frames answered correctly and in time per second of wall time: the
    /// median window of a closed loop, the whole phase of an open one.
    pub fn frames_per_s(&self) -> f64 {
        match self.schedule_s {
            Some(s) => self.count(Class::Ok) as f64 / self.wall_s().max(s),
            None => self.median_window(|w| (w.wall_s > 0.0).then(|| w.ok as f64 / w.wall_s)),
        }
    }

    /// Median latency of the frames answered correctly, taken per request
    /// group and averaged by the groups' shares of those frames. The fleet's
    /// tenants are served by models of different cost, and the median of the
    /// mix falls in the gap between two of them, where a shift of 1 ms in
    /// either moves it by several.
    pub fn latency_p50_ms(&self) -> f64 {
        let mut by_group: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for o in self.outcomes.iter().filter(|o| matches!(o.class, Class::Ok | Class::Late)) {
            by_group.entry(o.group).or_default().push(o.latency_ms);
        }
        let served: usize = by_group.values().map(Vec::len).sum();
        by_group.values().map(|lat| median(lat) * lat.len() as f64).sum::<f64>()
            / served.max(1) as f64
    }

    /// Process CPU per frame answered correctly, of the median window.
    pub fn cpu_s_per_frame(&self) -> f64 {
        self.median_window(|w| (w.served > 0).then(|| w.cpu_s / w.served as f64))
    }

    pub fn slo_met_share(&self) -> f64 {
        self.share(self.count(Class::Ok))
    }

    /// One line for the run's log: counts, and the latency distribution
    /// with its sample count.
    pub fn summary(&self) -> String {
        let lat = self.served_latencies();
        let q = |p| percentile(&lat, p);
        format!(
            "{} sent ({} ok, {} late, {} refused, {} failed) in {:.2} s; latency ms over {} frames: p10 {:.2} p25 {:.2} p50 {:.2} p75 {:.2} p90 {:.2} max {:.2}",
            self.attempted(),
            self.count(Class::Ok),
            self.count(Class::Late),
            self.count(Class::Refused),
            self.count(Class::Failed),
            self.wall_s(),
            lat.len(),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            q(1.0)
        )
    }

    /// The measured phase's share of the end-to-end table: the timings at
    /// reference machine speed (an open loop has no readings and its speed
    /// reads 1), the share as counted.
    pub fn end_to_end(&self, ledger: &mut Ledger) {
        let speed = self.speed();
        eprintln!(
            "[client] machine speed {speed:.4} (calibration median {:.3} ms over {} readings); as measured: {:.4} frame/s, p50 {:.3} ms, {:.5} CPU s/frame",
            median(&self.calib_ms),
            self.calib_ms.len(),
            self.frames_per_s(),
            self.latency_p50_ms(),
            self.cpu_s_per_frame()
        );
        ledger.set("frames_per_s", self.frames_per_s() / speed);
        ledger.set("latency_p50_ms", self.latency_p50_ms() * speed);
        ledger.set("slo_met_share", self.slo_met_share());
        ledger.set("cpu_s_per_frame", self.cpu_s_per_frame() * speed);
    }

    /// The traced phase's `client.*` diagnostics. `untraced` is the same
    /// workload with spans off; the frame/s gap is the tracing overhead.
    pub fn client_metrics(&self, untraced: &Phase, ledger: &mut Ledger) {
        let lat = self.served_latencies();
        let lateness: Vec<f64> = self.outcomes.iter().map(|o| o.lateness_ms).collect();
        ledger.set("client.calib_ms", median(&self.calib_ms));
        ledger.set("client.latency_p50_ms", self.latency_p50_ms());
        ledger.set("client.latency_p90_ms", percentile(&lat, 0.9));
        ledger.set("client.latency_max_ms", percentile(&lat, 1.0));
        ledger.set("client.lateness_p90_ms", percentile(&lateness, 0.9));
        ledger.set("client.sent", self.attempted() as f64);
        ledger.set("client.ok", self.count(Class::Ok) as f64);
        ledger.set("client.refused", self.count(Class::Refused) as f64);
        ledger.set("client.failed", self.count(Class::Failed) as f64);
        ledger.set("client.late", self.count(Class::Late) as f64);
        ledger.set("client.failed_share", self.share(self.failed()));
        let base = untraced.frames_per_s();
        let overhead = if base > 0.0 { (base - self.frames_per_s()) / base } else { 0.0 };
        ledger.set("client.trace_overhead_share", overhead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five frames in one slice of 2 s wall, 3 s CPU.
    fn phase() -> Phase {
        let outcomes = vec![
            Outcome::answered(true, 10.0, 0.0, 50.0),
            Outcome::answered(true, 30.0, 1.0, 50.0),
            Outcome::answered(true, 80.0, 2.0, 50.0),
            Outcome::answered(false, 20.0, 0.0, 50.0),
            Outcome::unanswered(Class::Refused, 0.5),
        ];
        Phase {
            outcomes,
            slices: vec![Slice { wall_s: 2.0, cpu_s: 3.0 }],
            calib_ms: vec![calib::REFERENCE_MS],
            schedule_s: None,
        }
    }

    /// One frame per slice, each slice `wall_s[i]` long and all of it latency.
    fn one_frame_cycles(wall_s: &[f64]) -> Phase {
        Phase {
            outcomes: (0..wall_s.len())
                .map(|i| Outcome::answered(true, wall_s[i] * 1e3, 0.0, 1e9).in_slice(i))
                .collect(),
            slices: wall_s.iter().map(|&w| Slice { wall_s: w, cpu_s: 2.0 * w }).collect(),
            calib_ms: Vec::new(),
            schedule_s: None,
        }
    }

    #[test]
    fn closed_loop_alternates_spans_only_in_a_traced_run() {
        let cycle = |seq: usize, rec: &mut Recorder| {
            let span = rec.open("client.request", None, seq as u64);
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.close(span);
            vec![Outcome::answered(true, 2.0, 0.0, 50.0)]
        };
        let mut off = Recorder::new(false);
        let (measured, none) = closed_loop(0.2, &mut off, cycle);
        assert!(measured.attempted() >= 5 && none.attempted() == 0);
        assert!(off.spans().is_empty());
        // One slice per cycle, and every outcome names its own.
        assert_eq!(measured.slices.len() as u64, measured.attempted());
        assert_eq!(measured.calib_ms.len(), measured.slices.len()); // short cycles: one each
        assert!(measured.outcomes.iter().enumerate().all(|(i, o)| o.slice == i));
        assert!(measured.wall_s() >= 0.002 * measured.attempted() as f64);

        let mut on = Recorder::new(true);
        let (plain, traced) = closed_loop(0.2, &mut on, cycle);
        // The same length, split evenly; only the traced half left spans.
        assert!(plain.attempted().abs_diff(traced.attempted()) <= 1);
        assert_eq!(on.spans().len() as u64, traced.attempted());
        assert!(on.spans().iter().all(|s| s.request % 2 == 1));
        assert_eq!(traced.slices.len() as u64, traced.attempted());
        assert!(on.enabled());
    }

    #[test]
    fn every_attempt_lands_in_exactly_one_class() {
        let p = phase();
        assert_eq!(p.attempted(), 5);
        assert_eq!(
            (
                p.count(Class::Ok),
                p.count(Class::Late),
                p.count(Class::Refused),
                p.count(Class::Failed)
            ),
            (2, 1, 1, 1)
        );
        assert_eq!(p.failed(), 2);
    }

    #[test]
    fn end_to_end_metrics_count_late_and_failed_frames_as_misses() {
        let p = phase();
        let mut l = Ledger::default();
        p.end_to_end(&mut l);
        assert_eq!(l.get("frames_per_s"), Some(1.0)); // 2 ok / 2 s
        assert_eq!(l.get("latency_p50_ms"), Some(30.0)); // median of 10, 30, 80
        assert_eq!(l.get("slo_met_share"), Some(0.4));
        assert_eq!(l.get("cpu_s_per_frame"), Some(1.0)); // 3 s / 3 served

        // On a machine half as fast as the reference the same readings mean
        // half the time per frame and twice the rate; counts stay.
        let mut slow = phase();
        slow.calib_ms = vec![2.0 * calib::REFERENCE_MS];
        assert_eq!(slow.speed(), 0.5);
        slow.end_to_end(&mut l);
        assert_eq!(l.get("frames_per_s"), Some(2.0));
        assert_eq!(l.get("latency_p50_ms"), Some(15.0));
        assert_eq!(l.get("cpu_s_per_frame"), Some(0.5));
        assert_eq!(l.get("slo_met_share"), Some(0.4));
        assert_eq!(slow.latency_p50_ms(), 30.0); // the methods stay wall-clock
                                                 // Without readings (an open loop) the table is wall-clock too.
        slow.calib_ms.clear();
        slow.end_to_end(&mut l);
        assert_eq!(l.get("latency_p50_ms"), Some(30.0));
    }

    #[test]
    fn latency_is_the_share_weighted_mean_of_the_group_medians() {
        // Group 0: 10, 12, 14 (median 12). Group 1: 40 (median 40). The mix's
        // own median would be 13; the late frame counts, the failed does not.
        let frame = |ms: f64, group: usize| Outcome::answered(true, ms, 0.0, 30.0).in_group(group);
        let mut p = phase();
        p.outcomes = vec![frame(10.0, 0), frame(12.0, 0), frame(14.0, 0), frame(40.0, 1)];
        p.outcomes.push(Outcome::answered(false, 99.0, 0.0, 30.0).in_group(1));
        assert_eq!(p.count(Class::Late), 1);
        assert!((p.latency_p50_ms() - (12.0 * 3.0 + 40.0) / 4.0).abs() < 1e-12);
        p.outcomes.clear();
        assert_eq!(p.latency_p50_ms(), 0.0);
    }

    #[test]
    fn rates_read_the_median_window() {
        // 16 cycles make 8 windows of two; the first window stalls (x10).
        let mut wall = vec![0.1; 16];
        wall[0] = 1.9;
        let p = one_frame_cycles(&wall);
        let windows = p.windows();
        assert_eq!(windows.len(), WINDOWS);
        assert!((windows[0].wall_s - 2.0).abs() < 1e-12);
        assert_eq!((windows[0].ok, windows[0].served), (2, 2));
        // 16 frames in 3.4 s are 4.7 frame/s; the median window ran at 10.
        assert!((p.wall_s() - 3.4).abs() < 1e-9);
        assert!((p.frames_per_s() - 10.0).abs() < 1e-9);
        assert!((p.cpu_s_per_frame() - 0.2).abs() < 1e-9);
        assert!((p.latency_p50_ms() - 100.0).abs() < 1e-9);

        // Fewer slices than windows: one window per slice.
        assert_eq!(one_frame_cycles(&[0.1, 0.3, 0.2]).windows().len(), 3);
        assert!((one_frame_cycles(&[0.1, 0.3, 0.2]).frames_per_s() - 5.0).abs() < 1e-9);
        assert_eq!(Phase::default().frames_per_s(), 0.0);
    }

    #[test]
    fn open_loop_frames_per_s_is_taken_over_the_schedule() {
        let mut p = phase();
        p.schedule_s = Some(4.0); // all answers in after 2 s of a 4 s schedule
        assert_eq!(p.frames_per_s(), 0.5);
        p.schedule_s = Some(1.0); // the tail ran past the schedule's end
        assert_eq!(p.frames_per_s(), 1.0);
    }

    #[test]
    fn client_metrics_report_counts_and_the_overhead_gap() {
        let traced = phase();
        let mut untraced = phase();
        untraced.slices[0].wall_s = 1.6; // 1.25 frame/s against 1.0 traced
        let mut l = Ledger::default();
        traced.client_metrics(&untraced, &mut l);
        assert_eq!(l.get("client.sent"), Some(5.0));
        assert_eq!(l.get("client.late"), Some(1.0));
        assert_eq!(l.get("client.failed_share"), Some(0.4));
        assert_eq!(l.get("client.latency_max_ms"), Some(80.0));
        assert_eq!(l.get("client.latency_p50_ms"), Some(30.0));
        assert_eq!(l.get("client.calib_ms"), Some(calib::REFERENCE_MS));
        assert!((l.get("client.trace_overhead_share").unwrap() - 0.2).abs() < 1e-12);
    }
}
