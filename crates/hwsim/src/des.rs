//! Event-driven simulation of closed pipeline networks.
//!
//! Time is in integer nanoseconds. A *job* flows through a fixed sequence of
//! stages; each stage runs on one server of a named [`Resource`] for a
//! caller-supplied service time. At most `population` jobs are in flight
//! (closed network) — when one completes, the next is admitted at the same
//! instant. [`simulate_closed_pipeline`] is the one entry point; it is fully
//! deterministic given the service-time function.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A multi-server FIFO resource (e.g. "DPU cores" with 2 servers).
#[derive(Debug, Clone)]
pub struct Resource {
    /// Display name.
    pub name: String,
    /// Number of identical servers.
    pub servers: usize,
}

impl Resource {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        let servers_checked = servers;
        assert!(servers_checked >= 1, "resource needs at least one server");
        Self { name: name.into(), servers }
    }
}

/// One pipeline stage: which resource it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// Index into the resource table.
    pub resource: usize,
}

/// Simulation results.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total simulated time from first admission to last completion (ns).
    pub makespan_ns: u64,
    /// Per-resource total busy server-time (ns). Can exceed `makespan_ns`
    /// for multi-server resources.
    pub busy_ns: Vec<u64>,
    /// Jobs completed.
    pub completed: usize,
    /// Per-job completion times (ns), in completion order.
    pub completion_times_ns: Vec<u64>,
}

impl SimReport {
    /// Throughput in jobs per second.
    pub fn throughput_per_s(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.makespan_ns as f64 * 1e-9)
    }

    /// Utilisation of a resource in `[0, 1]` (busy server-time over
    /// capacity × makespan).
    pub fn utilisation(&self, resource: usize, servers: usize) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.busy_ns[resource] as f64 / (self.makespan_ns as f64 * servers as f64)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A job finished its current stage.
    StageDone { job: usize, stage: usize },
}

/// Simulates `n_jobs` jobs flowing through `stages` with at most
/// `population` jobs in flight; `service(job, stage)` is a stage's service
/// time in ns. Runs the simulation to completion.
pub fn simulate_closed_pipeline(
    resources: &[Resource],
    stages: &[StageSpec],
    population: usize,
    n_jobs: usize,
    service: impl Fn(usize, usize) -> u64,
) -> SimReport {
    assert!(population >= 1, "population must be >= 1");
    assert!(!stages.is_empty(), "pipeline needs at least one stage");
    for s in stages {
        assert!(s.resource < resources.len(), "stage references unknown resource");
    }
    let nr = resources.len();
    let mut free: Vec<usize> = resources.iter().map(|r| r.servers).collect();
    let mut queues: Vec<VecDeque<(usize, usize)>> = vec![VecDeque::new(); nr];
    let mut busy = vec![0u64; nr];
    let mut heap: BinaryHeap<Reverse<(u64, u64, Event)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    let mut admitted = 0usize;
    let mut completed = 0usize;
    let mut completion_times = Vec::with_capacity(n_jobs);

    // Either starts the stage now (if a server is free) or enqueues.
    macro_rules! try_start {
        ($job:expr, $stage:expr) => {{
            let r = stages[$stage].resource;
            if free[r] > 0 {
                free[r] -= 1;
                let dt = service($job, $stage);
                busy[r] += dt;
                seq += 1;
                heap.push(Reverse((now + dt, seq, Event::StageDone { job: $job, stage: $stage })));
            } else {
                queues[r].push_back(($job, $stage));
            }
        }};
    }

    // Admit the initial population.
    while admitted < population.min(n_jobs) {
        let job = admitted;
        admitted += 1;
        try_start!(job, 0);
    }

    while let Some(Reverse((t, _, Event::StageDone { job, stage }))) = heap.pop() {
        now = t;
        let r = stages[stage].resource;
        // Release the server; hand it to the next queued stage if any.
        if let Some((qjob, qstage)) = queues[r].pop_front() {
            let dt = service(qjob, qstage);
            busy[r] += dt;
            seq += 1;
            heap.push(Reverse((now + dt, seq, Event::StageDone { job: qjob, stage: qstage })));
        } else {
            free[r] += 1;
        }
        // Advance the job.
        if stage + 1 < stages.len() {
            try_start!(job, stage + 1);
        } else {
            completed += 1;
            completion_times.push(now);
            if admitted < n_jobs {
                let next = admitted;
                admitted += 1;
                try_start!(next, 0);
            }
        }
    }

    SimReport { makespan_ns: now, busy_ns: busy, completed, completion_times_ns: completion_times }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_resource(servers: usize) -> Vec<Resource> {
        vec![Resource::new("r0", servers)]
    }

    #[test]
    fn single_server_serialises_jobs() {
        let res = one_resource(1);
        let stages = [StageSpec { resource: 0 }];
        let rep = simulate_closed_pipeline(&res, &stages, 4, 10, |_, _| 100);
        assert_eq!(rep.completed, 10);
        assert_eq!(rep.makespan_ns, 1000);
        assert_eq!(rep.busy_ns[0], 1000);
        assert!((rep.utilisation(0, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_servers_halve_makespan() {
        let res = one_resource(2);
        let stages = [StageSpec { resource: 0 }];
        let rep = simulate_closed_pipeline(&res, &stages, 4, 10, |_, _| 100);
        assert_eq!(rep.makespan_ns, 500);
        assert!((rep.utilisation(0, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn population_one_cannot_pipeline() {
        // Two stages on distinct resources; with one job in flight, stages
        // never overlap: makespan = n * (s1 + s2).
        let res = vec![Resource::new("cpu", 1), Resource::new("acc", 1)];
        let stages = [StageSpec { resource: 0 }, StageSpec { resource: 1 }];
        let rep =
            simulate_closed_pipeline(&res, &stages, 1, 5, |_, s| if s == 0 { 30 } else { 70 });
        assert_eq!(rep.makespan_ns, 5 * 100);
        // Accelerator idles 30% of the time.
        assert!((rep.utilisation(1, 1) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn pipelining_hides_the_shorter_stage() {
        let res = vec![Resource::new("cpu", 1), Resource::new("acc", 1)];
        let stages = [StageSpec { resource: 0 }, StageSpec { resource: 1 }];
        let rep =
            simulate_closed_pipeline(&res, &stages, 2, 50, |_, s| if s == 0 { 30 } else { 70 });
        // Bottleneck = 70ns/job; makespan ≈ 50*70 + pipeline fill.
        assert!(rep.makespan_ns < 50 * 70 + 100, "{}", rep.makespan_ns);
        assert!(rep.utilisation(1, 1) > 0.97);
    }

    #[test]
    fn throughput_saturates_with_population() {
        // 3-stage pipeline: cpu(4) -> acc(2) -> cpu(4). Bottleneck: acc,
        // 2 servers x 100ns => 1 job / 50ns asymptotically.
        let res = vec![Resource::new("cpu", 4), Resource::new("acc", 2)];
        let stages =
            [StageSpec { resource: 0 }, StageSpec { resource: 1 }, StageSpec { resource: 0 }];
        let service = |_: usize, s: usize| match s {
            0 => 60,
            1 => 100,
            _ => 40,
        };
        let mut prev = 0.0;
        let mut rates = vec![];
        for population in [1usize, 2, 4, 8] {
            let rep = simulate_closed_pipeline(&res, &stages, population, 400, service);
            let rate = rep.throughput_per_s();
            assert!(rate >= prev * 0.999, "throughput must be monotone");
            prev = rate;
            rates.push(rate);
        }
        // 1 -> 2 threads is a big jump; 4 -> 8 is negligible (saturated).
        assert!(rates[1] > rates[0] * 1.5);
        assert!(rates[3] < rates[2] * 1.05);
    }

    #[test]
    fn zero_jobs_complete_instantly() {
        let res = one_resource(1);
        let stages = [StageSpec { resource: 0 }];
        let rep = simulate_closed_pipeline(&res, &stages, 2, 0, |_, _| 10);
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.makespan_ns, 0);
        assert_eq!(rep.throughput_per_s(), 0.0);
    }

    #[test]
    fn completion_times_are_monotone() {
        let res = vec![Resource::new("a", 2), Resource::new("b", 1)];
        let stages = [StageSpec { resource: 0 }, StageSpec { resource: 1 }];
        let rep = simulate_closed_pipeline(&res, &stages, 3, 20, |j, s| {
            10 + ((j * 7 + s * 13) % 23) as u64
        });
        for w in rep.completion_times_ns.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(rep.completion_times_ns.len(), 20);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn bad_stage_reference_panics() {
        let res = one_resource(1);
        let stages = [StageSpec { resource: 3 }];
        let _ = simulate_closed_pipeline(&res, &stages, 1, 1, |_, _| 1);
    }
}
