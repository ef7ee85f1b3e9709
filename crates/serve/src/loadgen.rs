//! Synthetic load generation: the one pair of arrival loops in the
//! workspace, seeded and deterministic in their draws.
//!
//! * **closed loop** — `clients` workers each keep exactly one request in
//!   flight (submit → wait → submit). Offered load self-regulates to the
//!   service rate, so the measured served-FPS *is* the saturation
//!   throughput when `clients` exceeds the replica count;
//! * **open loop** — requests arrive as a Poisson process on an absolute
//!   schedule regardless of completions, which is what a fleet of
//!   independent edge clients looks like. Offered load can exceed
//!   capacity, which is exactly how admission control gets exercised.
//!
//! [`drive`] runs either loop over any submit/await pair; [`run_load`] is
//! its [`ServeHandle`] front end, and `seneca-fleet` drives its tenants
//! through the same function.

use crate::request::Priority;
use crate::server::ServeHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seneca_tensor::Tensor;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How requests arrive.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalProcess {
    /// `clients` workers, one outstanding request each.
    ClosedLoop {
        /// Concurrent workers.
        clients: usize,
    },
    /// Poisson arrivals at `rate_fps` regardless of completions.
    OpenLoop {
        /// Offered load in requests per second.
        rate_fps: f64,
    },
}

/// One load-generation run against a [`ServeHandle`].
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Total requests to submit.
    pub requests: usize,
    /// Probability that a request is [`Priority::Interactive`].
    pub interactive_fraction: f64,
    /// Relative deadline attached to every request (`None` = no SLO).
    pub deadline: Option<Duration>,
    /// Arrival discipline.
    pub arrival: ArrivalProcess,
    /// Seed for priority draws and Poisson inter-arrivals.
    pub seed: u64,
}

impl LoadSpec {
    /// A full-throttle closed loop of `clients` workers.
    pub fn closed(requests: usize, clients: usize, seed: u64) -> Self {
        Self {
            requests,
            interactive_fraction: 1.0,
            deadline: None,
            arrival: ArrivalProcess::ClosedLoop { clients },
            seed,
        }
    }

    /// An open loop of Poisson arrivals at `rate_fps`.
    pub fn open(requests: usize, rate_fps: f64, seed: u64) -> Self {
        Self {
            requests,
            interactive_fraction: 1.0,
            deadline: None,
            arrival: ArrivalProcess::OpenLoop { rate_fps },
            seed,
        }
    }
}

/// Outcome of a load run, from the clients' point of view. Server-side
/// truth is in the server's own statistics.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Offered load (requests / submission-schedule span).
    pub offered_fps: f64,
    /// First submission → last resolution (s).
    pub wall_s: f64,
    /// Requests answered with a prediction.
    pub ok: u64,
    /// Requests refused at submission or resolved with an error.
    pub errored: u64,
}

/// Drives one load run; every request submits a clone of `frame`.
pub fn run_load(handle: &ServeHandle, frame: &Tensor, spec: &LoadSpec) -> LoadReport {
    let p = spec.interactive_fraction;
    drive(
        spec.arrival,
        spec.requests,
        spec.seed,
        |rng| {
            let priority = if p >= 1.0 || rng.gen_bool(p.clamp(0.0, 1.0)) {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            handle.submit(frame.clone(), priority, spec.deadline).ok()
        },
        |ticket| ticket.wait().result.is_ok(),
    )
}

/// Runs `requests` arrivals of `arrival`. `submit` draws what it needs
/// from the loop's seeded generator and admits one request, `None` when it
/// was refused; `resolve` awaits an admitted one, `true` when it was
/// answered with a prediction.
pub fn drive<T>(
    arrival: ArrivalProcess,
    requests: usize,
    seed: u64,
    submit: impl Fn(&mut StdRng) -> Option<T> + Sync,
    resolve: impl Fn(T) -> bool + Sync,
) -> LoadReport {
    match arrival {
        ArrivalProcess::ClosedLoop { clients } => {
            closed_loop(clients, requests, seed, &submit, &resolve)
        }
        ArrivalProcess::OpenLoop { rate_fps } => {
            open_loop(rate_fps, requests, seed, &submit, &resolve)
        }
    }
}

fn closed_loop<T>(
    clients: usize,
    requests: usize,
    seed: u64,
    submit: &(impl Fn(&mut StdRng) -> Option<T> + Sync),
    resolve: &(impl Fn(T) -> bool + Sync),
) -> LoadReport {
    let remaining = AtomicI64::new(requests as i64);
    let ok = AtomicU64::new(0);
    let errored = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients.max(1) {
            let (remaining, ok, errored) = (&remaining, &ok, &errored);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37_79B9));
                while remaining.fetch_sub(1, Ordering::Relaxed) > 0 {
                    let outcome = if submit(&mut rng).is_some_and(resolve) { ok } else { errored };
                    outcome.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let (ok, errored) = (ok.into_inner(), errored.into_inner());
    LoadReport {
        // Closed loops offer exactly what completes.
        offered_fps: (ok + errored) as f64 / wall_s,
        wall_s,
        ok,
        errored,
    }
}

fn open_loop<T>(
    rate_fps: f64,
    requests: usize,
    seed: u64,
    submit: &impl Fn(&mut StdRng) -> Option<T>,
    resolve: &impl Fn(T) -> bool,
) -> LoadReport {
    assert!(rate_fps > 0.0, "open-loop rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let mut next = t0;
    let mut admitted = Vec::with_capacity(requests);
    for _ in 0..requests {
        let now = Instant::now();
        // Absolute schedule: if submission falls behind (sleep granularity,
        // a blocking admission), later requests burst to restore the rate.
        if next > now {
            std::thread::sleep(next - now);
        }
        admitted.extend(submit(&mut rng));
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        next += Duration::from_secs_f64(-u.ln() / rate_fps);
    }
    let schedule_s = (next - t0).as_secs_f64().max(1e-9);
    let ok = admitted.into_iter().map(|t| u64::from(resolve(t))).sum::<u64>();
    LoadReport {
        offered_fps: requests as f64 / schedule_s,
        wall_s: t0.elapsed().as_secs_f64(),
        ok,
        errored: requests as u64 - ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::AdmissionPolicy;
    use crate::server::{ServeConfig, Server};
    use crate::synthetic::SyntheticBackend;
    use seneca_tensor::Shape4;
    use std::sync::Arc;

    fn tiny_frame() -> Tensor {
        Tensor::from_vec(Shape4::new(1, 2, 2, 2), (0..8).map(|i| i as f32).collect())
    }

    #[test]
    fn closed_loop_serves_every_request() {
        let server = Server::start(
            Arc::new(SyntheticBackend::new(Duration::from_micros(200))),
            ServeConfig::default(),
        );
        let spec = LoadSpec::closed(40, 4, 7);
        let rep = run_load(&server.handle(), &tiny_frame(), &spec);
        assert_eq!(rep.ok, 40);
        assert_eq!(rep.errored, 0);
        assert_eq!(server.shutdown().served, 40);
        assert!(rep.offered_fps > 0.0);
    }

    #[test]
    fn open_loop_overload_rejects_some() {
        let server = Server::start(
            Arc::new(SyntheticBackend::new(Duration::from_millis(5))),
            ServeConfig {
                replicas: 1,
                max_batch: 1,
                max_delay: Duration::ZERO,
                queue_capacity: 1,
                admission: AdmissionPolicy::RejectWhenFull,
            },
        );
        // Service rate ≈ 200/s; offer 2000/s.
        let spec = LoadSpec::open(60, 2000.0, 11);
        let rep = run_load(&server.handle(), &tiny_frame(), &spec);
        assert!(rep.errored > 0, "overload must reject: {rep:?}");
        assert!(rep.ok > 0, "some requests still get served");
        assert_eq!(rep.ok + rep.errored, 60);
        assert_eq!(server.shutdown().rejected, rep.errored);
    }

    /// The loops only see the submit/await pair: a refusal and a failed
    /// resolution both count as errored, in either discipline.
    #[test]
    fn drive_counts_refusals_and_failures() {
        for arrival in
            [ArrivalProcess::ClosedLoop { clients: 3 }, ArrivalProcess::OpenLoop { rate_fps: 1e6 }]
        {
            let rep = drive(arrival, 30, 5, |rng| Some(rng.gen_range(0..3u32)), |v| v != 0);
            assert_eq!(rep.ok + rep.errored, 30, "{arrival:?}");
            let rep = drive(arrival, 30, 5, |_| None::<()>, |_| true);
            assert_eq!((rep.ok, rep.errored), (0, 30), "{arrival:?}");
        }
    }
}
