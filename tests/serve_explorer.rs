//! A seeded virtual-time explorer for the serving core,
//! `seneca_serve::Intake`.
//!
//! Each schedule drives the core the way `seneca_serve::Server` does — a
//! pool of 1 to 3 replicas, each with its own `Collector`, woken like the
//! server's two condvars: a submission wakes one idle replica and every
//! holding one, a replica going idle wakes every holding one, closing wakes
//! all, and schedules inject spurious wake-ups — on a simulated clock. The
//! simulated backend panics, stalls, or answers one prediction short when a
//! batch holds a request carrying that fault, and the pool resolves each
//! batch through `seneca_serve::settle` as the server does. After every
//! event the explorer checks:
//!
//! 1. every request resolves exactly once, with a typed outcome;
//! 2. `submitted = served + shed + rejected + failed` once the schedule
//!    drains;
//! 3. a `Batch` request is taken for dispatch only while no `Interactive`
//!    one is queued;
//! 4. no batch exceeds `max_batch`, and no expired request is dispatched;
//! 5. while a replica waits for work no collector holds a partial batch,
//!    and a lone collector never holds one past its window's end;
//!
//! and that no replica waits for work while a request is queued. A failing
//! schedule panics with its seed and the shortest failing prefix of its
//! event list.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use seneca_serve::{settle, Collector, Intake, Priority, Queued, ServeError, Step};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

/// Schedules explored per run: a fixed budget, so the run is repeatable.
const SCHEDULES: u64 = 300;

/// What the simulated backend does with a batch holding the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    None,
    Panic,
    Stall,
    Short,
}

/// One input of a schedule; times are µs after the schedule's start.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A submission; `deadline` is relative to `at`.
    Submit { at: u64, priority: Priority, deadline: Option<u64>, fault: Fault },
    /// A spurious wake-up of one replica.
    Wake { at: u64, replica: usize },
    /// The server shuts down.
    Close { at: u64 },
}

impl Event {
    fn at(&self) -> u64 {
        match *self {
            Event::Submit { at, .. } | Event::Wake { at, .. } | Event::Close { at } => at,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Config {
    replicas: usize,
    capacity: usize,
    max_batch: usize,
    max_delay: Duration,
}

#[derive(Debug)]
struct Req {
    id: usize,
    priority: Priority,
    deadline: Option<Instant>,
    fault: Fault,
}

impl Queued for Req {
    fn priority(&self) -> Priority {
        self.priority
    }
    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Served,
    Refused(ServeError),
    Shed,
    Failed,
}

enum State {
    /// About to poll without waiting: started, or back from a batch.
    Ready,
    /// Waiting for work (its last step was `WaitForWork`).
    Idle,
    /// Holding a partial batch until this instant.
    Holding(Instant),
    /// Running a batch until this instant.
    Busy(Instant, Vec<Req>),
    Exited,
}

struct Replica {
    state: State,
    collector: Collector<Req>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    WindowEnd(usize),
    Finish(usize),
}

struct Sim {
    config: Config,
    t0: Instant,
    now: Instant,
    intake: Intake<Req>,
    replicas: Vec<Replica>,
    timers: BinaryHeap<Reverse<(Instant, u64, Timer)>>,
    next_timer: u64,
    /// Orders wake-ups and picks the replica a submission wakes.
    rng: StdRng,
    priority: Vec<Priority>,
    outcomes: Vec<Option<Outcome>>,
    /// Submissions, and resolutions as served, shed, rejected, failed.
    submitted: u64,
    counts: [u64; 4],
    closed: bool,
    /// Admitted requests still in the intake's FIFOs.
    queued: BTreeSet<usize>,
    /// When each request was taken from the intake.
    taken_at: Vec<Option<Instant>>,
}

macro_rules! check {
    ($sim:expr, $cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!("at {:?}: {}", $sim.now - $sim.t0, format!($($msg)+)));
        }
    };
}

impl Sim {
    fn new(config: Config, seed: u64) -> Self {
        let t0 = Instant::now();
        Self {
            config,
            t0,
            now: t0,
            intake: Intake::new(config.capacity, config.max_batch, config.max_delay),
            replicas: (0..config.replicas)
                .map(|_| Replica { state: State::Ready, collector: Collector::default() })
                .collect(),
            timers: BinaryHeap::new(),
            next_timer: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_0A7E),
            priority: Vec::new(),
            outcomes: Vec::new(),
            submitted: 0,
            counts: [0; 4],
            closed: false,
            queued: BTreeSet::new(),
            taken_at: Vec::new(),
        }
    }

    fn at(&self, us: u64) -> Instant {
        self.t0 + Duration::from_micros(us)
    }

    fn resolve(&mut self, id: usize, outcome: Outcome) -> Result<(), String> {
        check!(self, self.outcomes[id].is_none(), "request {id} resolved twice");
        self.outcomes[id] = Some(outcome);
        self.counts[match outcome {
            Outcome::Served => 0,
            Outcome::Shed => 1,
            Outcome::Refused(_) => 2,
            Outcome::Failed => 3,
        }] += 1;
        Ok(())
    }

    fn timer(&mut self, at: Instant, timer: Timer) {
        self.timers.push(Reverse((at, self.next_timer, timer)));
        self.next_timer += 1;
    }

    fn holding(&self) -> Vec<usize> {
        (0..self.replicas.len())
            .filter(|&r| matches!(self.replicas[r].state, State::Holding(_)))
            .collect()
    }

    /// Polls the woken replicas (and those their steps wake) in a seeded
    /// order, then checks the invariants that hold between events.
    fn wake(&mut self, mut woken: Vec<usize>) -> Result<(), String> {
        woken.shuffle(&mut self.rng);
        let mut work = VecDeque::from(woken);
        while let Some(r) = work.pop_front() {
            if matches!(self.replicas[r].state, State::Ready | State::Idle | State::Holding(_)) {
                let mut also = self.poll(r)?;
                also.shuffle(&mut self.rng);
                work.extend(also);
            }
        }
        let idle = self.replicas.iter().any(|r| matches!(r.state, State::Idle));
        check!(self, !idle || self.holding().is_empty(), "a collector holds while a peer idles");
        check!(self, !idle || self.queued.is_empty(), "a replica idles while work is queued");
        Ok(())
    }

    /// One step of replica `r`; returns the replicas the step wakes.
    fn poll(&mut self, r: usize) -> Result<Vec<usize>, String> {
        let now = self.now;
        let before: Vec<usize> = self.replicas[r].collector.held().iter().map(|q| q.id).collect();
        let mut shed = Vec::new();
        let step = self.intake.poll(&mut self.replicas[r].collector, now, &mut shed);
        let held: Vec<usize> = self.replicas[r].collector.held().iter().map(|q| q.id).collect();
        let dispatched: Vec<usize> = match &step {
            Step::Dispatch(batch) => batch.iter().map(|q| q.id).collect(),
            _ => Vec::new(),
        };
        let shed_ids: Vec<usize> = shed.iter().map(|q| q.id).collect();
        for q in shed {
            check!(self, q.expired(now), "request {} shed before its deadline", q.id);
            self.resolve(q.id, Outcome::Shed)?;
        }
        let taken: Vec<usize> = held
            .iter()
            .chain(&dispatched)
            .chain(&shed_ids)
            .copied()
            .filter(|id| !before.contains(id))
            .collect();
        for &id in &taken {
            check!(self, self.queued.remove(&id), "request {id} taken twice");
            self.taken_at[id] = Some(now);
        }
        let took_batch = taken.iter().any(|&id| self.priority[id] == Priority::Batch);
        let interactive_queued =
            self.queued.iter().any(|&id| self.priority[id] == Priority::Interactive);
        check!(
            self,
            !(took_batch && interactive_queued),
            "batch work taken over queued interactive"
        );

        Ok(match step {
            Step::Dispatch(batch) => {
                check!(self, !batch.is_empty(), "empty dispatch");
                check!(self, batch.len() <= self.config.max_batch, "batch of {}", batch.len());
                check!(self, batch.iter().all(|q| !q.expired(now)), "expired request dispatched");
                let stall = batch.iter().any(|q| q.fault == Fault::Stall);
                let run = 500 + 250 * batch.len() as u64 + if stall { 20_000 } else { 0 };
                let until = now + Duration::from_micros(run);
                self.timer(until, Timer::Finish(r));
                self.replicas[r].state = State::Busy(until, batch);
                Vec::new()
            }
            Step::WaitUntil(end) => {
                let started = held.iter().filter_map(|&id| self.taken_at[id]).min();
                check!(self, !held.is_empty() && held.len() < self.config.max_batch, "bad hold");
                check!(self, now < end, "held past the window's end {:?}", end - self.t0);
                check!(
                    self,
                    started.is_some_and(|s| end <= s + self.config.max_delay),
                    "window ends {:?}, past max_delay after the first held request",
                    end - self.t0
                );
                self.timer(end, Timer::WindowEnd(r));
                self.replicas[r].state = State::Holding(end);
                Vec::new()
            }
            Step::WaitForWork => {
                self.replicas[r].state = State::Idle;
                self.holding()
            }
            Step::Closed => {
                self.replicas[r].state = State::Exited;
                Vec::new()
            }
        })
    }

    fn fire(&mut self, timer: Timer) -> Result<(), String> {
        match timer {
            Timer::WindowEnd(r) => {
                if matches!(self.replicas[r].state, State::Holding(end) if end == self.now) {
                    self.wake(vec![r])?;
                }
            }
            Timer::Finish(r) => {
                let State::Busy(until, batch) =
                    std::mem::replace(&mut self.replicas[r].state, State::Idle)
                else {
                    return Err(format!("replica {r} finished while not busy"));
                };
                check!(self, until == self.now, "replica {r} finished early");
                let faults: Vec<Fault> = batch.iter().map(|q| q.fault).collect();
                let preds = if faults.contains(&Fault::Panic) {
                    None
                } else {
                    Some(vec![(); batch.len() - usize::from(faults.contains(&Fault::Short))])
                };
                for (q, result) in settle(batch, preds) {
                    let outcome = match result {
                        Ok(()) => Outcome::Served,
                        Err(ServeError::BackendFailed) => Outcome::Failed,
                        Err(e) => return Err(format!("settle answered {e:?}")),
                    };
                    self.resolve(q.id, outcome)?;
                }
                self.replicas[r].state = State::Ready;
                self.wake(vec![r])?;
            }
        }
        Ok(())
    }

    /// Fires every timer due by `until`, then moves the clock there.
    fn advance(&mut self, until: Instant) -> Result<(), String> {
        while let Some(&Reverse((at, _, timer))) = self.timers.peek() {
            if at > until {
                break;
            }
            self.timers.pop();
            self.now = at;
            self.fire(timer)?;
        }
        self.now = self.now.max(until);
        Ok(())
    }

    fn input(&mut self, event: Event) -> Result<(), String> {
        match event {
            Event::Submit { at, priority, deadline, fault } => {
                let id = self.outcomes.len();
                self.submitted += 1;
                self.priority.push(priority);
                self.outcomes.push(None);
                self.taken_at.push(None);
                let deadline = deadline.map(|d| self.at(at + d));
                let (full, closed) = (self.queued.len() == self.config.capacity, self.closed);
                match self.intake.push(Req { id, priority, deadline, fault }) {
                    Ok(()) => {
                        check!(
                            self,
                            !full && !closed,
                            "admitted (queue full: {full}, closed: {closed})"
                        );
                        self.queued.insert(id);
                        let idle: Vec<usize> = (0..self.replicas.len())
                            .filter(|&r| matches!(self.replicas[r].state, State::Idle))
                            .collect();
                        let mut woken = self.holding();
                        woken.extend(idle.choose(&mut self.rng));
                        self.wake(woken)
                    }
                    Err(e) => {
                        let expected =
                            if closed { ServeError::ShuttingDown } else { ServeError::QueueFull };
                        check!(
                            self,
                            (full || closed) && e == expected,
                            "refused with {e:?} (queue full: {full}, closed: {closed})"
                        );
                        self.resolve(id, Outcome::Refused(e))
                    }
                }
            }
            Event::Wake { replica, .. } => self.wake(vec![replica % self.replicas.len()]),
            Event::Close { .. } => {
                self.intake.close();
                self.closed = true;
                self.wake((0..self.replicas.len()).collect())
            }
        }
    }
}

/// Runs the first `len` events of a schedule, then closes and drains.
fn run(seed: u64, config: Config, events: &[Event]) -> Result<(), String> {
    let mut sim = Sim::new(config, seed);
    sim.wake((0..config.replicas).collect())?;
    for &event in events {
        sim.advance(sim.at(event.at()))?;
        sim.input(event)?;
    }
    sim.input(Event::Close { at: 0 })?;
    sim.advance(sim.now + Duration::from_secs(3600))?;

    check!(
        sim,
        sim.replicas.iter().all(|r| matches!(r.state, State::Exited)),
        "a replica never exited"
    );
    if let Some(id) = sim.outcomes.iter().position(Option::is_none) {
        return Err(format!("request {id} never resolved"));
    }
    let [served, shed, rejected, failed] = sim.counts;
    check!(
        sim,
        sim.submitted == served + shed + rejected + failed,
        "submitted {} != served {served} + shed {shed} + rejected {rejected} + failed {failed}",
        sim.submitted
    );
    Ok(())
}

fn run_caught(seed: u64, config: Config, events: &[Event]) -> Result<(), String> {
    std::panic::catch_unwind(|| run(seed, config, events))
        .unwrap_or_else(|_| Err("the core panicked".into()))
}

fn schedule(seed: u64) -> (Config, Vec<Event>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = Config {
        replicas: rng.gen_range(1..=3),
        capacity: rng.gen_range(1..=6),
        max_batch: rng.gen_range(1..=4),
        max_delay: Duration::from_micros(rng.gen_range(0..=3000)),
    };
    let mut at = 0;
    let events = (0..rng.gen_range(4..=40))
        .map(|_| {
            at += rng.gen_range(0..=1500);
            match rng.gen_range(0..100) {
                0..=79 => Event::Submit {
                    at,
                    priority: if rng.gen_bool(0.5) {
                        Priority::Interactive
                    } else {
                        Priority::Batch
                    },
                    deadline: rng.gen_bool(0.4).then(|| rng.gen_range(0..=6000)),
                    fault: match rng.gen_range(0..100) {
                        0..=5 => Fault::Panic,
                        6..=11 => Fault::Stall,
                        12..=17 => Fault::Short,
                        _ => Fault::None,
                    },
                },
                80..=98 => Event::Wake { at, replica: rng.gen_range(0..3) },
                _ => Event::Close { at },
            }
        })
        .collect();
    (config, events)
}

#[test]
fn serving_core_invariants_hold_on_explored_schedules() {
    for seed in 0..SCHEDULES {
        let (config, events) = schedule(seed);
        let Err(full) = run_caught(seed, config, &events) else {
            continue;
        };
        let (len, why) = (1..=events.len())
            .find_map(|n| run_caught(seed, config, &events[..n]).err().map(|e| (n, e)))
            .unwrap_or((events.len(), full));
        panic!(
            "seed {seed} fails: {why}\n{config:?}\nshortest failing prefix ({len} of {} events):\n{:#?}",
            events.len(),
            &events[..len]
        );
    }
}
