//! The intake core: every serving decision, stepped on explicit instants.
//!
//! [`Intake`] is the bounded queue between the submit path and the replica
//! pool, with two strict-priority FIFOs (`Interactive` drains before
//! `Batch`). It is sans-IO: it reads no clock, never blocks, locks or
//! sends. Each method takes the caller's `now` and returns what to do, and
//! the threaded shell in `server.rs` owns the clock, the lock and the two
//! condvars. The decisions:
//!
//! * **admission** — one rule: refuse with [`ServeError::ShuttingDown`]
//!   once closed and with [`ServeError::QueueFull`] at capacity, so
//!   overload turns into explicit refusals instead of a backlog;
//! * **the batch window** — a replica's [`Collector`] takes requests until
//!   it holds `max_batch` or `max_delay` has passed since it took the
//!   first;
//! * **the idle-replica cut** — while another replica waits for work, a
//!   collector takes no second request and dispatches what it holds: the
//!   idle one would serve the next request at once, so waiting could only
//!   add latency;
//! * **shedding** — requests whose deadline has passed, queued or held,
//!   are handed back to the caller to resolve at dispatch, never run.
//!
//! [`settle`] pairs a dispatched batch with what the backend returned.

use crate::request::{Priority, ServeError};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What the intake needs to know about a queued request.
pub trait Queued {
    /// The request's scheduling class.
    fn priority(&self) -> Priority;
    /// The absolute deadline, if any.
    fn deadline(&self) -> Option<Instant>;
    /// True once the deadline has passed.
    fn expired(&self, now: Instant) -> bool {
        self.deadline().is_some_and(|d| d <= now)
    }
}

/// What a replica does after [`Intake::poll`].
#[derive(Debug)]
pub enum Step<T> {
    /// Run this micro-batch (1 to `max_batch` requests, none expired).
    Dispatch(Vec<T>),
    /// Hold the partial batch; poll again at this instant, or earlier when
    /// work arrives or another replica goes idle.
    WaitUntil(Instant),
    /// Nothing to hold: poll again when work arrives or the intake
    /// closes. The replica now counts as idle.
    WaitForWork,
    /// Closed and drained: the replica exits.
    Closed,
}

/// One replica's side of the intake: the partial batch it holds.
#[derive(Debug)]
pub struct Collector<T> {
    held: Vec<T>,
    /// When the window that began with the first held request ends; stale
    /// while nothing is held.
    window_end: Option<Instant>,
    /// True between a [`Step::WaitForWork`] and the next poll.
    idle: bool,
}

impl<T> Default for Collector<T> {
    fn default() -> Self {
        Self { held: Vec::new(), window_end: None, idle: false }
    }
}

impl<T> Collector<T> {
    /// The requests held for the next dispatch.
    pub fn held(&self) -> &[T] {
        &self.held
    }
}

/// The bounded two-class intake queue and its batching decisions.
#[derive(Debug)]
pub struct Intake<T> {
    interactive: VecDeque<T>,
    batch: VecDeque<T>,
    capacity: usize,
    max_batch: usize,
    max_delay: Duration,
    /// Collectors whose last step was [`Step::WaitForWork`].
    idle: usize,
    closed: bool,
}

impl<T: Queued> Intake<T> {
    /// An open, empty intake of `capacity` slots whose collectors
    /// dispatch at most `max_batch` requests, waiting at most `max_delay`.
    pub fn new(capacity: usize, max_batch: usize, max_delay: Duration) -> Self {
        assert!(capacity >= 1, "intake queue needs at least one slot");
        assert!(max_batch >= 1, "micro-batches hold at least one frame");
        Self {
            interactive: VecDeque::new(),
            batch: VecDeque::new(),
            capacity,
            max_batch,
            max_delay,
            idle: 0,
            closed: false,
        }
    }

    /// Admits one request or refuses it; a refused request is dropped.
    pub fn push(&mut self, req: T) -> Result<(), ServeError> {
        if self.closed {
            return Err(ServeError::ShuttingDown);
        }
        if self.interactive.len() + self.batch.len() == self.capacity {
            return Err(ServeError::QueueFull);
        }
        match req.priority() {
            Priority::Interactive => self.interactive.push_back(req),
            Priority::Batch => self.batch.push_back(req),
        }
        Ok(())
    }

    /// Refuses new requests from now on; collectors drain what is queued.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Advances one replica's collection at `now`. Expired requests, held
    /// or queued, are appended to `shed` for the caller to resolve.
    pub fn poll(&mut self, c: &mut Collector<T>, now: Instant, shed: &mut Vec<T>) -> Step<T> {
        if std::mem::take(&mut c.idle) {
            self.idle -= 1;
        }
        let mut i = 0;
        while i < c.held.len() {
            if c.held[i].expired(now) {
                shed.push(c.held.remove(i));
            } else {
                i += 1;
            }
        }
        while c.held.len() < self.max_batch && (c.held.is_empty() || self.idle == 0) {
            let Some(req) = self.interactive.pop_front().or_else(|| self.batch.pop_front()) else {
                break;
            };
            if req.expired(now) {
                shed.push(req);
                continue;
            }
            if c.held.is_empty() {
                c.window_end = Some(now + self.max_delay);
            }
            c.held.push(req);
        }
        let Some(window_end) = c.window_end.filter(|_| !c.held.is_empty()) else {
            if self.closed {
                return Step::Closed;
            }
            c.idle = true;
            self.idle += 1;
            return Step::WaitForWork;
        };
        if c.held.len() == self.max_batch || now >= window_end || self.closed || self.idle > 0 {
            return Step::Dispatch(std::mem::take(&mut c.held));
        }
        Step::WaitUntil(window_end)
    }
}

/// Pairs each request of a dispatched batch with its outcome: the
/// backend's prediction when it returned exactly one per request (`preds`
/// is `None` when it panicked), [`ServeError::BackendFailed`] for every
/// request otherwise, so no request goes unanswered.
pub fn settle<T, P>(batch: Vec<T>, preds: Option<Vec<P>>) -> Vec<(T, Result<P, ServeError>)> {
    match preds {
        Some(preds) if preds.len() == batch.len() => {
            batch.into_iter().zip(preds.into_iter().map(Ok)).collect()
        }
        _ => batch.into_iter().map(|r| (r, Err(ServeError::BackendFailed))).collect(),
    }
}
