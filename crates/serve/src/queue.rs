//! The admission-controlled intake queue.
//!
//! A bounded, priority-segregated queue between the submit path and the
//! replica pool. Admission policy decides what happens when the queue is
//! full, so overload degrades into bounded memory + explicit rejections
//! instead of an unbounded backlog. Replicas pull *micro-batches*: after
//! the first request is available, a replica keeps collecting until it has
//! `max_batch` frames or `max_delay` has elapsed — the classic dynamic
//! batching window — unless another replica sits idle in the queue: that
//! one would take the next request at once, so waiting for it could only
//! add latency, and the collector dispatches what it holds. Requests whose
//! deadline has already expired are shed at dispatch (and, under
//! [`AdmissionPolicy::ShedExpired`], at admission) rather than executed.

use crate::metrics::ServeMetrics;
use crate::request::{ServeError, ServeRequest};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What `submit` does when the intake queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the submitter until a slot frees up (backpressure).
    Block,
    /// Fail fast with [`ServeError::QueueFull`].
    RejectWhenFull,
    /// First drop queued requests whose deadline already expired, then
    /// reject only if the queue is still full.
    ShedExpired,
}

struct Inner {
    interactive: VecDeque<ServeRequest>,
    batch: VecDeque<ServeRequest>,
    closed: bool,
    /// Callers of `pop_batch` (a server's replicas) blocked waiting for a
    /// first request.
    idle: usize,
}

impl Inner {
    fn len(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    /// Strict priority: interactive work always dequeues first.
    fn pop(&mut self) -> Option<ServeRequest> {
        self.interactive.pop_front().or_else(|| self.batch.pop_front())
    }

    /// Drops expired requests from one deque, failing each one.
    fn shed_deque(d: &mut VecDeque<ServeRequest>, now: Instant, metrics: &ServeMetrics) -> usize {
        let mut dropped = 0;
        let mut i = 0;
        while i < d.len() {
            if d[i].expired(now) {
                let req = d.remove(i).expect("index checked");
                metrics.note_shed(req.priority);
                req.fail(ServeError::DeadlineExpired);
                dropped += 1;
            } else {
                i += 1;
            }
        }
        dropped
    }

    /// Sheds every expired queued request; batch-class work goes first so
    /// interactive requests survive the purge longest.
    fn shed_expired(&mut self, now: Instant, metrics: &ServeMetrics) -> usize {
        Self::shed_deque(&mut self.batch, now, metrics)
            + Self::shed_deque(&mut self.interactive, now, metrics)
    }
}

/// The bounded intake queue.
pub(crate) struct IntakeQueue {
    inner: Mutex<Inner>,
    /// Idle replicas wait here for a first request.
    not_empty: Condvar,
    /// Replicas holding a partial batch wait here: for more work, for
    /// another replica to go idle, or for the close.
    window: Condvar,
    not_full: Condvar,
    capacity: usize,
    policy: AdmissionPolicy,
}

impl IntakeQueue {
    pub fn new(capacity: usize, policy: AdmissionPolicy) -> Self {
        assert!(capacity >= 1, "intake queue needs at least one slot");
        Self {
            inner: Mutex::new(Inner {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                closed: false,
                idle: 0,
            }),
            not_empty: Condvar::new(),
            window: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            policy,
        }
    }

    /// Admits one request or explains why not. On `Err` the request is
    /// dropped here; the caller reports the error to the submitter
    /// directly, so no response is sent through the ticket channel.
    pub fn push(&self, req: ServeRequest, metrics: &ServeMetrics) -> Result<(), ServeError> {
        // Under the shedding policy, a request whose deadline has already
        // passed is shed *at admission* — enqueueing it would only spend a
        // slot on work guaranteed to be dropped at dispatch.
        if self.policy == AdmissionPolicy::ShedExpired && req.expired(Instant::now()) {
            metrics.note_shed(req.priority);
            return Err(ServeError::DeadlineExpired);
        }
        let mut g = self.inner.lock().expect("intake queue lock");
        if g.len() == self.capacity {
            match self.policy {
                AdmissionPolicy::Block => {
                    while g.len() == self.capacity && !g.closed {
                        g = self.not_full.wait(g).expect("intake queue lock");
                    }
                }
                AdmissionPolicy::RejectWhenFull => return Err(ServeError::QueueFull),
                AdmissionPolicy::ShedExpired => {
                    if g.shed_expired(Instant::now(), metrics) == 0 {
                        return Err(ServeError::QueueFull);
                    }
                }
            }
        }
        if g.closed {
            return Err(ServeError::ShuttingDown);
        }
        match req.priority {
            crate::request::Priority::Interactive => g.interactive.push_back(req),
            crate::request::Priority::Batch => g.batch.push_back(req),
        }
        self.not_empty.notify_one();
        self.window.notify_all();
        Ok(())
    }

    /// Collects the next micro-batch: blocks for the first request, then
    /// keeps collecting until `max_batch` frames are in hand or `max_delay`
    /// has elapsed — or until another caller is idle, waiting for a first
    /// request of its own: then the batch is what is in hand, and whatever
    /// is still queued is left to that caller. (A lone caller, as in the
    /// queue-level tests and a one-replica server, always gets the whole
    /// window.) Expired requests are shed, not returned. `None` means the
    /// queue is closed and fully drained — the replica should exit.
    pub fn pop_batch(
        &self,
        max_batch: usize,
        max_delay: Duration,
        metrics: &ServeMetrics,
    ) -> Option<Vec<ServeRequest>> {
        let mut g = self.inner.lock().expect("intake queue lock");
        loop {
            while g.len() == 0 {
                if g.closed {
                    return None;
                }
                g.idle += 1;
                // A replica holding a partial batch stops waiting for it.
                self.window.notify_all();
                g = self.not_empty.wait(g).expect("intake queue lock");
                g.idle -= 1;
            }
            let mut out = Vec::with_capacity(max_batch);
            let window_end = Instant::now() + max_delay;
            loop {
                while out.len() < max_batch && (out.is_empty() || g.idle == 0) {
                    match g.pop() {
                        Some(r) if r.expired(Instant::now()) => {
                            metrics.note_shed(r.priority);
                            r.fail(ServeError::DeadlineExpired);
                        }
                        Some(r) => out.push(r),
                        None => break,
                    }
                }
                let now = Instant::now();
                if out.len() >= max_batch || now >= window_end || g.closed || g.idle > 0 {
                    break;
                }
                let (g2, _) =
                    self.window.wait_timeout(g, window_end - now).expect("intake queue lock");
                g = g2;
            }
            self.not_full.notify_all();
            if !out.is_empty() {
                return Some(out);
            }
            // Everything queued had expired; wait for fresh work.
        }
    }

    /// Closes the queue: no new admissions, replicas drain what remains.
    pub fn close(&self) {
        let mut g = self.inner.lock().expect("intake queue lock");
        g.closed = true;
        self.not_empty.notify_all();
        self.window.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Priority, ServeResponse, Ticket};
    use seneca_tensor::{Shape4, Tensor};
    use std::sync::mpsc;
    use std::time::Duration;

    fn req(
        id: u64,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> (ServeRequest, mpsc::Receiver<ServeResponse>) {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let r = ServeRequest {
            id,
            priority,
            submitted_at: now,
            deadline: deadline.map(|d| now + d),
            image: Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![id as f32]),
            resp: tx,
        };
        (r, rx)
    }

    fn metrics() -> ServeMetrics {
        ServeMetrics::new()
    }

    #[test]
    fn interactive_dequeues_before_batch() {
        let q = IntakeQueue::new(8, AdmissionPolicy::RejectWhenFull);
        let m = metrics();
        let (b, _rb) = req(0, Priority::Batch, None);
        let (i, _ri) = req(1, Priority::Interactive, None);
        q.push(b, &m).unwrap();
        q.push(i, &m).unwrap();
        let batch = q.pop_batch(2, Duration::ZERO, &m).unwrap();
        assert_eq!(batch[0].id, 1, "interactive first");
        assert_eq!(batch[1].id, 0);
    }

    #[test]
    fn reject_when_full_fails_fast() {
        let q = IntakeQueue::new(1, AdmissionPolicy::RejectWhenFull);
        let m = metrics();
        let (a, _ra) = req(0, Priority::Interactive, None);
        let (b, _rb) = req(1, Priority::Interactive, None);
        q.push(a, &m).unwrap();
        assert_eq!(q.push(b, &m).unwrap_err(), ServeError::QueueFull);
    }

    #[test]
    fn shed_expired_makes_room_and_fails_the_victim() {
        let q = IntakeQueue::new(1, AdmissionPolicy::ShedExpired);
        let m = metrics();
        // Valid at admission, expired by the time the queue is full.
        let (a, ra) = req(0, Priority::Batch, Some(Duration::from_millis(1)));
        q.push(a, &m).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let (b, _rb) = req(1, Priority::Interactive, None);
        q.push(b, &m).unwrap();
        let resp = Ticket { id: 0, priority: Priority::Batch, rx: ra }.wait();
        assert_eq!(resp.result.unwrap_err(), ServeError::DeadlineExpired);
        assert_eq!(m.snapshot().shed_expired, 1);
        // The fresh request survived and is dispatchable.
        let batch = q.pop_batch(4, Duration::ZERO, &m).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 1);
    }

    #[test]
    fn expired_at_admission_is_shed_not_enqueued() {
        let q = IntakeQueue::new(8, AdmissionPolicy::ShedExpired);
        let m = metrics();
        let (a, _ra) = req(0, Priority::Interactive, Some(Duration::ZERO)); // born expired
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(q.push(a, &m).unwrap_err(), ServeError::DeadlineExpired);
        let s = m.snapshot();
        assert_eq!(s.shed_expired, 1, "must count as shed, not rejected");
        assert_eq!(s.shed_interactive, 1);
        assert_eq!(s.rejected, 0);
        // Nothing was enqueued: fresh work is dispatched alone.
        let (b, _rb) = req(1, Priority::Interactive, None);
        q.push(b, &m).unwrap();
        let batch = q.pop_batch(4, Duration::ZERO, &m).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 1);
    }

    #[test]
    fn expired_requests_are_shed_at_dispatch() {
        let q = IntakeQueue::new(8, AdmissionPolicy::Block);
        let m = metrics();
        let (a, ra) = req(0, Priority::Interactive, Some(Duration::ZERO));
        let (b, _rb) = req(1, Priority::Interactive, None);
        q.push(a, &m).unwrap();
        q.push(b, &m).unwrap();
        std::thread::sleep(Duration::from_millis(1));
        let batch = q.pop_batch(4, Duration::ZERO, &m).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 1);
        let resp = ra.recv().unwrap();
        assert_eq!(resp.result.unwrap_err(), ServeError::DeadlineExpired);
    }

    #[test]
    fn batch_window_waits_for_more_work() {
        let q = std::sync::Arc::new(IntakeQueue::new(8, AdmissionPolicy::Block));
        let m = std::sync::Arc::new(metrics());
        let (a, _ra) = req(0, Priority::Batch, None);
        q.push(a, &m).unwrap();
        let q2 = std::sync::Arc::clone(&q);
        let m2 = std::sync::Arc::clone(&m);
        let feeder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            let (b, _rb) = req(1, Priority::Batch, None);
            q2.push(b, &m2).unwrap();
        });
        // A 100 ms window comfortably covers the 5 ms late arrival.
        let batch = q.pop_batch(2, Duration::from_millis(100), &m).unwrap();
        assert_eq!(batch.len(), 2, "window must coalesce the late arrival");
        feeder.join().unwrap();
    }

    #[test]
    fn closed_and_drained_returns_none() {
        let q = IntakeQueue::new(2, AdmissionPolicy::Block);
        let m = metrics();
        let (a, _ra) = req(0, Priority::Batch, None);
        q.push(a, &m).unwrap();
        q.close();
        // Drains the backlog first, then signals exit.
        assert_eq!(q.pop_batch(4, Duration::ZERO, &m).unwrap().len(), 1);
        assert!(q.pop_batch(4, Duration::ZERO, &m).is_none());
        let (b, _rb) = req(1, Priority::Batch, None);
        assert_eq!(q.push(b, &m).unwrap_err(), ServeError::ShuttingDown);
    }
}
