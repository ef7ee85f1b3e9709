//! The server: a replica pool pulling micro-batches from the intake.
//!
//! This is the threaded shell around the [`Intake`] core: one mutex over
//! the core, two condvars, and every clock read. Each replica is one worker
//! thread that owns its slot on the accelerator (modelling the ZCU104's two
//! DPU cores) and repeatedly: polls the core for a micro-batch, runs it
//! through [`Backend::infer_batch_timed`], and resolves every request's
//! ticket with a [`ServeResponse`] carrying queue/execute/total timings. A
//! backend panic, or an answer with the wrong number of predictions, fails
//! the affected batch, not the server. The intake lock is held only around
//! core calls and admissions, never around backend code, so a poisoned
//! lock can only mean a bug in the core: that is why `expect` stays.

use crate::intake::{settle, Collector, Intake, Step};
use crate::metrics::{ServeMetrics, ServeStats};
use crate::request::{
    Priority, RequestId, ServeError, ServeRequest, ServeResponse, Ticket, Timing,
};
use seneca_backend::{Backend, Prediction};
use seneca_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Replica workers (the ZCU104 runs two DPU cores).
    pub replicas: usize,
    /// Largest micro-batch dispatched to one replica.
    pub max_batch: usize,
    /// How long a replica waits for the batch to fill after the first
    /// request arrives (the dynamic batching window). Cut short while
    /// another replica is idle: it would serve a new request at once.
    pub max_delay: Duration,
    /// Intake queue capacity (bounds memory and queueing delay); a
    /// submission to a full queue is refused with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { replicas: 2, max_batch: 4, max_delay: Duration::from_millis(2), queue_capacity: 16 }
    }
}

struct Shared {
    intake: Mutex<Intake<ServeRequest>>,
    /// Idle replicas wait here for work.
    not_empty: Condvar,
    /// Replicas holding a partial batch wait here: for more work, for
    /// another replica to go idle, for the window's end or for the close.
    window: Condvar,
    metrics: ServeMetrics,
    next_id: AtomicU64,
}

/// A cloneable submission handle onto a running [`Server`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Submits one frame. Returns a [`Ticket`] resolving to the response,
    /// or the admission error if the request was turned away (in which
    /// case no ticket exists and nothing was enqueued).
    pub fn submit(
        &self,
        image: Tensor,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        self.shared.metrics.note_submit();
        let (tx, rx) = mpsc::channel();
        let req = ServeRequest {
            id,
            priority,
            submitted_at: now,
            deadline: deadline.map(|d| now + d),
            image,
            resp: tx,
        };
        let admitted = self.shared.intake.lock().expect("intake lock").push(req);
        if let Err(e) = admitted {
            self.shared.metrics.note_reject();
            return Err(e);
        }
        self.shared.not_empty.notify_one();
        self.shared.window.notify_all();
        Ok(Ticket { id, priority, rx })
    }

    /// Submit + block until the prediction (or failure) comes back.
    pub fn submit_wait(
        &self,
        image: Tensor,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Prediction, ServeError> {
        self.submit(image, priority, deadline)?.wait().result
    }

    /// Live statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.metrics.snapshot()
    }
}

/// A running serving instance; dropping it shuts the replicas down after
/// draining the queue.
pub struct Server {
    shared: Arc<Shared>,
    replicas: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts `config.replicas` worker threads over a shared backend.
    pub fn start(backend: Arc<dyn Backend>, config: ServeConfig) -> Self {
        assert!(config.replicas >= 1, "need at least one replica");
        let shared = Arc::new(Shared {
            intake: Mutex::new(Intake::new(
                config.queue_capacity,
                config.max_batch,
                config.max_delay,
            )),
            not_empty: Condvar::new(),
            window: Condvar::new(),
            metrics: ServeMetrics::new(),
            next_id: AtomicU64::new(0),
        });
        let replicas = (0..config.replicas)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let backend = Arc::clone(&backend);
                std::thread::Builder::new()
                    .name(format!("serve-replica-{i}"))
                    .spawn(move || replica_loop(&shared, backend.as_ref()))
                    .expect("spawn replica thread")
            })
            .collect();
        Self { shared, replicas }
    }

    /// A new submission handle (cheap to clone, safe to share).
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: Arc::clone(&self.shared) }
    }

    /// Live statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.metrics.snapshot()
    }

    /// Graceful shutdown: stop admissions, drain the queue, join the
    /// replicas, and return the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        self.shared.metrics.snapshot()
    }

    fn shutdown_inner(&mut self) {
        self.shared.intake.lock().expect("intake lock").close();
        self.shared.not_empty.notify_all();
        self.shared.window.notify_all();
        for r in self.replicas.drain(..) {
            let _ = r.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One replica: pull micro-batches until the intake closes and drains.
fn replica_loop(shared: &Shared, backend: &dyn Backend) {
    let mut collector = Collector::default();
    let mut shed = Vec::new();
    loop {
        // Batch formation covers idle wait for the first request plus the
        // dynamic batching window; recorded only for batches that formed
        // (the final `Closed` is shutdown, not formation time).
        let t0 = seneca_trace::now_ns();
        let mut g = shared.intake.lock().expect("intake lock");
        let batch = loop {
            let now = Instant::now();
            let step = g.poll(&mut collector, now, &mut shed);
            for r in shed.drain(..) {
                shared.metrics.note_shed(r.priority);
                r.fail(ServeError::DeadlineExpired);
            }
            match step {
                Step::Dispatch(batch) => break batch,
                Step::Closed => return,
                Step::WaitForWork => {
                    // A replica holding a partial batch stops waiting for it.
                    shared.window.notify_all();
                    g = shared.not_empty.wait(g).expect("intake lock");
                }
                Step::WaitUntil(end) => {
                    let timeout = end.saturating_duration_since(now);
                    g = shared.window.wait_timeout(g, timeout).expect("intake lock").0;
                }
            }
        };
        drop(g);
        seneca_trace::record_ns(
            "serve",
            "batch_form",
            seneca_trace::now_ns().saturating_sub(t0),
            batch.len() as u64,
        );
        run_batch(shared, backend, batch);
    }
}

/// Executes one micro-batch and resolves every ticket in it.
fn run_batch(shared: &Shared, backend: &dyn Backend, batch: Vec<ServeRequest>) {
    struct Meta {
        id: RequestId,
        priority: Priority,
        submitted_at: Instant,
        deadline: Option<Instant>,
        resp: mpsc::Sender<ServeResponse>,
    }
    let dispatch_sp = seneca_trace::span("serve", "dispatch");
    let mut metas = Vec::with_capacity(batch.len());
    let mut images = Vec::with_capacity(batch.len());
    for r in batch {
        let ServeRequest { id, priority, submitted_at, deadline, image, resp } = r;
        metas.push(Meta { id, priority, submitted_at, deadline, resp });
        images.push(image);
    }
    drop(dispatch_sp);

    let exec_start = Instant::now();
    for m in &metas {
        // Queue wait crosses threads (submission → this replica), so it is
        // recorded as a measured duration rather than a span.
        let waited = exec_start.saturating_duration_since(m.submitted_at);
        seneca_trace::record_ns(
            "serve",
            "queue_wait",
            u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX),
            0,
        );
    }
    let exec_sp = seneca_trace::span_bytes("serve", "replica_exec", images.len() as u64);
    // A panicking backend must not take the replica (and with it the whole
    // pool) down: fail the batch, keep serving.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        backend.infer_batch_timed(&images)
    }));
    drop(exec_sp);
    let (preds, timing) = outcome.ok().unzip();
    let settled = settle(metas, preds);
    // `settle` answers a batch all served or all failed.
    if settled.first().is_some_and(|(_, r)| r.is_ok()) {
        shared.metrics.note_batch(settled.len());
    }
    for (i, (m, result)) in settled.into_iter().enumerate() {
        let done = Instant::now();
        let execute = match (&result, &timing) {
            (Ok(_), Some(t)) => t.per_frame.get(i).copied().unwrap_or(t.wall),
            _ => done.saturating_duration_since(exec_start),
        };
        let t = Timing {
            queue: exec_start.saturating_duration_since(m.submitted_at),
            execute,
            total: done.saturating_duration_since(m.submitted_at),
        };
        if result.is_ok() {
            shared.metrics.note_served(m.priority, &t, m.deadline.is_some_and(|d| done > d));
        } else {
            shared.metrics.note_failed(1);
        }
        let _ = m.resp.send(ServeResponse { id: m.id, priority: m.priority, result, timing: t });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seneca_tensor::Shape4;

    /// Pure toy backend: logits echo the input scaled by 2.
    #[derive(Clone)]
    struct Double;
    impl Backend for Double {
        fn name(&self) -> String {
            "double".into()
        }
        fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
            images
                .iter()
                .map(|img| {
                    let data = img.data().iter().map(|v| v * 2.0).collect();
                    Prediction::from_f32(Tensor::from_vec(img.shape(), data))
                })
                .collect()
        }
    }

    /// Backend that panics on any frame whose first pixel is negative.
    #[derive(Clone)]
    struct Grumpy;
    impl Backend for Grumpy {
        fn name(&self) -> String {
            "grumpy".into()
        }
        fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
            assert!(images.iter().all(|i| i.data()[0] >= 0.0), "negative frame");
            Double.infer_batch(images)
        }
    }

    fn frame(v: f32) -> Tensor {
        Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![v, -v])
    }

    #[test]
    fn serves_predictions_with_timings() {
        let server = Server::start(Arc::new(Double), ServeConfig::default());
        let h = server.handle();
        let tickets: Vec<Ticket> = (0..10)
            .map(|i| h.submit(frame(i as f32), Priority::Interactive, None).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait();
            assert_eq!(resp.id, i as u64);
            let pred = resp.result.expect("served");
            assert_eq!(pred.as_f32().unwrap().data()[0], 2.0 * i as f32);
            assert!(resp.timing.total >= resp.timing.queue);
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 10);
        assert_eq!(stats.rejected + stats.shed_expired, 0);
        assert!(stats.batches >= 1 && stats.mean_batch >= 1.0);
    }

    #[test]
    fn backend_panic_fails_batch_not_server() {
        // One replica and a long window: frames go in full batches of two.
        let server = Server::start(
            Arc::new(Grumpy),
            ServeConfig {
                replicas: 1,
                max_batch: 2,
                max_delay: Duration::from_secs(5),
                ..Default::default()
            },
        );
        let h = server.handle();
        let bad: Vec<Ticket> =
            (0..2).map(|_| h.submit(frame(-1.0), Priority::Interactive, None).unwrap()).collect();
        for t in bad {
            assert_eq!(t.wait().result.unwrap_err(), ServeError::BackendFailed);
        }
        // The pool survived the panic and keeps serving.
        let good: Vec<Ticket> =
            (0..2).map(|_| h.submit(frame(1.0), Priority::Interactive, None).unwrap()).collect();
        for t in good {
            assert_eq!(t.wait().result.unwrap().as_f32().unwrap().data()[0], 2.0);
        }
        let s = server.shutdown();
        assert_eq!((s.failed, s.served), (2, 2));
        assert_eq!(s.served + s.rejected + s.shed_expired + s.failed, s.submitted);
        assert!((s.loss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        // One slow-ish replica, several queued frames, immediate shutdown:
        // every ticket must still resolve with a prediction.
        let server = Server::start(
            Arc::new(Double),
            ServeConfig { replicas: 1, queue_capacity: 32, ..Default::default() },
        );
        let h = server.handle();
        let tickets: Vec<Ticket> =
            (0..16).map(|i| h.submit(frame(i as f32), Priority::Batch, None).unwrap()).collect();
        let stats = server.shutdown();
        assert_eq!(stats.served, 16);
        for t in tickets {
            assert!(t.wait().result.is_ok());
        }
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let server = Server::start(Arc::new(Double), ServeConfig::default());
        let h = server.handle();
        server.shutdown();
        let err = h.submit(frame(0.0), Priority::Interactive, None).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        let s = h.stats();
        assert_eq!((s.submitted, s.rejected), (1, 1), "a refusal at shutdown counts as rejected");
        assert_eq!(s.served + s.shed_expired + s.rejected + s.failed, s.submitted);
    }

    /// Backend that answers one prediction short.
    #[derive(Clone)]
    struct Short;
    impl Backend for Short {
        fn name(&self) -> String {
            "short".into()
        }
        fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
            let mut preds = Double.infer_batch(images);
            preds.pop();
            preds
        }
    }

    #[test]
    fn a_short_answer_fails_the_whole_batch() {
        let server = Server::start(
            Arc::new(Short),
            ServeConfig {
                replicas: 1,
                max_batch: 2,
                max_delay: Duration::from_secs(5),
                ..Default::default()
            },
        );
        let h = server.handle();
        let tickets: Vec<Ticket> =
            (0..2).map(|_| h.submit(frame(1.0), Priority::Interactive, None).unwrap()).collect();
        for t in tickets {
            assert_eq!(t.wait().result.unwrap_err(), ServeError::BackendFailed);
        }
        let s = server.shutdown();
        assert_eq!((s.failed, s.served, s.batches), (2, 0, 0));
        assert_eq!(s.served + s.shed_expired + s.rejected + s.failed, s.submitted);
    }
}
