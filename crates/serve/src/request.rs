//! The request/response vocabulary of the serving layer.

use crate::intake::Queued;
use seneca_backend::Prediction;
use seneca_tensor::Tensor;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Monotonically increasing per-server request identifier.
pub type RequestId = u64;

/// Scheduling class of a request. The scheduler always drains
/// `Interactive` work before `Batch` work (strict priority), so bulk
/// re-processing jobs cannot push surgery-stream frames past their SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive (deadline-bearing) traffic.
    Interactive,
    /// Throughput traffic; may wait arbitrarily long under load.
    Batch,
}

impl Priority {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// Why a request was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control turned the request away (intake queue full).
    QueueFull,
    /// The request's deadline expired before a replica executed it.
    DeadlineExpired,
    /// The server is shutting down (or a response channel was dropped).
    ShuttingDown,
    /// The backend panicked while executing this request's batch.
    BackendFailed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ServeError::QueueFull => "intake queue full",
            ServeError::DeadlineExpired => "deadline expired before execution",
            ServeError::ShuttingDown => "server shutting down",
            ServeError::BackendFailed => "backend panicked during execution",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ServeError {}

/// Per-request latency accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Submission → dispatch to a replica.
    pub queue: Duration,
    /// Execution share of this frame inside its micro-batch.
    pub execute: Duration,
    /// Submission → response.
    pub total: Duration,
}

/// One served (or failed) request.
#[derive(Debug)]
pub struct ServeResponse {
    /// The request this responds to.
    pub id: RequestId,
    /// The request's scheduling class.
    pub priority: Priority,
    /// The prediction, or why there is none.
    pub result: Result<Prediction, ServeError>,
    /// Latency breakdown (zeroed for requests that never dispatched).
    pub timing: Timing,
}

/// An in-flight request as stored in the intake queue.
pub(crate) struct ServeRequest {
    pub id: RequestId,
    pub priority: Priority,
    pub submitted_at: Instant,
    /// Absolute deadline; requests past it are shed instead of executed.
    pub deadline: Option<Instant>,
    pub image: Tensor,
    pub resp: mpsc::Sender<ServeResponse>,
}

impl Queued for ServeRequest {
    fn priority(&self) -> Priority {
        self.priority
    }
    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl ServeRequest {
    /// Resolves the request with an error response.
    pub fn fail(self, err: ServeError) {
        let timing = Timing { queue: self.submitted_at.elapsed(), ..Default::default() };
        let _ = self.resp.send(ServeResponse {
            id: self.id,
            priority: self.priority,
            result: Err(err),
            timing,
        });
    }
}

/// Claim on a submitted request; resolves to its [`ServeResponse`].
#[derive(Debug)]
pub struct Ticket {
    /// The id assigned at submission.
    pub id: RequestId,
    pub(crate) priority: Priority,
    pub(crate) rx: mpsc::Receiver<ServeResponse>,
}

impl Ticket {
    /// Blocks until the response arrives. A dropped server resolves to
    /// [`ServeError::ShuttingDown`] instead of hanging.
    pub fn wait(self) -> ServeResponse {
        self.rx.recv().unwrap_or(ServeResponse {
            id: self.id,
            priority: self.priority,
            result: Err(ServeError::ShuttingDown),
            timing: Timing::default(),
        })
    }
}
