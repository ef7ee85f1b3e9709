//! # seneca-serve
//!
//! Online inference serving on top of the [`Backend`] trait — the
//! request-level counterpart of the paper's stage E deployment. Where the
//! offline path answers "how many frames per second can the device do?",
//! this crate answers the production question: "what latency does each
//! *request* see, and what happens when more arrive than the device can
//! absorb?"
//!
//! The pipeline, front to back:
//!
//! * [`ServeHandle::submit`] — per-request IDs, [`Priority`] classes, and
//!   optional relative deadlines;
//! * the intake queue — bounded and priority-segregated; a full queue
//!   refuses with [`ServeError::QueueFull`], so overload degrades into
//!   explicit rejections instead of an unbounded backlog, and requests
//!   whose deadline passed are shed at dispatch;
//! * dynamic **micro-batching**: an idle replica collects up to
//!   [`ServeConfig::max_batch`] frames, waiting at most
//!   [`ServeConfig::max_delay`] after the first — the VART-style
//!   asynchronous job window over the ZCU104's two DPU cores — and not at
//!   all while another replica is idle (that one takes the next request).
//!   Every one of these decisions is made by [`Intake`], a sans-IO core
//!   stepped on explicit instants; the threaded [`Server`] owns the clock;
//! * a **replica pool** ([`ServeConfig::replicas`] worker threads) running
//!   [`Backend::infer_batch_timed`], with per-request queue/execute/total
//!   timings rolled into lock-free [`LatencyHistogram`]s (p50/p95/p99);
//! * a seeded load generator ([`run_load`]) with closed- and open-loop
//!   arrival processes for saturation measurements and overload
//!   experiments; its loops ([`drive`]) also drive `seneca-fleet`.
//!
//! [`Backend`]: seneca_backend::Backend
//! [`Backend::infer_batch_timed`]: seneca_backend::Backend::infer_batch_timed

mod histogram;
mod intake;
mod loadgen;
mod metrics;
mod request;
mod server;
mod synthetic;

pub use histogram::{LatencyHistogram, LatencySummary};
pub use intake::{settle, Collector, Intake, Queued, Step};
pub use loadgen::{drive, run_load, ArrivalProcess, LoadReport, LoadSpec};
pub use metrics::{ServeMetrics, ServeStats};
pub use request::{Priority, RequestId, ServeError, ServeResponse, Ticket, Timing};
pub use server::{ServeConfig, ServeHandle, Server};
pub use synthetic::SyntheticBackend;
