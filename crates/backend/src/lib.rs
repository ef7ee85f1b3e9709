//! Unified inference backend abstraction (§III-E, "deployment").
//!
//! The paper deploys the same trained model to two very different targets
//! (an RTX 2060 GPU via TensorFlow and a ZCU104 DPU via VART), and the
//! reproduction adds two host reference executors (FP32 graph, bit-exact
//! INT8 graph). This crate defines the one vocabulary they all speak:
//!
//! * [`Backend`] — inference only: `name` / `infer_batch` /
//!   `infer_batch_timed` / `predict`;
//! * [`ThroughputReport`] / [`ThroughputStats`] — what the two device
//!   models (`DpuRunner::throughput`, `GpuRunner::throughput`) report, and
//!   its μ±σ over seeded runs;
//! * [`Prediction`] / [`Logits`] — labels plus backend-native logits;
//! * [`InferenceSession`] — the batch executor: workers pull frame indices
//!   from one shared cursor, prepare their input themselves and reuse a
//!   per-worker scratch arena.

#![deny(unsafe_code)]

mod backend;
mod prediction;
mod report;
mod session;

pub use backend::{Backend, BatchTiming, Fp32RefBackend, QuantRefBackend};
pub use prediction::{Logits, Prediction};
pub use report::{ThroughputReport, ThroughputStats};
pub use session::{resolve_worker_threads, InferenceEngine, InferenceSession};
