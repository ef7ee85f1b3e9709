//! Unified inference backend abstraction (§III-E, "deployment").
//!
//! The paper deploys the same trained model to two very different targets
//! (an RTX 2060 GPU via TensorFlow and a ZCU104 DPU via VART), and the
//! reproduction adds two host reference executors (FP32 graph, bit-exact
//! INT8 graph). This crate defines the one vocabulary they all speak:
//!
//! * [`Backend`] — `name` / `infer_batch` / `throughput`;
//! * [`ThroughputReport`] / [`ThroughputStats`] — shared measurement types;
//! * [`Prediction`] / [`Logits`] — labels plus backend-native logits;
//! * [`InferenceSession`] — the streaming batch executor: bounded job
//!   queue, worker-side input preparation, per-worker scratch arenas.

mod backend;
mod prediction;
mod report;
mod session;

pub use backend::{Backend, BatchTiming, Fp32RefBackend, FpWorker, QuantRefBackend};
pub use prediction::{Logits, Prediction};
pub use report::{MemoryFootprint, ThroughputReport, ThroughputStats};
pub use session::{resolve_worker_threads, InferenceEngine, InferenceSession};
