//! # seneca-nn
//!
//! Neural-network building blocks for the SENECA reproduction:
//!
//! * [`unet`] — the SENECA 2-D U-Net family (Table II configurations): the
//!   randomly initialised network, built directly as its graph, and its
//!   parameter count (reproducing the paper's 1M…16M totals);
//! * [`graph`] — the model graph a U-Net is built as: the one thing that
//!   is trained, quantized, compiled and served. It is an FP32
//!   `seneca_ir::Module` ([`Graph::module`]); inference lowers a copy
//!   ([`Graph::to_ir`]) through the shared pass pipeline and liveness
//!   planner;
//! * [`backprop`] — training over the graph: a forward pass that keeps every
//!   node's output and one reverse walk with a backward step per op;
//! * [`loss`] — the weighted Focal Tversky loss of Eq. (1)–(2), plus the
//!   cross-entropy of the warm-up epoch;
//! * [`optim`] — SGD-with-momentum and Adam;
//! * [`train`] — the one training step and a mini-batch loop with seeded
//!   shuffling;
//! * [`prune`] — L1 channel pruning as a graph rewrite that removes channels
//!   (the paper's future-work ablation);
//! * [`augment`] — the one training augmentation policy (flip, shift,
//!   elastic warp, intensity jitter).

#![deny(unsafe_code)]

pub mod augment;
pub mod backprop;
pub mod graph;
pub mod loss;
pub mod optim;
pub mod prune;
pub mod train;
pub mod unet;

/// Liveness planning now lives in `seneca-ir`; re-exported so historical
/// `seneca_nn::plan::ExecPlan` paths keep resolving.
pub use seneca_ir::plan;

pub use graph::Graph;
pub use loss::FocalTverskyLoss;
pub use optim::{Adam, Optimizer, Sgd};
pub use seneca_ir::ExecPlan;
pub use unet::{ModelSize, UNet, UNetConfig};
