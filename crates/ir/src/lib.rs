//! # seneca-ir
//!
//! The typed graph IR at the centre of the SENECA reproduction: one node
//! vocabulary ([`IrOp`], in a [`Module`]) with explicit dtype and
//! quantisation attributes, a rewrite-pass pipeline ([`passes`]: BN fold or
//! exact BN carry → ReLU fusion → identity strip → pack-slot assignment), and
//! a single lowering path ([`lower`]) that ends in liveness planning
//! ([`ExecPlan`]).
//!
//! The trained graph and the quantized graph are [`Module`]s, and the FP32
//! executor, the bit-exact INT8 executor and the DPU compiler all lower
//! through this crate — there is exactly one shape-inference walk, one
//! ICP-padding hook, one planner and one executor loop, where the
//! pre-refactor code kept a parallel node-walk implementation per graph
//! type. Weight tensors are immutable at inference, so the pack-slot pass
//! packs their GEMM panels once at model load; per frame only activation
//! panels are packed, which measurably cuts per-frame latency on the larger
//! Table II models.

pub mod exec;
pub mod lower;
pub mod module;
pub mod oracle;
pub mod passes;
pub mod plan;
pub mod shape;

pub use exec::{execute_f32, FpScratch, QScratch, Scratch};
pub use lower::{lower, LowerOptions, Lowered, PackedKernel};
pub use module::{ConvAttrs, ConvKernel, DType, IrNode, IrOp, Module, PackFormat, PackSlot};
pub use passes::{
    assign_pack_slots, fold_batchnorm, fuse_relu, select_winograd, strip_identities, PassStats,
    WINOGRAD_MIN_C_IN, WINOGRAD_MIN_TILES,
};
pub use plan::ExecPlan;
pub use seneca_tensor::quantized::Bitwidth;
pub use shape::infer_shapes;
