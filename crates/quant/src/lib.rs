//! # seneca-quant
//!
//! A Vitis-AI-style INT8 quantization stack (stage D of the SENECA
//! workflow). The DPU consumes INT8 tensors with power-of-two scales
//! ("fix positions"); this crate turns a trained FP32 [`seneca_nn::Graph`]
//! into a [`QuantizedGraph`] executable with pure integer arithmetic. Both
//! are typed holders of a [`seneca_ir::Module`] — the one node vocabulary —
//! the first FP32 as exported, the second INT8 with only the nodes the DPU
//! executes:
//!
//! 1. [`fuse`] — graph clean-up that mirrors the quantizer/VAI_C front end:
//!    BatchNorm folded into the preceding conv, dropout removed, ReLU fused
//!    into conv, softmax stripped (argmax runs on the CPU, paper §III-E);
//!    the result is a [`seneca_ir::Module`], which every later step takes;
//! 2. [`ptq`] — post-training quantization: per-tensor symmetric weights,
//!    activations calibrated to each node's max |x| over the calibration set
//!    (min-max), bias at accumulator scale;
//! 3. [`mixed`] — per-layer W4/W8 bitwidth assignment: sensitivity sweep
//!    plus a greedy DPU-cost-aware search (W4 weights live on a 4-bit
//!    grid, halving deployed weight bytes where the layer tolerates it);
//! 4. [`finetune`] — "fast finetuning" (AdaQuant-flavoured): per-layer scale
//!    search plus bias correction against FP32 references;
//! 5. [`qat`] — quantization-aware training hooks (weight fake-quant at
//!    either bitwidth).
//!
//! Nothing here evaluates a graph itself: calibration, fast-finetune, the
//! sensitivity sweep and the search all step the one `seneca-ir` executor
//! (the fused FP32 module for references, a copy of the quantized graph's
//! module lowered for candidates) — the same program the host backends and
//! the DPU runtime run, checked against `seneca_ir::oracle`.

pub mod finetune;
pub mod fuse;
pub mod mixed;
pub mod ptq;
pub mod qat;
pub mod qgraph;
mod run;

pub use fuse::fuse;
pub use mixed::{
    search_mixed_plan, sensitivity_sweep, BitwidthPlan, MixedSearchResult, SensitivityEntry,
};
pub use ptq::{calibrate, quantize_from_calibration, quantize_post_training, PtqConfig};
pub use qgraph::QuantizedGraph;
pub use seneca_tensor::quantized::Bitwidth;
