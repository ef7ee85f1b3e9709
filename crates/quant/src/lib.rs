//! # seneca-quant
//!
//! A Vitis-AI-style INT8 quantization stack (stage D of the SENECA
//! workflow). The DPU consumes INT8 tensors with power-of-two scales
//! ("fix positions"); this crate turns a trained FP32 [`seneca_nn::Graph`]
//! into a [`QuantizedGraph`] executable with pure integer arithmetic:
//!
//! 1. [`fuse`] — graph clean-up that mirrors the quantizer/VAI_C front end:
//!    BatchNorm folded into the preceding conv, dropout removed, ReLU fused
//!    into conv, softmax stripped (argmax runs on the CPU, paper §III-E);
//!    the result is a [`seneca_ir::Module`], which every later step takes;
//! 2. [`observer`] — activation-range observers run over the calibration set
//!    (min-max, averaged-max, percentile);
//! 3. [`ptq`] — post-training quantization: per-tensor symmetric weights,
//!    calibrated activations, bias at accumulator scale;
//! 4. [`mixed`] — per-layer W4/W8 bitwidth assignment: sensitivity sweep
//!    plus a greedy DPU-cost-aware search (W4 weights live on a nibble
//!    grid, halving weight bytes where the layer tolerates it);
//! 5. [`finetune`] — "fast finetuning" (AdaQuant-flavoured): per-layer scale
//!    search plus bias correction against FP32 references;
//! 6. [`qat`] — quantization-aware training hooks (weight fake-quant at
//!    either bitwidth).
//!
//! Nothing here evaluates a graph itself: calibration, fast-finetune, the
//! sensitivity sweep and the search all step the one `seneca-ir` executor
//! (the fused FP32 module for references, [`QuantizedGraph::to_ir`] lowered
//! for candidates) — the same program the host backends and the DPU
//! runtime run, checked against `seneca_ir::oracle`.

pub mod finetune;
pub mod fuse;
pub mod mixed;
pub mod observer;
pub mod ptq;
pub mod qat;
pub mod qgraph;
mod run;

pub use fuse::fuse;
pub use mixed::{
    quantize_post_training_mixed, search_mixed_plan, sensitivity_sweep, BitwidthPlan,
    MixedSearchResult, SensitivityEntry,
};
pub use observer::{ObserverKind, RangeObserver};
pub use ptq::{calibrate, quantize_from_calibration, quantize_post_training, PtqConfig};
pub use qgraph::{QConvParams, QNode, QOp, QuantizedGraph};
pub use seneca_tensor::quantized::Bitwidth;
