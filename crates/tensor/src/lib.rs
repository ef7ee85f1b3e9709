//! # seneca-tensor
//!
//! A small, self-contained NCHW tensor library powering the SENECA
//! reproduction. It provides:
//!
//! * [`Shape4`] / [`Tensor`] — dense `f32` tensors in NCHW layout backed by a
//!   flat `Vec<f32>`;
//! * [`QTensor`] — symmetric INT8 quantized tensors with power-of-two scales,
//!   matching the arithmetic of the Xilinx DPU;
//! * compute kernels: blocked GEMM ([`gemm`]), implicit-GEMM convolution
//!   ([`conv`]), transpose convolution ([`tconv`]), max pooling ([`pool`]),
//!   batch normalisation ([`norm`]) and activations ([`activation`]) — each
//!   with the backward passes needed for training.
//!
//! The GEMM driver (`gemm::run_with`) is the one kernel that forks: above
//! [`gemm::FORK_MIN_MACS`] it splits a GEMM into parts on rayon. Every
//! other kernel runs on its caller's thread; inference sessions already hold
//! one worker per core, so a second fork would only oversubscribe them.
//!
//! The crate holds the workspace's one `unsafe` block: the call of the AVX-512
//! VNNI INT8 micro-kernel (`gemm::call_tile_i8`), a `#[target_feature]`
//! function that builds with that feature enabled can always run. Every
//! crate root denies `unsafe_code`; that call alone allows it, and
//! `scripts/ci.sh` fails on any other `unsafe` in `crates/*/src`. The
//! kernel's loads and stores are safe slice accesses, and data-race freedom
//! comes from handing each part disjoint `&mut` pieces, per the workspace HPC
//! guidelines.

#![deny(unsafe_code)]

pub mod activation;
pub mod conv;
pub mod gemm;
pub mod igemm;
pub mod im2col;
pub mod norm;
pub mod pool;
pub mod quad;
pub mod quantized;
pub mod shape;
pub mod tconv;
pub mod tensor;
pub mod zero;

pub use quantized::{Bitwidth, QTensor, QTensorView};
pub use shape::Shape4;
pub use tensor::{Tensor, TensorView};
pub use zero::Zero;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::activation::{relu, relu_backward, relu_into, softmax_channels};
    pub use crate::conv::{conv2d, conv2d_backward};
    pub use crate::norm::{batchnorm_backward, batchnorm_forward, BnState};
    pub use crate::pool::{maxpool2x2, maxpool2x2_backward, maxpool2x2_into};
    pub use crate::quantized::{QTensor, QTensorView};
    pub use crate::shape::Shape4;
    pub use crate::tconv::{tconv2x2, tconv2x2_backward};
    pub use crate::tensor::{Tensor, TensorView};
}
