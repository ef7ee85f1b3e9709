//! # seneca-gpu
//!
//! The FP32 baseline of the paper: the five U-Nets running on an NVIDIA
//! GeForce RTX 2060 Mobile. Functional execution is the host FP32
//! reference backend (`seneca_backend::Fp32RefBackend`) at one thread;
//! [`model`] adds an analytic timing/energy model of the GPU
//! (SM-occupancy-limited effective FLOPS, per-kernel launch overhead,
//! TDP-bound power ≈ 78 W) and [`runner`] reports it through
//! `GpuRunner::throughput`, in the same `ThroughputReport` as the DPU
//! runtime.
//!
//! The model captures the two GPU behaviours visible in Table IV:
//! small-channel convolutions under-occupy the SMs (so layer time scales
//! with channel *width*, making the f=6 "2M" net slightly faster than the
//! f=8 "1M" net despite more layers), and power is TDP-bound and nearly
//! model-independent (77–78 W).

#![deny(unsafe_code)]

pub mod model;
pub mod runner;

pub use model::GpuModel;
pub use runner::GpuRunner;
