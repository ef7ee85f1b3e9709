//! # seneca-hwsim
//!
//! A small discrete-event simulation (DES) engine used to model the timing
//! of the ZCU104 (dual-core DPU + ARM host). The engine is generic: [`des`]
//! provides an event queue, multi-server FIFO resources and a closed
//! pipeline-network simulator. Energy is priced from its busy times by
//! `seneca_dpu::power`, not here.
//!
//! The VART-style runtime in `seneca-dpu` maps onto this as a *closed
//! queueing network*: `population` = number of runner threads, stages =
//! CPU pre-process → DPU core → CPU post-process, resources = 4 ARM cores
//! and 2 DPU cores. Thread-count saturation (paper Fig. 3: EE grows up to 4
//! threads, flat beyond) emerges from the contention structure rather than
//! from a fitted curve.

pub mod des;

pub use des::{simulate_closed_pipeline, Resource, SimReport, StageSpec};
