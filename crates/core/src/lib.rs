//! # seneca
//!
//! The SENECA workflow façade — the paper's Figure 1 pipeline end to end:
//!
//! * **(A)** data preparation: synthetic CT-ORG cohort + preprocessing
//!   ([`workflow::Workflow::prepare_data`]);
//! * **(B, C)** model definition and weighted-Focal-Tversky training
//!   ([`workflow::Workflow::train_model`], cached by [`zoo`]);
//! * **(D)** INT8 post-training quantisation with a frequency-leveled
//!   calibration set ([`workflow::Workflow::quantize`]);
//! * **(E)** VAI_C-style compilation and VART-style deployment on the
//!   simulated dual-core DPUCZDX8G-B4096
//!   ([`workflow::Workflow::compile_and_deploy`]).
//!
//! [`eval`] hosts the accuracy/throughput drivers behind Tables IV–V and
//! Figures 3, 4 and 6, over the Dice/TPR/TNR and box-plot statistics of
//! [`metrics`]; [`render`] writes the qualitative Figure 5 panels.
//!
//! ```no_run
//! use seneca::{SenecaConfig, Workflow};
//! use seneca_nn::ModelSize;
//!
//! let cfg = SenecaConfig::fast(); // laptop-scale; `SenecaConfig::paper()` for full runs
//! let wf = Workflow::new(cfg);
//! let data = wf.prepare_data();
//! let deployment = wf.deploy(ModelSize::M1, &data);
//! let report = deployment.dpu_runner.throughput(2000, 0);
//! println!("{:.1} FPS at {:.1} W", report.fps, report.watt);
//! ```

pub mod config;
pub mod eval;
pub mod metrics;
pub mod render;
pub mod workflow;
pub mod zoo;

/// The unified inference backend abstraction (re-exported so downstream
/// code can write `seneca::backend::Backend`).
pub use seneca_backend as backend;

pub use config::SenecaConfig;
pub use workflow::{Deployment, PreparedData, Workflow};
