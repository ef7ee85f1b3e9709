//! # seneca-data
//!
//! A synthetic stand-in for the CT-ORG dataset (140 CT volumes with six
//! labeled organs) used by the SENECA paper. Real TCIA data cannot ship with
//! this reproduction, so [`phantom`] procedurally generates abdominal/chest
//! CT volumes whose *statistical structure* matches what the paper's methods
//! react to: organ pixel frequencies close to Table I (including the brain's
//! extreme under-representation), heavy class imbalance, and low-contrast
//! organ boundaries (soft tissue at 40–65 HU with partial-volume blur).
//!
//! Modules:
//! * [`volume`] — 3-D volumes (HU voxels + labels) and slice extraction;
//! * [`anatomy`] — per-patient parametric organ geometry;
//! * [`phantom`] — the rasteriser producing volumes from anatomy;
//! * [`dataset`] — the 140-patient synthetic cohort, deterministic per
//!   patient id, with train/val/test splits;
//! * [`preprocess`] — stage A of the workflow: downsampling, [-1, 1]
//!   rescaling, 1%/99% percentile saturation, brain-label removal;
//! * [`calibration`] — the Table III calibration-set samplers (random vs
//!   manually frequency-leveled);
//! * [`pathology`] — parametric lesions (liver tumors, lung nodules, renal
//!   cysts) injected inside host organs, labels folded into the organ mask;
//! * [`scenario`] — acquisition scenarios (dose / slice thickness / FOV)
//!   and the factorial grid driving the robustness experiment;
//! * [`stats`] — organ pixel-frequency accounting (Table I);
//! * [`nifti`] — minimal NIfTI-1 export so synthetic volumes open in
//!   standard medical viewers (CT-ORG's native format).

#![deny(unsafe_code)]

pub mod anatomy;
pub mod calibration;
pub mod dataset;
pub mod nifti;
pub mod pathology;
pub mod phantom;
pub mod preprocess;
pub mod scenario;
pub mod stats;
pub mod volume;

pub use dataset::{ScanKind, SplitKind, SyntheticCtOrg, SyntheticCtOrgConfig};
pub use volume::{Organ, Slice2d, Volume};
