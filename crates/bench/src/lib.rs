//! # seneca-bench
//!
//! The experiment harness regenerating every table and figure of the paper.
//! The `reproduce` binary dispatches to [`experiments`]; [`ctx`] owns the
//! shared state (cohort, trained models, deployments) so a full
//! `reproduce all` trains each model exactly once.

#![deny(unsafe_code)]

pub mod ctx;
pub mod experiments;
pub mod fmt;

pub use ctx::{ExperimentCtx, Scale};
