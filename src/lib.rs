//! Workspace-root helper crate for the SENECA reproduction.
//!
//! This crate exists to host the runnable `examples/` and the cross-crate
//! integration tests in `tests/`. It re-exports the public façade crate.

#![deny(unsafe_code)]
pub use seneca;
