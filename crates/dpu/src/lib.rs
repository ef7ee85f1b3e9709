//! # seneca-dpu
//!
//! A simulator for the Xilinx **DPUCZDX8G-B4096** soft-DSA that SENECA
//! deploys on (dual-core configuration on the ZCU104), together with the
//! VAI_C-style compiler and VART-style runtime around it:
//!
//! * [`arch`] — microarchitecture parameters: the hybrid computing array's
//!   three parallelism degrees (pixel x input-channel x output-channel =
//!   8x16x16 → 4096 ops/cycle), clocks, DDR bandwidth, instruction overheads;
//! * [`isa`] — the instruction set (LOAD / SAVE / CONV / POOL / ELEW / END)
//!   with a disassembler;
//! * [`compiler`] — compiles a [`seneca_quant::QuantizedGraph`] into an
//!   [`xmodel::XModel`]: tensor-arena allocation, per-instruction cycle and
//!   DDR-traffic estimates, fusion statistics;
//! * [`perf`] — the cycle/bandwidth cost model (lane quantisation via
//!   `ceil(C/16)`, channel-padding DDR traffic, misalignment penalties —
//!   the mechanisms behind the paper's model ordering on the DPU);
//! * [`runtime`] — the VART-style asynchronous multi-threaded runner: its
//!   functional path is the bit-exact host INT8 backend over the xmodel's
//!   quantized graph (what the DPU computes is what that graph defines),
//!   its throughput a `seneca-hwsim` closed-network model for
//!   throughput/energy experiments (1/2/4/8 threads, Fig. 3);
//! * [`power`] — the ZCU104 board power model (static + per-core dynamic +
//!   DDR traffic), calibrated against Table IV's 24–31 W range;
//! * [`profile`] — vaitrace-style per-layer profiling of a compiled xmodel.

#![deny(unsafe_code)]

pub mod arch;
pub mod compiler;
pub mod isa;
pub mod perf;
pub mod power;
pub mod profile;
pub mod runtime;
pub mod xmodel;

pub use arch::DpuArch;
pub use compiler::compile;
pub use runtime::{DpuRunner, ThroughputReport};
pub use xmodel::XModel;
