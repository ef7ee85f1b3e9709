//! The compiled model artifact ("xmodel").
//!
//! VAI_C's output is a binary xmodel holding DPU microcode, weights and the
//! input scale factor. Ours holds the instruction stream, the quantized
//! graph (weights + fix positions — the functional payload), the target
//! architecture and compile-time statistics. §III-E: "we scaled input slices
//! with a specific factor generated during compilation and stored into the
//! xmodel" — that factor is [`XModel::input_scale`].

use crate::arch::DpuArch;
use crate::isa::DpuInstr;
use seneca_ir::IrOp;
use seneca_quant::QuantizedGraph;
use seneca_tensor::{Shape4, Tensor};
use serde::{Deserialize, Serialize};

/// Compile-time statistics embedded in the artifact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CompileStats {
    /// Total instructions emitted.
    pub n_instrs: usize,
    /// CONV/DCONV instructions.
    pub n_conv: usize,
    /// Weight bytes (INT8, unpadded).
    pub weight_bytes: u64,
    /// Feature-map DDR traffic per frame (bytes, channel-padded).
    pub fm_traffic_bytes: u64,
    /// Estimated compute cycles per frame on one core.
    pub compute_cycles: u64,
    /// Number of layers with ICP-misaligned channel counts.
    pub misaligned_layers: usize,
    /// DDR feature-map arena bytes under the shared liveness plan
    /// (channel-padded, each map at an offset whose bytes are reused once
    /// its last consumer retires).
    pub peak_arena_bytes: u64,
    /// Sum of every feature map's channel-padded bytes — what keeping all
    /// maps resident in DDR simultaneously would cost.
    pub total_activation_bytes: u64,
}

/// A compiled DPU model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XModel {
    /// Model name (e.g. "1M-int8").
    pub name: String,
    /// Target architecture.
    pub arch: DpuArch,
    /// Expected input geometry (batch 1).
    pub input_shape: Shape4,
    /// Instruction stream.
    pub instrs: Vec<DpuInstr>,
    /// Functional payload: the quantized graph (weights, fix positions).
    pub qgraph: QuantizedGraph,
    /// Compile statistics.
    pub stats: CompileStats,
}

impl XModel {
    /// The input scale factor `2^fix_pos` stored by the compiler: multiply
    /// preprocessed `[-1, 1]` pixels by this and round to get INT8 input.
    pub fn input_scale(&self) -> f32 {
        (self.qgraph.module().input_fp as f32).exp2()
    }

    /// Quantises one preprocessed FP32 image for submission.
    pub fn quantize_input(&self, img: &Tensor) -> seneca_tensor::QTensor {
        self.qgraph.quantize_input(img)
    }

    /// Full disassembly listing.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "; {} for {} ({} instrs, {} conv, {:.2} MiB weights)\n",
            self.name,
            self.arch.name,
            self.stats.n_instrs,
            self.stats.n_conv,
            self.stats.weight_bytes as f64 / (1024.0 * 1024.0)
        ));
        for (i, instr) in self.instrs.iter().enumerate() {
            out.push_str(&format!("{i:4}: {}\n", instr.disassemble()));
        }
        out
    }

    /// Serialises to JSON (the artifact format of this reproduction).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("xmodel serialisation")
    }

    /// Deserialises from JSON, refusing an instruction stream that does not
    /// match its payload.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let xm: Self = serde_json::from_str(s)?;
        xm.check_instrs().map_err(serde_json::Error::new)?;
        Ok(xm)
    }

    /// Every CONV / POOL / ELEW names a node of the payload with the op it
    /// implements.
    pub(crate) fn check_instrs(&self) -> Result<(), String> {
        let m = self.qgraph.module();
        for instr in &self.instrs {
            let Some(id) = instr.node() else { continue };
            let Some(node) = m.nodes.get(id) else {
                let n = m.nodes.len();
                return Err(format!("`{}` names node {id} of {n}", instr.disassemble()));
            };
            let implements = match instr {
                DpuInstr::Conv { transpose, .. } => {
                    matches!((&node.op, transpose), (IrOp::Conv(_), false) | (IrOp::TConv(_), true))
                }
                DpuInstr::Pool { .. } => matches!(node.op, IrOp::MaxPool2x2),
                _ => matches!(node.op, IrOp::Concat { .. }),
            };
            if !implements {
                let op = node.op.mnemonic(m.dtype);
                return Err(format!("`{}` names node {id}, a {op}", instr.disassemble()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::runtime::{DpuRunner, RuntimeConfig};
    use rand::SeedableRng;
    use seneca_backend::Backend;
    use seneca_nn::graph::Graph;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_quant::{fuse, quantize_post_training, PtqConfig};
    use std::sync::Arc;

    fn tiny_xmodel() -> XModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let cfg = UNetConfig { depth: 1, base_filters: 4, num_classes: 6, dropout: 0.0 };
        let net = UNet::new(cfg, &mut rng);
        let fg = fuse(&Graph::from_unet(&net, "t"));
        let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 8, 8), &mut rng)];
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        compile(&qg, Shape4::new(1, 1, 8, 8), DpuArch::b4096_zcu104())
    }

    #[test]
    fn input_scale_matches_fix_pos() {
        let xm = tiny_xmodel();
        assert_eq!(xm.input_scale(), (xm.qgraph.module().input_fp as f32).exp2());
    }

    #[test]
    fn disassembly_lists_all_instructions() {
        let xm = tiny_xmodel();
        let d = xm.disassemble();
        assert_eq!(d.lines().count(), xm.instrs.len() + 1);
        assert!(d.contains("CONV"));
        assert!(d.contains("END"));
    }

    #[test]
    fn json_roundtrip() {
        let xm = tiny_xmodel();
        let j = xm.to_json();
        let xm2 = XModel::from_json(&j).unwrap();
        assert_eq!(xm.instrs, xm2.instrs);
        assert_eq!(xm.stats, xm2.stats);
        assert_eq!(xm.name, xm2.name);
        // The functional payload survives too: one frame, the same bytes.
        let frame = Tensor::he_normal(xm.input_shape, &mut rand::rngs::StdRng::seed_from_u64(2));
        let run = |m: XModel| {
            let runner = DpuRunner::new(Arc::new(m), RuntimeConfig { threads: 1 });
            runner.infer_batch(std::slice::from_ref(&frame)).remove(0).into_i8()
        };
        assert_eq!(run(xm.clone()), run(xm2));
        // A payload edited into something the quantizer never emits is refused.
        assert!(XModel::from_json(&j.replacen("\"MaxPool2x2\"", "\"Relu\"", 1)).is_err());
    }

    /// A stream whose CONV names a pool node, or a node past the payload,
    /// is refused at load time, not on every frame.
    #[test]
    fn a_stream_that_misnames_its_nodes_is_refused() {
        let xm = tiny_xmodel();
        let pool = xm.instrs.iter().find_map(|i| match i {
            DpuInstr::Pool { node, .. } => Some(*node),
            _ => None,
        });
        let pool = pool.expect("a depth-1 U-Net pools once");
        let n_nodes = xm.qgraph.module().nodes.len();
        for target in [pool, n_nodes] {
            let mut bad = xm.clone();
            let conv = bad.instrs.iter_mut().find_map(|i| match i {
                DpuInstr::Conv { node, .. } => Some(node),
                _ => None,
            });
            *conv.expect("a conv") = target;
            let err = XModel::from_json(&bad.to_json()).expect_err("misnamed node loads");
            assert!(err.to_string().contains(&format!("names node {target}")), "{err}");
        }
    }
}
