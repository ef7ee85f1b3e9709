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
use seneca_ir::{lower, LowerOptions, Lowered};
use seneca_quant::QuantizedGraph;
use seneca_tensor::{Shape4, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

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
    /// Lazily lowered IR program (pre-packed weight panels, liveness plan);
    /// rebuilt on demand after deserialisation, shared by every worker.
    #[serde(skip, default)]
    pub(crate) lowered: Arc<OnceLock<Arc<Lowered>>>,
}

impl XModel {
    /// The IR lowering of the functional payload: packed weight panels and
    /// the liveness plan, built once per xmodel (first use) and shared by
    /// every executor worker.
    pub fn lowered(&self) -> Arc<Lowered> {
        self.lowered
            .get_or_init(|| {
                Arc::new(lower(self.qgraph.to_ir(), self.input_shape, &LowerOptions::reference()))
            })
            .clone()
    }

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

    /// Deserialises from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use rand::SeedableRng;
    use seneca_nn::graph::Graph;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_quant::{fuse, quantize_post_training, PtqConfig};

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
        let run = |m: &XModel| {
            let mut scratch = m.lowered().make_scratch_i8();
            crate::executor::run(m, &m.quantize_input(&frame), &mut scratch).to_qtensor()
        };
        assert_eq!(run(&xm), run(&xm2));
        // A payload edited into something the quantizer never emits is refused.
        assert!(XModel::from_json(&j.replacen("\"MaxPool2x2\"", "\"Relu\"", 1)).is_err());
    }
}
