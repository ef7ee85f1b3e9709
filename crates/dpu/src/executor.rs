//! Functional and timing execution of an xmodel on one DPU core.
//!
//! Functional mode actually runs the INT8 maths: each CONV / POOL / ELEW
//! instruction steps its node of the xmodel's lowered `seneca-ir` program,
//! so the DPU path and the host INT8 backend run the same code. Timing-only mode
//! skips the maths and just evaluates the cost model — used by the
//! throughput sweeps where 2000-frame batches would make functional
//! execution needlessly slow.

use crate::isa::DpuInstr;
use crate::perf::{frame_cost, FrameCost};
use crate::xmodel::XModel;
use seneca_ir::QScratch;
use seneca_quant::{QOp, QuantizedGraph};
use seneca_tensor::{QTensor, QTensorView};

/// The graph node a CONV / POOL / ELEW instruction computes (`None` for
/// LOAD / SAVE / END). Panics when the instruction kind is not the one that
/// implements the node's op — a miscompiled stream.
pub(crate) fn compute_node(instr: &DpuInstr, qg: &QuantizedGraph) -> Option<usize> {
    let node = match instr {
        DpuInstr::Load { .. } | DpuInstr::Save { .. } | DpuInstr::End => return None,
        DpuInstr::Conv { node, .. } | DpuInstr::Pool { node, .. } | DpuInstr::Elew { node, .. } => {
            *node
        }
    };
    let op = &qg.nodes[node].op;
    let kind_matches = match instr {
        DpuInstr::Conv { transpose, .. } => {
            matches!((op, transpose), (QOp::Conv(_), false) | (QOp::TConv(_), true))
        }
        DpuInstr::Pool { .. } => matches!(op, QOp::MaxPool2x2),
        _ => matches!(op, QOp::Concat { .. }),
    };
    assert!(kind_matches, "`{}` maps to {:?}", instr.disassemble(), op.mnemonic());
    Some(node)
}

/// Execution mode of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run the INT8 maths and the cost model.
    Functional,
    /// Cost model only.
    TimingOnly,
}

/// Result of one job on a core.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// INT8 output logits (None in timing-only mode).
    pub output: Option<QTensor>,
    /// Frame cost on this core.
    pub cost: FrameCost,
}

/// One simulated DPU core.
#[derive(Debug, Clone)]
pub struct DpuCore {
    /// Execution mode.
    pub mode: ExecMode,
}

impl DpuCore {
    /// Creates a core in the given mode.
    pub fn new(mode: ExecMode) -> Self {
        Self { mode }
    }

    /// Allocates a per-worker scratch pool sized for this xmodel.
    pub fn make_scratch(xm: &XModel) -> QScratch {
        xm.lowered().make_scratch_i8()
    }

    /// Runs one frame through the xmodel, allocating a one-shot scratch pool
    /// in functional mode. Streaming callers should hold a pool per worker
    /// and use [`DpuCore::run_with_scratch`] instead.
    pub fn run(&self, xm: &XModel, input: &QTensor) -> JobResult {
        match self.mode {
            ExecMode::TimingOnly => JobResult { output: None, cost: frame_cost(xm, &xm.arch) },
            ExecMode::Functional => {
                let mut scratch = Self::make_scratch(xm);
                self.run_with_scratch(xm, input, &mut scratch)
            }
        }
    }

    /// Runs one frame using a caller-owned scratch pool: zero per-frame
    /// allocation in the im2col/GEMM hot path once buffers are warm.
    pub fn run_with_scratch(
        &self,
        xm: &XModel,
        input: &QTensor,
        scratch: &mut QScratch,
    ) -> JobResult {
        let cost = frame_cost(xm, &xm.arch);
        let output = match self.mode {
            ExecMode::TimingOnly => None,
            ExecMode::Functional => Some(self.exec_instrs(xm, input, scratch).to_qtensor()),
        };
        JobResult { output, cost }
    }

    /// Instruction-driven functional execution into the scratch pool. The
    /// IR lowering preserves quantized-graph node ids one-to-one, so the
    /// compiled instruction stream indexes the lowered program directly.
    fn exec_instrs<'s>(
        &self,
        xm: &XModel,
        input: &QTensor,
        scratch: &'s mut QScratch,
    ) -> QTensorView<'s> {
        assert_eq!(input.fix_pos(), xm.qgraph.input_fp, "input fix position");
        assert_eq!(input.shape(), xm.input_shape, "input geometry");
        let lowered = xm.lowered();
        lowered.load_input_i8(input, scratch);

        for instr in &xm.instrs {
            let Some(node) = compute_node(instr, &xm.qgraph) else { continue };
            lowered.execute_node_i8(node, scratch);
        }
        scratch.node_output(xm.qgraph.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::DpuArch;
    use crate::compiler::compile;
    use rand::SeedableRng;
    use seneca_nn::graph::Graph;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_quant::{fuse, quantize_post_training, PtqConfig};
    use seneca_tensor::{Shape4, Tensor};

    fn setup(seed: u64) -> (XModel, Tensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg =
            UNetConfig { depth: 2, base_filters: 4, in_channels: 1, num_classes: 6, dropout: 0.0 };
        let net = UNet::new(cfg, &mut rng);
        let fg = fuse(&Graph::from_unet(&net, "t"));
        let mut img = Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng);
        for v in img.data_mut() {
            *v = v.clamp(-1.0, 1.0);
        }
        let (qg, _) = quantize_post_training(&fg, &[img.clone()], &PtqConfig::default());
        let xm = compile(&qg, Shape4::new(1, 1, 16, 16), DpuArch::b4096_zcu104());
        (xm, img)
    }

    /// What the quantized graph computes, per the naive oracle.
    fn oracle(xm: &XModel, input: &QTensor) -> QTensor {
        seneca_ir::oracle::run_i8(&xm.qgraph.to_ir(), input).swap_remove(xm.qgraph.output)
    }

    #[test]
    fn functional_matches_quantized_graph_bit_exactly() {
        let (xm, img) = setup(1);
        let core = DpuCore::new(ExecMode::Functional);
        let input = xm.quantize_input(&img);
        let res = core.run(&xm, &input);
        assert_eq!(res.output.unwrap(), oracle(&xm, &input), "DPU core must bit-match the qgraph");
    }

    #[test]
    fn scratch_reuse_across_frames_is_bit_exact() {
        let (xm, img) = setup(5);
        let core = DpuCore::new(ExecMode::Functional);
        let mut scratch = DpuCore::make_scratch(&xm);
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        for _ in 0..3 {
            let mut frame = Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng);
            for v in frame.data_mut() {
                *v = v.clamp(-1.0, 1.0);
            }
            let input = xm.quantize_input(&frame);
            let pooled = core.run_with_scratch(&xm, &input, &mut scratch).output.unwrap();
            assert_eq!(pooled, oracle(&xm, &input), "stale scratch state leaked into a frame");
        }
        let _ = img;
    }

    #[test]
    fn timing_only_skips_output() {
        let (xm, img) = setup(2);
        let core = DpuCore::new(ExecMode::TimingOnly);
        let res = core.run(&xm, &xm.quantize_input(&img));
        assert!(res.output.is_none());
        assert!(res.cost.serial_ns > 0);
        assert!(res.cost.compute_ns > 0);
    }

    #[test]
    fn cost_matches_standalone_frame_cost() {
        let (xm, img) = setup(3);
        let core = DpuCore::new(ExecMode::TimingOnly);
        let res = core.run(&xm, &xm.quantize_input(&img));
        assert_eq!(res.cost, frame_cost(&xm, &xm.arch));
    }

    #[test]
    #[should_panic(expected = "input geometry")]
    fn wrong_geometry_rejected() {
        let (xm, _) = setup(4);
        let bad = QTensor::from_vec(Shape4::new(1, 1, 8, 8), vec![0; 64], xm.qgraph.input_fp);
        let _ = DpuCore::new(ExecMode::Functional).run(&xm, &bad);
    }
}
