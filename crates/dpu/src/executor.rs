//! Functional execution of an xmodel on one DPU core.
//!
//! [`run`] actually runs the INT8 maths: each CONV / POOL / ELEW
//! instruction steps its node of the xmodel's lowered `seneca-ir` program,
//! so the DPU path and the host INT8 backend run the same code. Timing is
//! the cost model's ([`crate::perf::frame_cost`]), not the executor's.

use crate::isa::DpuInstr;
use crate::xmodel::XModel;
use seneca_ir::{IrOp, QScratch};
use seneca_quant::QuantizedGraph;
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
    let m = qg.module();
    let op = &m.nodes[node].op;
    let kind_matches = match instr {
        DpuInstr::Conv { transpose, .. } => {
            matches!((op, transpose), (IrOp::Conv(_), false) | (IrOp::TConv(_), true))
        }
        DpuInstr::Pool { .. } => matches!(op, IrOp::MaxPool2x2),
        _ => matches!(op, IrOp::Concat { .. }),
    };
    assert!(kind_matches, "`{}` maps to {:?}", instr.disassemble(), op.mnemonic(m.dtype));
    Some(node)
}

/// Runs one frame through the xmodel's instruction stream into a
/// caller-owned scratch pool (`xm.lowered().make_scratch_i8()`) and returns
/// the output logits. The IR lowering keeps quantized-graph node ids one to
/// one, so each instruction indexes the lowered program directly. Streaming
/// callers hold one pool per worker: no per-frame allocation once warm.
pub fn run<'s>(xm: &XModel, input: &QTensor, scratch: &'s mut QScratch) -> QTensorView<'s> {
    assert_eq!(input.fix_pos(), xm.qgraph.module().input_fp, "input fix position");
    assert_eq!(input.shape(), xm.input_shape, "input geometry");
    let lowered = xm.lowered();
    lowered.load_input_i8(input, scratch);
    for instr in &xm.instrs {
        let Some(node) = compute_node(instr, &xm.qgraph) else { continue };
        lowered.execute_node_i8(node, scratch);
    }
    scratch.node_output(xm.qgraph.module().output)
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
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 6, dropout: 0.0 };
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
        let m = xm.qgraph.module();
        seneca_ir::oracle::run_i8(m, input).swap_remove(m.output)
    }

    #[test]
    fn functional_matches_quantized_graph_bit_exactly() {
        let (xm, img) = setup(1);
        let input = xm.quantize_input(&img);
        let out = run(&xm, &input, &mut xm.lowered().make_scratch_i8()).to_qtensor();
        assert_eq!(out, oracle(&xm, &input), "DPU core must bit-match the qgraph");
    }

    #[test]
    fn scratch_reuse_across_frames_is_bit_exact() {
        let (xm, _) = setup(5);
        let mut scratch = xm.lowered().make_scratch_i8();
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        for _ in 0..3 {
            let mut frame = Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng);
            for v in frame.data_mut() {
                *v = v.clamp(-1.0, 1.0);
            }
            let input = xm.quantize_input(&frame);
            let pooled = run(&xm, &input, &mut scratch).to_qtensor();
            assert_eq!(pooled, oracle(&xm, &input), "stale scratch state leaked into a frame");
        }
    }

    #[test]
    #[should_panic(expected = "input geometry")]
    fn wrong_geometry_rejected() {
        let (xm, _) = setup(4);
        let bad =
            QTensor::from_vec(Shape4::new(1, 1, 8, 8), vec![0; 64], xm.qgraph.module().input_fp);
        run(&xm, &bad, &mut xm.lowered().make_scratch_i8());
    }
}
