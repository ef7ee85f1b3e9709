//! Inference-graph fusion: the front-end clean-up both the Vitis AI
//! quantizer and VAI_C perform before touching numbers.
//!
//! * BatchNorm folds into the preceding convolution (running statistics);
//! * Dropout nodes are deleted ("nodes not required for inference");
//! * standalone ReLU fuses into the preceding conv;
//! * the trailing softmax is stripped — per §III-E the compiled model
//!   "returns INT8 masks", the argmax runs on the host.
//!
//! The rewrites themselves live in `seneca-ir`'s pass pipeline
//! ([`seneca_ir::fold_batchnorm`], [`seneca_ir::fuse_relu`],
//! [`seneca_ir::strip_identities`]); [`fuse`] runs them on a copy of the
//! export graph's module. The rewritten [`Module`] is the quantizer's input:
//! its node ids are the "fused node ids" of [`crate::ptq::PtqReport`],
//! [`crate::mixed::BitwidthPlan`] and the [`crate::QuantizedGraph`] built
//! from it.

use seneca_ir::{DType, IrOp, Module};
use seneca_nn::graph::Graph;

/// Fuses a training-time graph into the DPU-executable form by running the
/// shared IR rewrite passes.
pub fn fuse(graph: &Graph) -> Module {
    let mut m = graph.to_ir();
    seneca_ir::fold_batchnorm(&mut m);
    seneca_ir::fuse_relu(&mut m);
    seneca_ir::strip_identities(&mut m, /* strip_softmax = */ true);
    m
}

/// The quantizer only understands what the DPU executes: input, conv,
/// tconv, max pool, concat. Anything else in a module handed to it was left
/// behind by [`fuse`] (a BN after a non-exclusive conv, a ReLU on a shared
/// edge) or never went through it: panic rather than mis-quantise.
pub(crate) fn assert_fused(fg: &Module) {
    assert_eq!(fg.dtype, DType::F32, "the quantizer takes the fused FP32 module");
    for node in &fg.nodes {
        match &node.op {
            IrOp::Input
            | IrOp::Conv(_)
            | IrOp::TConv(_)
            | IrOp::MaxPool2x2
            | IrOp::Concat { .. } => {}
            other => panic!(
                "{} survived fusion (unsupported placement in export graph)",
                other.mnemonic(DType::F32)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seneca_ir::oracle;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_tensor::{Shape4, Tensor};

    fn tiny_graph(seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 6, dropout: 0.1 };
        Graph::from_unet(&UNet::new(cfg, &mut rng), "tiny")
    }

    #[test]
    fn fused_graph_has_no_bn_dropout_softmax() {
        let f = fuse(&tiny_graph(1));
        assert_fused(&f);
        // All non-head convs have fused relu.
        let convs: Vec<bool> = f
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                IrOp::Conv(a) => Some(a.relu),
                _ => None,
            })
            .collect();
        assert_eq!(convs.len(), 11);
        assert_eq!(convs.iter().filter(|r| **r).count(), 10, "head conv must stay linear");
    }

    #[test]
    #[should_panic(expected = "relu survived fusion")]
    fn a_relu_left_on_a_shared_edge_is_rejected() {
        let mut m = fuse(&tiny_graph(6));
        m.push(IrOp::Relu, vec![m.output]);
        assert_fused(&m);
    }

    #[test]
    fn fusion_preserves_inference_up_to_softmax() {
        let g = tiny_graph(2);
        let f = fuse(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng);
        // Reference: the oracle on the *unfused* export graph, whose last
        // node is the softmax over the node `fuse` keeps as its output.
        let m = g.module();
        let reference = oracle::run_f32(m, &x);
        let logits_ref = &reference[m.nodes[m.output].inputs[0]];
        let logits = seneca_ir::execute_f32(&f, &x);
        assert_eq!(logits.shape(), logits_ref.shape());
        oracle::assert_close_f32(logits.data(), logits_ref.data(), "fused logits");
    }

    #[test]
    fn fused_shapes_match_source_graph() {
        let g = tiny_graph(4);
        let f = fuse(&g);
        let input = Shape4::new(1, 1, 32, 32);
        let fused_out = f.shapes(input)[f.output];
        let src_out = g.module().shapes(input)[g.module().output];
        assert_eq!(fused_out, src_out);
    }

    #[test]
    fn node_count_shrinks() {
        let g = tiny_graph(5);
        let f = fuse(&g);
        assert!(
            f.nodes.len() < g.module().nodes.len() - 10,
            "{} fused vs {} source",
            f.nodes.len(),
            g.module().nodes.len()
        );
    }
}
