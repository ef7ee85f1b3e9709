//! The trained-model export graph.
//!
//! After training, a [`crate::unet::UNet`] is exported to this small
//! single-input / single-output DAG. The IR is the hand-off format consumed
//! by the quantizer (`seneca-quant`) and the DPU compiler (`seneca-dpu`) —
//! mirroring how a TensorFlow graph flows into the Vitis AI quantizer and
//! VAI_C. It deliberately keeps BatchNorm and Dropout as *separate nodes* so
//! those tools can demonstrate folding/removal.
//!
//! The graph itself cannot be run: all execution lowers through `seneca-ir`.
//! [`Graph::to_ir`] converts into the typed IR [`seneca_ir::Module`], whose
//! pass pipeline and planned executor run it. Shape inference delegates to
//! the same IR pass.

use crate::unet::UNet;
use seneca_ir::shape::{infer_shapes_ops, ShapeOp};
use seneca_ir::{ConvAttrs, ConvKernel, DType, IrOp, Module};
use seneca_tensor::norm::BnState;
use seneca_tensor::{Shape4, Tensor};
use serde::{Deserialize, Serialize};

/// Graph operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Op {
    /// Graph input placeholder (exactly one, always node 0).
    Input,
    /// 3x3 stride-1 pad-1 convolution with optional fused ReLU.
    Conv {
        /// Weights `[C_out, C_in, 3, 3]`.
        w: Tensor,
        /// Bias (may be empty).
        b: Vec<f32>,
        /// Fused ReLU flag (set by the compiler's fusion pass, not the exporter).
        relu: bool,
    },
    /// Batch normalisation (inference form, running statistics).
    BatchNorm {
        /// BN parameters.
        bn: BnState,
    },
    /// Standalone ReLU.
    Relu,
    /// 2x2 stride-2 max pool.
    MaxPool2x2,
    /// 2x2 stride-2 transpose convolution.
    TConv {
        /// Weights `[C_in, C_out, 2, 2]`.
        w: Tensor,
        /// Bias.
        b: Vec<f32>,
    },
    /// Channel concatenation of the two inputs (first, second).
    Concat,
    /// Dropout (training artifact; identity at inference, removed by VAI_C).
    Dropout {
        /// Drop rate recorded for provenance.
        rate: f32,
    },
    /// Channel-wise softmax.
    Softmax,
}

impl Op {
    /// Short mnemonic for logs and compiler listings.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Conv { .. } => "conv3x3",
            Op::BatchNorm { .. } => "batchnorm",
            Op::Relu => "relu",
            Op::MaxPool2x2 => "maxpool2x2",
            Op::TConv { .. } => "tconv2x2",
            Op::Concat => "concat",
            Op::Dropout { .. } => "dropout",
            Op::Softmax => "softmax",
        }
    }
}

/// A node: an operation plus the ids of its input nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Input node ids (empty for `Input`, two for `Concat`, else one).
    pub inputs: Vec<usize>,
}

/// A single-input, single-output inference DAG in topological order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    /// Nodes; `nodes[0]` is always [`Op::Input`], ids are vector indices.
    pub nodes: Vec<Node>,
    /// Id of the output node.
    pub output: usize,
    /// Human-readable name (model label).
    pub name: String,
}

impl Graph {
    /// Creates an empty graph containing only the input node.
    pub fn new(name: impl Into<String>) -> Self {
        Self { nodes: vec![Node { op: Op::Input, inputs: vec![] }], output: 0, name: name.into() }
    }

    /// Appends a node and returns its id.
    pub fn push(&mut self, op: Op, inputs: Vec<usize>) -> usize {
        for &i in &inputs {
            assert!(i < self.nodes.len(), "forward reference in graph");
        }
        self.nodes.push(Node { op, inputs });
        self.output = self.nodes.len() - 1;
        self.output
    }

    /// Exports a trained U-Net into graph form (BN and dropout kept explicit).
    pub fn from_unet(net: &UNet, name: impl Into<String>) -> Self {
        let mut g = Graph::new(name);
        let mut cur = 0usize;
        let mut skips = Vec::new();
        let push_block =
            |g: &mut Graph, cur: usize, blk: &crate::layer::ConvBlock, with_relu: bool| -> usize {
                let mut id =
                    g.push(Op::Conv { w: blk.w.clone(), b: blk.b.clone(), relu: false }, vec![cur]);
                if let Some(bn) = &blk.bn {
                    id = g.push(Op::BatchNorm { bn: bn.clone() }, vec![id]);
                }
                if with_relu && blk.relu {
                    id = g.push(Op::Relu, vec![id]);
                }
                id
            };
        for e in &net.encoders {
            cur = push_block(&mut g, cur, &e.conv1, true);
            cur = push_block(&mut g, cur, &e.conv2, true);
            skips.push(cur);
            cur = g.push(Op::MaxPool2x2, vec![cur]);
            cur = g.push(Op::Dropout { rate: e.dropout.rate }, vec![cur]);
        }
        cur = push_block(&mut g, cur, &net.bneck1, true);
        cur = push_block(&mut g, cur, &net.bneck2, true);
        for (di, d) in net.decoders.iter().enumerate() {
            let skip = skips[net.config.depth - 1 - di];
            let up = g.push(Op::TConv { w: d.up.w.clone(), b: d.up.b.clone() }, vec![cur]);
            cur = g.push(Op::Concat, vec![skip, up]);
            cur = push_block(&mut g, cur, &d.conv1, true);
            cur = push_block(&mut g, cur, &d.conv2, true);
            cur = g.push(Op::Dropout { rate: d.dropout.rate }, vec![cur]);
        }
        cur = push_block(&mut g, cur, &net.head, false);
        g.push(Op::Softmax, vec![cur]);
        g
    }

    /// Infers every node's output shape for a given input shape (delegates
    /// to the IR shape-inference pass — one walk for every graph type).
    pub fn shapes(&self, input: Shape4) -> Vec<Shape4> {
        let ops: Vec<(ShapeOp, &[usize])> = self
            .nodes
            .iter()
            .map(|node| {
                let op = match &node.op {
                    Op::Input => ShapeOp::Input,
                    Op::Conv { w, .. } => ShapeOp::Conv { c_in: w.shape().c, c_out: w.shape().n },
                    Op::TConv { w, .. } => ShapeOp::TConv { c_in: w.shape().n, c_out: w.shape().c },
                    Op::BatchNorm { .. } | Op::Relu | Op::Dropout { .. } | Op::Softmax => {
                        ShapeOp::PassThrough
                    }
                    Op::MaxPool2x2 => ShapeOp::MaxPool2x2,
                    Op::Concat => ShapeOp::Concat,
                };
                (op, node.inputs.as_slice())
            })
            .collect();
        infer_shapes_ops(&ops, DType::F32, input)
    }

    /// Converts the export graph into the typed IR. Node ids are preserved
    /// one-to-one; every downstream executor (FP32 host, GPU baseline) and
    /// the quantizer frontend lower from the returned [`Module`].
    pub fn to_ir(&self) -> Module {
        let mut m = Module::new(self.name.clone(), DType::F32);
        for node in self.nodes.iter().skip(1) {
            let op = match &node.op {
                Op::Input => unreachable!("input is always node 0"),
                Op::Conv { w, b, relu } => IrOp::Conv(ConvAttrs {
                    kernel: ConvKernel::F32 { w: w.clone().into(), b: b.clone() },
                    relu: *relu,
                    pack: None,
                }),
                Op::BatchNorm { bn } => IrOp::BatchNorm { bn: bn.clone() },
                Op::Relu => IrOp::Relu,
                Op::MaxPool2x2 => IrOp::MaxPool2x2,
                Op::TConv { w, b } => IrOp::TConv(ConvAttrs {
                    kernel: ConvKernel::F32 { w: w.clone().into(), b: b.clone() },
                    relu: false,
                    pack: None,
                }),
                Op::Concat => IrOp::Concat { requant: None },
                Op::Dropout { rate } => IrOp::Dropout { rate: *rate },
                Op::Softmax => IrOp::Softmax,
            };
            m.push(op, node.inputs.clone());
        }
        m.output = self.output;
        m
    }

    /// Multiply-accumulate count per node for a given input shape (conv,
    /// tconv only; other ops are counted as zero-MAC).
    pub fn macs(&self, input: Shape4) -> Vec<u64> {
        let shapes = self.shapes(input);
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| match &node.op {
                Op::Conv { w, .. } => shapes[i].hw() as u64 * w.shape().len() as u64,
                Op::TConv { w, .. } => shapes[node.inputs[0]].hw() as u64 * w.shape().len() as u64,
                _ => 0,
            })
            .collect()
    }

    /// Number of nodes per mnemonic (compiler statistics helper).
    pub fn op_histogram(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut h = std::collections::BTreeMap::new();
        for n in &self.nodes {
            *h.entry(n.op.mnemonic()).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unet::{UNet, UNetConfig};
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> UNet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg =
            UNetConfig { depth: 2, base_filters: 4, in_channels: 1, num_classes: 6, dropout: 0.1 };
        UNet::new(cfg, &mut rng)
    }

    #[test]
    fn export_matches_unet_inference() {
        let net = tiny_net(5);
        let g = Graph::from_unet(&net, "tiny");
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let x = Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng);
        let y_net = net.infer(&x);
        let y_graph = seneca_ir::execute_f32(&g.to_ir(), &x);
        assert_eq!(y_net.shape(), y_graph.shape());
        for (a, b) in y_net.data().iter().zip(y_graph.data()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn graph_structure_counts() {
        let net = tiny_net(6);
        let g = Graph::from_unet(&net, "tiny");
        let h = g.op_histogram();
        // depth 2: enc 2*2 convs + bneck 2 + dec 2*2 convs + head = 11 convs.
        assert_eq!(h["conv3x3"], 11);
        assert_eq!(h["tconv2x2"], 2);
        assert_eq!(h["maxpool2x2"], 2);
        assert_eq!(h["concat"], 2);
        assert_eq!(h["dropout"], 4);
        assert_eq!(h["softmax"], 1);
        assert_eq!(h["batchnorm"], 10); // all convs except the head
        assert_eq!(h["input"], 1);
    }

    #[test]
    fn shapes_propagate() {
        let net = tiny_net(7);
        let g = Graph::from_unet(&net, "tiny");
        let shapes = g.shapes(Shape4::new(1, 1, 32, 32));
        assert_eq!(shapes[0], Shape4::new(1, 1, 32, 32));
        assert_eq!(shapes[g.output], Shape4::new(1, 6, 32, 32));
    }

    #[test]
    fn macs_concentrate_in_convs() {
        let net = tiny_net(8);
        let g = Graph::from_unet(&net, "tiny");
        let macs = g.macs(Shape4::new(1, 1, 32, 32));
        let total: u64 = macs.iter().sum();
        assert!(total > 0);
        for (i, node) in g.nodes.iter().enumerate() {
            match node.op {
                Op::Conv { .. } | Op::TConv { .. } => assert!(macs[i] > 0),
                _ => assert_eq!(macs[i], 0),
            }
        }
    }

    #[test]
    #[should_panic(expected = "forward reference")]
    fn push_rejects_forward_references() {
        let mut g = Graph::new("bad");
        g.push(Op::Relu, vec![7]);
    }

    #[test]
    fn ir_lowered_execution_matches_the_oracle_across_frames() {
        let net = tiny_net(12);
        let g = Graph::from_unet(&net, "tiny");
        let shape = Shape4::new(1, 1, 16, 16);
        let lowered = seneca_ir::lower(g.to_ir(), shape, &seneca_ir::LowerOptions::reference());
        let mut scratch = lowered.make_scratch_f32();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        // Several frames through the same arena: every node must keep matching
        // the oracle (no stale-slot contamination).
        for _frame in 0..3 {
            let x = Tensor::he_normal(shape, &mut rng);
            seneca_ir::oracle::check_f32(&lowered, &mut scratch, &x);
        }
    }

    #[test]
    fn plan_reuses_slots_below_total_activations() {
        // Depth-4 / 8-filter is the paper's 1M configuration: skip-aware
        // liveness must cut the arena well below the per-node sum.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let cfg =
            UNetConfig { depth: 4, base_filters: 8, in_channels: 1, num_classes: 6, dropout: 0.1 };
        let g = Graph::from_unet(&UNet::new(cfg, &mut rng), "m1");
        let plan = g.to_ir().plan(Shape4::new(1, 1, 64, 64));
        assert!(plan.n_slots() < plan.n_nodes());
        assert!(
            2 * plan.peak_arena_elems() < plan.total_activation_elems(),
            "peak {} vs total {}",
            plan.peak_arena_elems(),
            plan.total_activation_elems()
        );
    }

    #[test]
    fn slot_reuse_never_aliases_live_skip_connection() {
        let net = tiny_net(15);
        let g = Graph::from_unet(&net, "tiny");
        // `Module::plan` runs no rewrite passes, so ids map 1:1 onto `g`.
        let plan = g.to_ir().plan(Shape4::new(1, 1, 32, 32));
        for (i, node) in g.nodes.iter().enumerate() {
            if !matches!(node.op, Op::Concat) {
                continue;
            }
            // The skip input was produced long before the concat; every node
            // defined in between must avoid its slot.
            let skip = node.inputs[0];
            assert_eq!(plan.last_use_of(skip), i, "skip {skip} live exactly until concat {i}");
            for j in (skip + 1)..i {
                assert_ne!(
                    plan.slot_of(j),
                    plan.slot_of(skip),
                    "node {j} clobbers skip {skip} before concat {i}"
                );
            }
        }
    }

    #[test]
    fn scratch_reports_its_input_shape() {
        let net = tiny_net(16);
        let g = Graph::from_unet(&net, "tiny");
        let shape = Shape4::new(1, 1, 16, 16);
        let lowered = seneca_ir::lower(g.to_ir(), shape, &seneca_ir::LowerOptions::reference());
        let scratch = lowered.make_scratch_f32();
        assert_eq!(scratch.input_shape(), shape);
        // Reference lowering strips dropout identities, so the lowered module
        // is strictly smaller than the export graph.
        assert_eq!(scratch.plan().n_nodes(), lowered.module().nodes.len());
        assert!(lowered.module().nodes.len() < g.nodes.len());
    }

    #[test]
    fn serde_roundtrip() {
        let net = tiny_net(10);
        let g = Graph::from_unet(&net, "tiny");
        let json = serde_json::to_string(&g).unwrap();
        let g2: Graph = serde_json::from_str(&json).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let x = Tensor::he_normal(Shape4::new(1, 1, 8, 8), &mut rng);
        assert_eq!(seneca_ir::execute_f32(&g.to_ir(), &x), seneca_ir::execute_f32(&g2.to_ir(), &x));
    }
}
