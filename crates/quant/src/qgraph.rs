//! The quantized graph: the serialised hand-off between the quantizer, the
//! host INT8 backend and the DPU compiler (it is the xmodel's functional
//! payload). It holds numbers, not code — to run it, lower
//! [`QuantizedGraph::to_ir`] through `seneca-ir`.
//!
//! The arithmetic its fields describe follows the DPU model: INT8 operands,
//! INT32 accumulators, power-of-two rescaling by arithmetic shift (round half
//! away from zero, saturating). The bias is pre-scaled to the accumulator's
//! fix position `fp_in + fp_w`, and each op's output is requantised to its
//! calibrated activation fix position.

use seneca_ir::{ConcatQ, ConvAttrs, ConvKernel, DType, IrOp, Module};
use seneca_tensor::quantized::{Bitwidth, QTensor};
use seneca_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Parameters of a quantized (t)conv.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QConvParams {
    /// INT8 weights with their fix position.
    pub w: QTensor,
    /// Bias at accumulator scale (`fp_in + fp_w`).
    pub bias: Vec<i32>,
    /// Fused ReLU.
    pub relu: bool,
    /// Input activation fix position this node was calibrated for.
    pub in_fp: i32,
    /// Output activation fix position.
    pub out_fp: i32,
    /// Weight bitwidth. W4 weights are stored as i8 values in `[-8, 7]`, so
    /// every unpacked execution path runs them unchanged; only the packed
    /// GEMM panels and the deployment byte accounting differ.
    pub wbits: Bitwidth,
}

impl QConvParams {
    /// Deployed parameter bytes of this node: nibble-packed weights for W4,
    /// one byte per weight for W8, plus the INT32 bias words.
    pub fn weight_bytes(&self) -> u64 {
        let elems = self.w.shape().len();
        let w_bytes = match self.wbits {
            Bitwidth::W8 => elems,
            Bitwidth::W4 => elems.div_ceil(2),
        };
        (w_bytes + 4 * self.bias.len()) as u64
    }
}

/// Quantized operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum QOp {
    /// Input placeholder.
    Input,
    /// Quantized 3x3 conv (+ReLU).
    Conv(QConvParams),
    /// Quantized 2x2 stride-2 transpose conv.
    TConv(QConvParams),
    /// Max pool (fix position unchanged).
    MaxPool2x2,
    /// Concat with per-input alignment shifts (right shifts to the smaller
    /// fix position).
    Concat {
        /// Right shift applied to the first input.
        shift_a: i32,
        /// Right shift applied to the second input.
        shift_b: i32,
        /// Resulting fix position.
        out_fp: i32,
    },
}

impl QOp {
    /// Mnemonic for compiler listings.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            QOp::Input => "input",
            QOp::Conv(_) => "qconv",
            QOp::TConv(_) => "qtconv",
            QOp::MaxPool2x2 => "qmaxpool",
            QOp::Concat { .. } => "qconcat",
        }
    }
}

/// Quantized node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QNode {
    /// Operation.
    pub op: QOp,
    /// Input node ids.
    pub inputs: Vec<usize>,
}

/// A fully quantized inference graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedGraph {
    /// Nodes, topological order, node 0 = input.
    pub nodes: Vec<QNode>,
    /// Output node id.
    pub output: usize,
    /// Fix position expected for the INT8 input image.
    pub input_fp: i32,
    /// Fix position of the INT8 output logits.
    pub output_fp: i32,
    /// Model name.
    pub name: String,
}

impl QuantizedGraph {
    /// Quantises an FP32 input image (`[-1, 1]` after preprocessing) into the
    /// graph's expected INT8 representation — this is the "scale input slices
    /// with a factor stored in the xmodel" step of §III-E.
    pub fn quantize_input(&self, x: &Tensor) -> QTensor {
        QTensor::quantize(x, self.input_fp)
    }

    /// Converts the quantized graph into the typed IR. Node ids are
    /// preserved one-to-one; the INT8 host executor and the DPU compiler
    /// both lower from the returned [`Module`].
    pub fn to_ir(&self) -> Module {
        let mut m = Module::new(self.name.clone(), DType::I8);
        m.input_fp = self.input_fp;
        m.output_fp = self.output_fp;
        for node in self.nodes.iter().skip(1) {
            let op = match &node.op {
                QOp::Input => unreachable!("input is always node 0"),
                QOp::Conv(p) => IrOp::Conv(ConvAttrs {
                    kernel: ConvKernel::I8 {
                        w: p.w.clone(),
                        bias: p.bias.clone(),
                        in_fp: p.in_fp,
                        out_fp: p.out_fp,
                        wbits: p.wbits,
                    },
                    relu: p.relu,
                    pack: None,
                }),
                QOp::TConv(p) => IrOp::TConv(ConvAttrs {
                    kernel: ConvKernel::I8 {
                        w: p.w.clone(),
                        bias: p.bias.clone(),
                        in_fp: p.in_fp,
                        out_fp: p.out_fp,
                        wbits: p.wbits,
                    },
                    relu: p.relu,
                    pack: None,
                }),
                QOp::MaxPool2x2 => IrOp::MaxPool2x2,
                QOp::Concat { shift_a, shift_b, out_fp } => IrOp::Concat {
                    requant: Some(ConcatQ {
                        shift_a: *shift_a,
                        shift_b: *shift_b,
                        out_fp: *out_fp,
                    }),
                },
            };
            m.push(op, node.inputs.clone());
        }
        m.output = self.output;
        m
    }

    /// Total deployed parameter bytes across the graph (nibble-packed W4
    /// weights count half a byte per element). This is the "total weight
    /// bytes" number the mixed-precision search minimises alongside cycles.
    pub fn weight_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                QOp::Conv(p) | QOp::TConv(p) => p.weight_bytes(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seneca_tensor::quantized::choose_fix_pos;
    use seneca_tensor::Shape4;

    fn qp(w: Tensor, bias_f: &[f32], relu: bool, in_fp: i32, out_fp: i32) -> QConvParams {
        let w_fp = choose_fix_pos(w.abs_max());
        let wq = QTensor::quantize(&w, w_fp);
        let acc_fp = in_fp + w_fp;
        let bias = bias_f.iter().map(|&b| (b * (acc_fp as f32).exp2()).round() as i32).collect();
        QConvParams { w: wq, bias, relu, in_fp, out_fp, wbits: Bitwidth::W8 }
    }

    #[test]
    fn to_ir_lowers_and_matches_the_oracle_across_frames() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let in_fp = choose_fix_pos(1.0);
        // Input -> Conv(+ReLU) -> MaxPool -> TConv, then Concat(Conv, TConv):
        // exercises every op kind and a skip connection.
        let conv = qp(
            Tensor::he_normal(Shape4::new(3, 2, 3, 3), &mut rng),
            &[0.02, -0.01, 0.05],
            true,
            in_fp,
            5,
        );
        let tconv =
            qp(Tensor::he_normal(Shape4::new(3, 2, 2, 2), &mut rng), &[0.01, 0.0], false, 5, 4);
        let g = QuantizedGraph {
            nodes: vec![
                QNode { op: QOp::Input, inputs: vec![] },
                QNode { op: QOp::Conv(conv), inputs: vec![0] },
                QNode { op: QOp::MaxPool2x2, inputs: vec![1] },
                QNode { op: QOp::TConv(tconv), inputs: vec![2] },
                QNode { op: QOp::Concat { shift_a: 1, shift_b: 0, out_fp: 4 }, inputs: vec![1, 3] },
            ],
            output: 4,
            input_fp: in_fp,
            output_fp: 4,
            name: "scratch-test".into(),
        };
        let shape = Shape4::new(1, 2, 8, 8);
        let lowered = seneca_ir::lower(g.to_ir(), shape, &seneca_ir::LowerOptions::reference());
        let mut scratch = lowered.make_scratch_i8();
        for _frame in 0..3 {
            let x = Tensor::from_vec(
                shape,
                (0..shape.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            );
            seneca_ir::oracle::check_i8(&lowered, &mut scratch, &g.quantize_input(&x));
            assert_eq!(lowered.node_output_i8(g.output, &scratch).fix_pos(), g.output_fp);
        }
    }

    #[test]
    #[should_panic(expected = "qconv C_in mismatch")]
    fn corrupted_conv_c_in_panics_in_shapes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        // Weights expect 5 input channels but the upstream value has 2.
        let conv =
            qp(Tensor::he_normal(Shape4::new(3, 5, 3, 3), &mut rng), &[0.0, 0.0, 0.0], false, 6, 5);
        let g = QuantizedGraph {
            nodes: vec![
                QNode { op: QOp::Input, inputs: vec![] },
                QNode { op: QOp::Conv(conv), inputs: vec![0] },
            ],
            output: 1,
            input_fp: 6,
            output_fp: 5,
            name: "corrupt".into(),
        };
        let _ = g.to_ir().shapes(Shape4::new(1, 2, 8, 8));
    }

    #[test]
    #[should_panic(expected = "qconcat geometry mismatch")]
    fn corrupted_concat_geometry_panics_in_shapes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let conv =
            qp(Tensor::he_normal(Shape4::new(2, 2, 3, 3), &mut rng), &[0.0, 0.0], false, 6, 5);
        // Concat of a full-res value with its pooled half-res sibling.
        let g = QuantizedGraph {
            nodes: vec![
                QNode { op: QOp::Input, inputs: vec![] },
                QNode { op: QOp::Conv(conv), inputs: vec![0] },
                QNode { op: QOp::MaxPool2x2, inputs: vec![1] },
                QNode { op: QOp::Concat { shift_a: 0, shift_b: 0, out_fp: 5 }, inputs: vec![1, 2] },
            ],
            output: 3,
            input_fp: 6,
            output_fp: 5,
            name: "corrupt".into(),
        };
        let _ = g.to_ir().shapes(Shape4::new(1, 2, 8, 8));
    }

    #[test]
    fn scratch_arena_is_smaller_than_per_node_pool() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let in_fp = choose_fix_pos(1.0);
        let conv1 =
            qp(Tensor::he_normal(Shape4::new(4, 2, 3, 3), &mut rng), &[0.0; 4], true, in_fp, 5);
        let conv2 = qp(Tensor::he_normal(Shape4::new(4, 4, 3, 3), &mut rng), &[0.0; 4], true, 5, 5);
        let conv3 = qp(Tensor::he_normal(Shape4::new(4, 4, 3, 3), &mut rng), &[0.0; 4], true, 5, 4);
        let g = QuantizedGraph {
            nodes: vec![
                QNode { op: QOp::Input, inputs: vec![] },
                QNode { op: QOp::Conv(conv1), inputs: vec![0] },
                QNode { op: QOp::Conv(conv2), inputs: vec![1] },
                QNode { op: QOp::Conv(conv3), inputs: vec![2] },
            ],
            output: 3,
            input_fp: in_fp,
            output_fp: 4,
            name: "chain".into(),
        };
        let plan = g.to_ir().plan(Shape4::new(1, 2, 16, 16));
        // A 3-conv chain ping-pongs: peak-live well below the per-node sum.
        assert!(plan.n_slots() < plan.n_nodes());
        assert!(plan.peak_arena_elems() < plan.total_activation_elems());
    }
}
