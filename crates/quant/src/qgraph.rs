//! The quantized graph: the serialised hand-off between the quantizer, the
//! host INT8 backend and the DPU compiler (it is the xmodel's functional
//! payload). It holds numbers, not code — to run it, lower
//! [`QuantizedGraph::to_ir`] through `seneca-ir`.
//!
//! Like the trained graph it *is* a [`seneca_ir::Module`]: [`QuantizedGraph`]
//! is a typed holder of an INT8 module whose nodes are only what the DPU
//! executes — the input, (transpose) convs with a [`ConvKernel::I8`] kernel,
//! max pools, and concats of two inputs at one fix position. The arithmetic
//! those fields describe follows the DPU model: INT8 operands, INT32
//! accumulators, power-of-two rescaling by arithmetic shift (round half away
//! from zero, saturating). The bias is pre-scaled to the accumulator's fix
//! position `fp_in + fp_w`, and each op's output is requantised to its
//! calibrated activation fix position.

use seneca_ir::{ConvKernel, DType, IrOp, Module};
use seneca_tensor::quantized::QTensor;
use seneca_tensor::Tensor;
use serde::{DeError, Deserialize, Serialize, Value};

/// A fully quantized inference graph: an INT8 [`Module`] of DPU nodes only.
/// Serialises as the module itself.
#[derive(Debug, Clone)]
pub struct QuantizedGraph {
    pub(crate) module: Module,
}

/// Whether `op` is a node the DPU executes.
fn is_dpu_op(op: &IrOp) -> bool {
    match op {
        IrOp::Conv(a) | IrOp::TConv(a) => matches!(a.kernel, ConvKernel::I8 { .. }),
        IrOp::Input | IrOp::MaxPool2x2 | IrOp::Concat {} => true,
        IrOp::BatchNorm { .. } | IrOp::Relu | IrOp::Dropout { .. } | IrOp::Softmax => false,
    }
}

impl TryFrom<Module> for QuantizedGraph {
    type Error = String;

    /// Takes over a module that is a quantized graph: well-formed, INT8,
    /// holding only the nodes the DPU executes, every concat joining two
    /// inputs at one fix position (the DPU lays it out by address), and
    /// every conv/tconv calibrated for the fix position its input is at (its
    /// requantising shift is taken from its own `in_fp`).
    fn try_from(module: Module) -> Result<Self, String> {
        module.check_structure()?;
        if module.dtype != DType::I8 {
            return Err("the quantized graph is an INT8 module".into());
        }
        if let Some(n) = module.nodes.iter().position(|n| !is_dpu_op(&n.op)) {
            let op = module.nodes[n].op.mnemonic(DType::I8);
            return Err(format!("node {n} ({op}) is not a quantized DPU node"));
        }
        let fps = module.fix_positions();
        for (i, node) in module.nodes.iter().enumerate() {
            let op = node.op.mnemonic(DType::I8);
            match (&node.op, &node.inputs[..]) {
                (IrOp::Concat {}, &[a, b]) if fps[a] != fps[b] => {
                    let (fa, fb) = (fps[a], fps[b]);
                    return Err(format!("node {i} ({op}) joins fix positions {fa} and {fb}"));
                }
                (IrOp::Conv(c) | IrOp::TConv(c), &[x]) => {
                    let ConvKernel::I8 { in_fp, .. } = c.kernel else { unreachable!("INT8") };
                    if in_fp != fps[x] {
                        let fx = fps[x];
                        return Err(format!(
                            "node {i} ({op}) expects input fix position {in_fp}, node {x} is at {fx}"
                        ));
                    }
                }
                _ => {}
            }
        }
        Ok(Self { module })
    }
}

impl Serialize for QuantizedGraph {
    fn to_value(&self) -> Value {
        self.module.to_value()
    }
}

impl Deserialize for QuantizedGraph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        QuantizedGraph::try_from(Module::from_value(v)?).map_err(DeError::new)
    }
}

impl QuantizedGraph {
    /// The held module: what every reader of the graph walks.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// A copy of the held module for lowering (the INT8 weights are cloned).
    pub fn to_ir(&self) -> Module {
        self.module.clone()
    }

    /// Quantises an FP32 input image (`[-1, 1]` after preprocessing) into the
    /// graph's expected INT8 representation — this is the "scale input slices
    /// with a factor stored in the xmodel" step of §III-E.
    pub fn quantize_input(&self, x: &Tensor) -> QTensor {
        QTensor::quantize(x, self.module.input_fp)
    }

    /// Total deployed parameter bytes across the graph (nibble-packed W4
    /// weights count half a byte per element). This is the "total weight
    /// bytes" number the mixed-precision search minimises alongside cycles.
    pub fn weight_bytes(&self) -> u64 {
        self.module
            .nodes
            .iter()
            .map(|n| match &n.op {
                IrOp::Conv(a) | IrOp::TConv(a) => a.kernel.weight_bytes(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seneca_ir::ConvAttrs;
    use seneca_tensor::quantized::{choose_fix_pos, Bitwidth};
    use seneca_tensor::Shape4;

    fn qp(w: Tensor, bias_f: &[f32], relu: bool, in_fp: i32, out_fp: i32) -> ConvAttrs {
        let w_fp = choose_fix_pos(w.abs_max());
        let wq = QTensor::quantize(&w, w_fp);
        let acc_fp = in_fp + w_fp;
        let bias = bias_f.iter().map(|&b| (b * (acc_fp as f32).exp2()).round() as i32).collect();
        let kernel = ConvKernel::I8 { w: wq, bias, in_fp, out_fp, wbits: Bitwidth::W8 };
        ConvAttrs { relu, ..ConvAttrs::new(kernel) }
    }

    /// A quantized graph of `ops` (each reading the listed nodes).
    fn graph(ops: Vec<(IrOp, Vec<usize>)>, input_fp: i32) -> QuantizedGraph {
        let mut m = Module::new("test", DType::I8);
        for (op, inputs) in ops {
            m.push(op, inputs);
        }
        m.input_fp = input_fp;
        QuantizedGraph::try_from(m).unwrap()
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
            qp(Tensor::he_normal(Shape4::new(3, 2, 2, 2), &mut rng), &[0.01, 0.0], false, 5, 5);
        let g = graph(
            vec![
                (IrOp::Conv(conv), vec![0]),
                (IrOp::MaxPool2x2, vec![1]),
                (IrOp::TConv(tconv), vec![2]),
                (IrOp::Concat {}, vec![1, 3]),
            ],
            in_fp,
        );
        let shape = Shape4::new(1, 2, 8, 8);
        let lowered = seneca_ir::lower(g.to_ir(), shape, &seneca_ir::LowerOptions::reference());
        let mut scratch = lowered.make_scratch_i8();
        for _frame in 0..3 {
            let x = Tensor::from_vec(
                shape,
                (0..shape.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            );
            seneca_ir::oracle::check_i8(&lowered, &mut scratch, &g.quantize_input(&x));
            let m = g.module();
            let out_fp = lowered.node_output_i8(m.output, &scratch).fix_pos();
            assert_eq!((out_fp, m.fix_positions()[m.output]), (5, 5));
        }
    }

    /// What the quantizer never emits is refused: an FP32 module, a node the
    /// DPU does not execute, a read of a later node, a concat of inputs at
    /// two fix positions.
    #[test]
    fn only_well_formed_int8_dpu_modules_are_quantized_graphs() {
        let err = |m: Module| QuantizedGraph::try_from(m).unwrap_err();
        assert!(err(Module::new("f", DType::F32)).contains("INT8"));
        let mut relu = Module::new("r", DType::I8);
        relu.push(IrOp::Relu, vec![0]);
        assert!(err(relu).contains("node 1 (relu)"));
        let mut pool = Module::new("p", DType::I8);
        pool.push(IrOp::MaxPool2x2, vec![0]);
        pool.nodes[1].inputs = vec![1];
        assert!(err(pool).contains("malformed"));
    }

    /// A concat whose inputs sit at different fix positions would need a
    /// requantising copy: no quantized graph holds one.
    #[test]
    fn a_concat_of_unequal_fix_positions_is_refused() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let mut cat = |out_fp| {
            let w = Tensor::he_normal(Shape4::new(2, 2, 3, 3), &mut rng);
            let mut m = Module::new("c", DType::I8);
            m.push(IrOp::Conv(qp(w, &[0.0, 0.0], false, 6, out_fp)), vec![0]);
            m.push(IrOp::Concat {}, vec![0, 1]);
            m.input_fp = 6;
            QuantizedGraph::try_from(m)
        };
        assert!(cat(6).is_ok());
        let err = cat(5).unwrap_err();
        assert_eq!(err, "node 2 (qconcat) joins fix positions 6 and 5");
    }

    /// A conv or tconv whose `in_fp` is not its input's fix position would
    /// run mis-scaled (the executor shifts by its own `in_fp`): bumping any
    /// one of a PTQ graph's by one makes loading it fail.
    #[test]
    fn a_conv_calibrated_for_another_input_position_is_refused() {
        use rand::SeedableRng;
        use seneca_nn::graph::Graph;
        use seneca_nn::unet::{UNet, UNetConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let cfg = UNetConfig { depth: 1, base_filters: 2, num_classes: 6, dropout: 0.0 };
        let fg = crate::fuse(&Graph::from_unet(&UNet::new(cfg, &mut rng), "tiny"));
        let calib = [Tensor::he_normal(Shape4::new(1, 1, 8, 8), &mut rng)];
        let (qg, _) = crate::quantize_post_training(&fg, &calib, &crate::PtqConfig::default());
        assert!(QuantizedGraph::try_from(qg.to_ir()).is_ok());
        let mut bumped = 0;
        for id in 0..qg.module().nodes.len() {
            let mut m = qg.to_ir();
            let (IrOp::Conv(a) | IrOp::TConv(a)) = &mut m.nodes[id].op else { continue };
            let ConvKernel::I8 { in_fp, .. } = &mut a.kernel else { unreachable!("INT8") };
            *in_fp += 1;
            let err = QuantizedGraph::try_from(m).unwrap_err();
            assert!(err.starts_with(&format!("node {id} (")), "{err}");
            assert!(err.contains("expects input fix position"), "{err}");
            bumped += 1;
        }
        assert!(bumped >= 4, "{bumped} convs and tconvs");
    }

    #[test]
    #[should_panic(expected = "qconv C_in mismatch")]
    fn corrupted_conv_c_in_panics_in_shapes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        // Weights expect 5 input channels but the upstream value has 2.
        let conv =
            qp(Tensor::he_normal(Shape4::new(3, 5, 3, 3), &mut rng), &[0.0, 0.0, 0.0], false, 6, 5);
        let g = graph(vec![(IrOp::Conv(conv), vec![0])], 6);
        let _ = g.module().shapes(Shape4::new(1, 2, 8, 8));
    }

    #[test]
    #[should_panic(expected = "qconcat geometry mismatch")]
    fn corrupted_concat_geometry_panics_in_shapes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let conv =
            qp(Tensor::he_normal(Shape4::new(2, 2, 3, 3), &mut rng), &[0.0, 0.0], false, 6, 5);
        // Concat of a full-res value with its pooled half-res sibling.
        let g = graph(
            vec![
                (IrOp::Conv(conv), vec![0]),
                (IrOp::MaxPool2x2, vec![1]),
                (IrOp::Concat {}, vec![1, 2]),
            ],
            6,
        );
        let _ = g.module().shapes(Shape4::new(1, 2, 8, 8));
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
        let g = graph(
            vec![
                (IrOp::Conv(conv1), vec![0]),
                (IrOp::Conv(conv2), vec![1]),
                (IrOp::Conv(conv3), vec![2]),
            ],
            in_fp,
        );
        let plan = g.module().plan(Shape4::new(1, 2, 16, 16));
        // A 3-conv chain ping-pongs: the third conv reuses the first's bytes,
        // and peak-live is well below the per-node sum.
        let (a, b) = (plan.range_of(1), plan.range_of(3));
        assert!(a.start < b.end && b.start < a.end, "conv 3 does not reuse conv 1's bytes");
        assert!(plan.peak_arena_elems() < plan.total_activation_elems());
    }
}
