//! The model graph: what is trained, and what is handed off.
//!
//! A [`crate::unet::UNet`] is built as this small single-input /
//! single-output DAG, which is trained in place by the reverse walk of
//! [`crate::backprop`], and then handed to the quantizer (`seneca-quant`) and
//! the DPU compiler (`seneca-dpu`) — mirroring how one TensorFlow graph is
//! trained and then flows into the Vitis AI quantizer and VAI_C.
//!
//! The graph *is* a [`seneca_ir::Module`]: [`Graph`] is a typed holder of an
//! FP32 module in the form the exporter writes it — BatchNorm, ReLU, Dropout
//! and Softmax as separate nodes (training needs them explicit, the tools
//! demonstrate folding/removal), every conv with an FP32 kernel, no carried
//! BatchNorm and no fused ReLU. Everything that reads the
//! graph reads [`Graph::module`]; inference lowers [`Graph::to_ir`] through
//! `seneca-ir`'s pass pipeline and planned executor.

use crate::unet::UNet;
use seneca_ir::{ConvAttrs, ConvKernel, DType, IrOp, Module};
use seneca_tensor::{Shape4, Tensor};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::Arc;

/// The trained graph: an FP32 [`Module`] holding only export nodes (see the
/// module docs). Serialises as the module itself.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) module: Module,
}

/// The FP32 weights and bias of an export conv / tconv. Panics on what the
/// exporter never emits: an INT8 kernel, a carried BatchNorm or a fused
/// ReLU.
pub(crate) fn export_kernel(a: &ConvAttrs) -> (&Arc<Tensor>, &Vec<f32>) {
    match a {
        ConvAttrs { kernel: ConvKernel::F32 { w, b, bn: None }, relu: false } => (w, b),
        _ => panic!("not an export conv: {a:?}"),
    }
}

/// [`export_kernel`], mutably.
pub(crate) fn export_kernel_mut(a: &mut ConvAttrs) -> (&mut Arc<Tensor>, &mut Vec<f32>) {
    match a {
        ConvAttrs { kernel: ConvKernel::F32 { w, b, bn: None }, relu: false } => (w, b),
        _ => panic!("not an export conv: {a:?}"),
    }
}

/// Whether `op` may be a node of the export graph.
fn is_export_op(op: &IrOp) -> bool {
    match op {
        IrOp::Conv(a) | IrOp::TConv(a) => {
            matches!(a, ConvAttrs { kernel: ConvKernel::F32 { bn: None, .. }, relu: false })
        }
        _ => true,
    }
}

impl TryFrom<Module> for Graph {
    type Error = String;

    /// Takes over a module that is an export graph: well-formed, FP32, and
    /// holding only export nodes.
    fn try_from(module: Module) -> Result<Self, String> {
        module.check_structure()?;
        if module.dtype != DType::F32 {
            return Err("the trained graph is an FP32 module".into());
        }
        if let Some(n) = module.nodes.iter().position(|n| !is_export_op(&n.op)) {
            return Err(format!("node {n} is not an export node: {:?}", module.nodes[n].op));
        }
        Ok(Self { module })
    }
}

impl Serialize for Graph {
    fn to_value(&self) -> Value {
        self.module.to_value()
    }
}

impl Deserialize for Graph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Graph::try_from(Module::from_value(v)?).map_err(DeError::new)
    }
}

impl Graph {
    /// Creates an empty graph containing only the input node.
    pub fn new(name: impl Into<String>) -> Self {
        Self { module: Module::new(name, DType::F32) }
    }

    /// Appends a node and returns its id. Rejects forward references and
    /// nodes the exporter never emits.
    pub fn push(&mut self, op: IrOp, inputs: Vec<usize>) -> usize {
        assert!(is_export_op(&op), "not an export node: {op:?}");
        self.module.push(op, inputs)
    }

    /// The graph a U-Net was built as, named `name`. The weights are shared
    /// with `net` (a trainer's first write copies them).
    pub fn from_unet(net: &UNet, name: impl Into<String>) -> Self {
        let mut g = net.graph.clone();
        g.module.name = name.into();
        g
    }

    /// The held module: what every reader of the graph walks.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// A copy of the held module for the pass pipeline and the lowering. The
    /// copy shares this graph's weight tensors (no weight copy).
    pub fn to_ir(&self) -> Module {
        self.module.clone()
    }

    /// The trainable tensors of node `id`: `[W, b]` of a conv or tconv,
    /// `[γ, β]` of a BatchNorm, `None` for every other op. A weight still
    /// shared with a lowered module or a graph clone is copied first.
    pub fn params_mut(&mut self, id: usize) -> Option<[&mut [f32]; 2]> {
        match &mut self.module.nodes[id].op {
            IrOp::Conv(a) | IrOp::TConv(a) => {
                let (w, b) = export_kernel_mut(a);
                Some([Arc::make_mut(w).data_mut(), b])
            }
            IrOp::BatchNorm { bn } => Some([&mut bn.gamma, &mut bn.beta]),
            _ => None,
        }
    }

    /// Every conv / tconv weight tensor in node order, each copied first if
    /// still shared (the quantization-aware training hook projects them).
    pub fn weights_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        self.module.nodes.iter_mut().filter_map(|n| match &mut n.op {
            IrOp::Conv(a) | IrOp::TConv(a) => Some(Arc::make_mut(export_kernel_mut(a).0)),
            _ => None,
        })
    }

    /// Total parameter count, TF-style: every conv / tconv weight and bias,
    /// and 4 per BatchNorm channel (γ, β and the two running statistics).
    pub fn param_count(&self) -> usize {
        let count = |op: &IrOp| match op {
            IrOp::Conv(a) | IrOp::TConv(a) => {
                let (w, b) = export_kernel(a);
                w.shape().len() + b.len()
            }
            IrOp::BatchNorm { bn } => 4 * bn.channels(),
            _ => 0,
        };
        self.module.nodes.iter().map(|n| count(&n.op)).sum()
    }

    /// Multiply-accumulate count per node for a given input shape (conv,
    /// tconv only; other ops are counted as zero-MAC).
    pub fn macs(&self, input: Shape4) -> Vec<u64> {
        let shapes = self.module.shapes(input);
        self.module
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| match &node.op {
                IrOp::Conv(a) => shapes[i].hw() as u64 * export_kernel(a).0.shape().len() as u64,
                IrOp::TConv(a) => {
                    shapes[node.inputs[0]].hw() as u64 * export_kernel(a).0.shape().len() as u64
                }
                _ => 0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unet::{UNet, UNetConfig};
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> UNet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 6, dropout: 0.1 };
        UNet::new(cfg, &mut rng)
    }

    #[test]
    fn graph_structure_counts() {
        let net = tiny_net(6);
        let g = Graph::from_unet(&net, "tiny");
        let h = g.module().op_histogram();
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
        let m = Graph::from_unet(&net, "tiny").to_ir();
        let shapes = m.shapes(Shape4::new(1, 1, 32, 32));
        assert_eq!(shapes[0], Shape4::new(1, 1, 32, 32));
        assert_eq!(shapes[m.output], Shape4::new(1, 6, 32, 32));
    }

    #[test]
    fn macs_concentrate_in_convs() {
        let net = tiny_net(8);
        let g = Graph::from_unet(&net, "tiny");
        let macs = g.macs(Shape4::new(1, 1, 32, 32));
        let total: u64 = macs.iter().sum();
        assert!(total > 0);
        for (i, node) in g.module().nodes.iter().enumerate() {
            match node.op {
                IrOp::Conv(_) | IrOp::TConv(_) => assert!(macs[i] > 0),
                _ => assert_eq!(macs[i], 0),
            }
        }
    }

    #[test]
    #[should_panic(expected = "forward reference")]
    fn push_rejects_forward_references() {
        let mut g = Graph::new("bad");
        g.push(IrOp::Relu, vec![7]);
    }

    /// An INT8 kernel, a carried BatchNorm or a fused ReLU is no export
    /// node: `push` panics, and a module holding one
    /// — a fused one, say, or a file edited to hold one — is refused.
    #[test]
    fn rejects_what_the_exporter_never_emits() {
        let g = Graph::from_unet(&tiny_net(9), "tiny");
        let mut fused = g.to_ir();
        seneca_ir::fold_batchnorm(&mut fused);
        seneca_ir::fuse_relu(&mut fused);
        let err = Graph::try_from(fused).unwrap_err();
        assert!(err.contains("not an export node"), "{err}");
        let mut i8 = g.to_ir();
        i8.dtype = DType::I8;
        assert!(Graph::try_from(i8).is_err());
        let json =
            serde_json::to_string(&g).unwrap().replacen("\"relu\":false", "\"relu\":true", 1);
        assert!(serde_json::from_str::<Graph>(&json).is_err());
        let relu_conv = std::panic::catch_unwind(|| {
            let w = Tensor::zeros(Shape4::new(1, 1, 3, 3));
            let kernel = ConvKernel::F32 { w: w.into(), b: vec![0.0], bn: None };
            Graph::new("bad")
                .push(IrOp::Conv(ConvAttrs { relu: true, ..ConvAttrs::new(kernel) }), vec![0])
        });
        assert!(relu_conv.is_err());
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

    /// Whether two values of `plan` share arena elements.
    fn overlap(plan: &seneca_ir::ExecPlan, i: usize, j: usize) -> bool {
        let (a, b) = (plan.range_of(i), plan.range_of(j));
        a.start < b.end && b.start < a.end
    }

    #[test]
    fn plan_reuses_bytes_below_total_activations() {
        // Depth-4 / 8-filter is the paper's 1M configuration: skip-aware
        // liveness must cut the arena well below the per-node sum.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let cfg = UNetConfig { depth: 4, base_filters: 8, num_classes: 6, dropout: 0.1 };
        let g = Graph::from_unet(&UNet::new(cfg, &mut rng), "m1");
        let plan = g.module().plan(Shape4::new(1, 1, 64, 64));
        let n = plan.n_nodes();
        assert!((1..n).any(|j| (0..j).any(|i| overlap(&plan, i, j))), "no value reuses bytes");
        assert!(
            2 * plan.peak_arena_elems() < plan.total_activation_elems(),
            "peak {} vs total {}",
            plan.peak_arena_elems(),
            plan.total_activation_elems()
        );
    }

    #[test]
    fn byte_reuse_never_aliases_live_skip_connection() {
        let net = tiny_net(15);
        let g = Graph::from_unet(&net, "tiny");
        // `Module::plan` runs no rewrite passes, so ids map 1:1 onto `g`.
        let m = g.module();
        let plan = m.plan(Shape4::new(1, 1, 32, 32));
        for (i, node) in m.nodes.iter().enumerate() {
            if !matches!(node.op, IrOp::Concat { .. }) {
                continue;
            }
            // Every decoder concat is an address: the skip and the upsample
            // are placed side by side as its value, and it writes nothing.
            let (skip, up, cat) = (node.inputs[0], node.inputs[1], plan.range_of(i));
            let half = plan.elems_of(skip);
            assert_eq!(plan.range_of(skip), cat.start..cat.start + half, "skip {skip} not placed");
            assert_eq!(plan.range_of(up), cat.start + half..cat.end, "upsample {up} not placed");
            assert!(plan.writes(i).is_empty(), "concat {i} copies");
            let conv = i + 1;
            assert!(matches!(m.nodes[conv].op, IrOp::Conv(_)) && m.nodes[conv].inputs == [i]);
            // The skip was produced long before the concat; every node
            // defined up to the conv that reads it must avoid its bytes.
            assert_eq!(plan.last_use_of(skip), conv, "skip {skip} live exactly until conv {conv}");
            let skip_bytes = plan.range_of(skip);
            for j in (skip + 1)..=conv {
                let w = plan.writes(j);
                assert!(
                    w.is_empty() || w.end <= skip_bytes.start || skip_bytes.end <= w.start,
                    "node {j} clobbers skip {skip} before conv {conv}"
                );
            }
        }
    }

    /// A graph file written while a concat still carried an optional
    /// requantisation (`"Concat":{"requant":null}`) reads as the same graph.
    #[test]
    fn a_graph_written_with_concat_requant_fields_still_reads() {
        let g = Graph::from_unet(&tiny_net(17), "tiny");
        let json = serde_json::to_string(&g).unwrap();
        assert!(json.contains("\"Concat\":{}"), "concat serialises with no field");
        let old = json.replace("\"Concat\":{}", "\"Concat\":{\"requant\":null}");
        let read: Graph = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string(&read).unwrap(), json);
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
        assert!(lowered.module().nodes.len() < g.module().nodes.len());
    }

    #[test]
    fn serde_roundtrip() {
        let net = tiny_net(10);
        let g = Graph::from_unet(&net, "tiny");
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(json, serde_json::to_string(g.module()).unwrap(), "a graph is its module");
        let g2: Graph = serde_json::from_str(&json).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let x = Tensor::he_normal(Shape4::new(1, 1, 8, 8), &mut rng);
        assert_eq!(seneca_ir::execute_f32(&g.to_ir(), &x), seneca_ir::execute_f32(&g2.to_ir(), &x));
    }
}
