//! Rewrite passes over the typed IR.
//!
//! Each pass is a whole-module rebuild with an id remap — nodes that fold
//! into their producer simply alias the producer's new id, so downstream
//! edges rewire for free and the node vocabulary never grows transient
//! "fused" variants. Nodes *move* into the rebuilt module (a pass never
//! copies a weight tensor; a folded conv's old weights are freed as soon as
//! the new ones replace them). The canonical frontend pipeline is
//! BN fold → ReLU fusion → identity strip → pack-slot assignment, with
//! liveness planning ([`crate::plan::ExecPlan`]) as the final pass at
//! lowering time.

use crate::module::{ConvKernel, IrOp, Module, PackFormat, PackSlot};
use seneca_tensor::norm::fold_bn_into_conv;
use seneca_tensor::quantized::Bitwidth;
use serde::{Deserialize, Serialize};

/// What the pass pipeline did to a module, for listings and smoke gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassStats {
    /// BatchNorm nodes folded into their producing conv.
    pub bn_folded: usize,
    /// Standalone ReLU nodes fused into a conv/tconv epilogue.
    pub relu_fused: usize,
    /// Inference-identity nodes (dropout, optionally softmax) removed.
    pub identities_removed: usize,
    /// Weight tensors given a pack slot (packed once at model load).
    pub pack_slots: usize,
    /// Of those, slots materialized as nibble-packed INT4 panels.
    pub pack_slots_i4: usize,
}

/// Consumers per node id; the module output counts as one extra consumer so
/// a value feeding the output is never treated as exclusively owned.
fn consumer_counts(m: &Module) -> Vec<usize> {
    let mut counts = vec![0usize; m.nodes.len()];
    for node in &m.nodes {
        for &i in &node.inputs {
            counts[i] += 1;
        }
    }
    counts[m.output] += 1;
    counts
}

/// Shell of a rebuilt module: same name/dtype/fix positions, input node only.
fn rebuilt_shell(m: &Module) -> Module {
    let mut new = Module::new(m.name.clone(), m.dtype);
    new.input_fp = m.input_fp;
    new.output_fp = m.output_fp;
    new
}

/// Folds inference BatchNorm into the preceding convolution's weights and
/// bias (`bn(conv(x, w) + b) == conv(x, w') + b'`), exactly as the Vitis AI
/// quantizer does before calibration. Returns the number of BN nodes folded.
///
/// A BN whose producing conv feeds other consumers too is left standalone
/// (folding would change the value those consumers see); a BN after
/// anything that is not a convolution panics.
pub fn fold_batchnorm(m: &mut Module) -> usize {
    let consumers = consumer_counts(m);
    let mut new = rebuilt_shell(m);
    let mut remap = vec![0usize; m.nodes.len()];
    let mut folded = 0;
    for (i, node) in std::mem::take(&mut m.nodes).into_iter().enumerate().skip(1) {
        if let IrOp::BatchNorm { bn } = &node.op {
            let j = node.inputs[0];
            match &mut new.nodes[remap[j]].op {
                IrOp::Conv(a) if consumers[j] == 1 => {
                    let ConvKernel::F32 { w, b } = &a.kernel else {
                        panic!("BatchNorm after a quantized conv unsupported")
                    };
                    let (w2, b2) = fold_bn_into_conv(w, b, bn);
                    a.kernel = ConvKernel::F32 { w: w2.into(), b: b2 };
                    remap[i] = remap[j];
                    folded += 1;
                    continue;
                }
                IrOp::Conv(_) => {} // shared conv output: keep BN standalone
                other => panic!(
                    "BatchNorm after {:?} unsupported (expected conv)",
                    other.mnemonic(m.dtype)
                ),
            }
        }
        let ins: Vec<usize> = node.inputs.iter().map(|&j| remap[j]).collect();
        remap[i] = new.push(node.op, ins);
    }
    new.output = remap[m.output];
    *m = new;
    folded
}

/// Fuses standalone ReLU nodes into the conv/tconv GEMM epilogue. A ReLU is
/// fused only when its producer edge is *exclusive* — the conv's sole
/// consumer is this ReLU — because other consumers need the pre-activation
/// value. Returns the number of ReLUs fused.
pub fn fuse_relu(m: &mut Module) -> usize {
    let consumers = consumer_counts(m);
    let mut new = rebuilt_shell(m);
    let mut remap = vec![0usize; m.nodes.len()];
    let mut fused = 0;
    for (i, node) in std::mem::take(&mut m.nodes).into_iter().enumerate().skip(1) {
        if matches!(node.op, IrOp::Relu) {
            let j = node.inputs[0];
            if consumers[j] == 1 {
                if let IrOp::Conv(a) | IrOp::TConv(a) = &mut new.nodes[remap[j]].op {
                    if !a.relu {
                        a.relu = true;
                        remap[i] = remap[j];
                        fused += 1;
                        continue;
                    }
                }
            }
        }
        let ins: Vec<usize> = node.inputs.iter().map(|&j| remap[j]).collect();
        remap[i] = new.push(node.op, ins);
    }
    new.output = remap[m.output];
    *m = new;
    fused
}

/// Removes nodes that are identities at inference time: dropout always,
/// softmax when `strip_softmax` (DPU-bound lowerings run argmax on logits).
/// Returns the number of nodes removed.
pub fn strip_identities(m: &mut Module, strip_softmax: bool) -> usize {
    let mut new = rebuilt_shell(m);
    let mut remap = vec![0usize; m.nodes.len()];
    let mut removed = 0;
    for (i, node) in std::mem::take(&mut m.nodes).into_iter().enumerate().skip(1) {
        let identity = matches!(node.op, IrOp::Dropout { .. })
            || (strip_softmax && matches!(node.op, IrOp::Softmax));
        if identity {
            remap[i] = remap[node.inputs[0]];
            removed += 1;
            continue;
        }
        let ins: Vec<usize> = node.inputs.iter().map(|&j| remap[j]).collect();
        remap[i] = new.push(node.op, ins);
    }
    new.output = remap[m.output];
    *m = new;
    removed
}

/// Assigns every conv/tconv weight tensor a pack slot: the index of its
/// pre-packed GEMM panels in the lowered program, plus the panel *format*
/// (f32 / i8 / nibble-packed int4) derived from the kernel dtype and weight
/// bitwidth. Weights are immutable at inference, so packing happens exactly
/// once at model load instead of once per frame. Panics if any node already
/// holds a slot — the pass must run exactly once per module. Returns the
/// number of slots assigned.
pub fn assign_pack_slots(m: &mut Module) -> usize {
    let mut next = 0;
    for node in &mut m.nodes {
        if let IrOp::Conv(a) | IrOp::TConv(a) = &mut node.op {
            assert!(a.pack.is_none(), "pack slot already assigned");
            let format = match &a.kernel {
                ConvKernel::F32 { .. } => PackFormat::F32,
                ConvKernel::I8 { wbits: Bitwidth::W8, .. } => PackFormat::I8,
                ConvKernel::I8 { wbits: Bitwidth::W4, .. } => PackFormat::I4,
            };
            a.pack = Some(PackSlot { slot: next, format });
            next += 1;
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_f32;
    use crate::module::{ConvAttrs, DType};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seneca_tensor::norm::BnState;
    use seneca_tensor::{Shape4, Tensor};

    fn conv_attrs(c_in: usize, c_out: usize, rng: &mut StdRng) -> ConvAttrs {
        let ws = Shape4::new(c_out, c_in, 3, 3);
        let w = Tensor::from_vec(ws, (0..ws.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        let b: Vec<f32> = (0..c_out).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        ConvAttrs { kernel: ConvKernel::F32 { w: w.into(), b }, relu: false, pack: None }
    }

    fn random_bn(c: usize, rng: &mut StdRng) -> BnState {
        let mut bn = BnState::new(c);
        for i in 0..c {
            bn.gamma[i] = rng.gen_range(0.5f32..1.5);
            bn.beta[i] = rng.gen_range(-0.5f32..0.5);
            bn.running_mean[i] = rng.gen_range(-0.5f32..0.5);
            bn.running_var[i] = rng.gen_range(0.2f32..2.0);
        }
        bn
    }

    /// BN folding preserves the network function within f32 tolerance.
    #[test]
    fn bn_fold_preserves_outputs_within_f32_tolerance() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = Module::new("bn-fold", DType::F32);
        let c = m.push(IrOp::Conv(conv_attrs(2, 3, &mut rng)), vec![0]);
        let bn = m.push(IrOp::BatchNorm { bn: random_bn(3, &mut rng) }, vec![c]);
        m.output = bn;

        let mut folded = m.clone();
        assert_eq!(fold_batchnorm(&mut folded), 1);
        assert_eq!(folded.nodes.len(), 2, "BN node must be gone");

        let s = Shape4::new(1, 2, 6, 6);
        let x = Tensor::from_vec(s, (0..s.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        let y_ref = execute_f32(&m, &x);
        let y_fold = execute_f32(&folded, &x);
        let worst = y_ref
            .data()
            .iter()
            .zip(y_fold.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst < 1e-4, "BN fold drifted by {worst}");
    }

    #[test]
    #[should_panic(expected = "unsupported (expected conv)")]
    fn bn_after_non_conv_panics() {
        let mut m = Module::new("bad-bn", DType::F32);
        let p = m.push(IrOp::MaxPool2x2, vec![0]);
        m.push(IrOp::BatchNorm { bn: BnState::new(2) }, vec![p]);
        fold_batchnorm(&mut m);
    }

    /// A BN on a conv that also feeds another consumer stays standalone.
    #[test]
    fn bn_on_shared_conv_stays_standalone() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut m = Module::new("shared-bn", DType::F32);
        let c = m.push(IrOp::Conv(conv_attrs(2, 2, &mut rng)), vec![0]);
        let bn = m.push(IrOp::BatchNorm { bn: random_bn(2, &mut rng) }, vec![c]);
        let cat = m.push(IrOp::Concat { requant: None }, vec![c, bn]);
        m.output = cat;
        assert_eq!(fold_batchnorm(&mut m), 0);
        assert!(m.nodes.iter().any(|n| matches!(n.op, IrOp::BatchNorm { .. })));
    }

    /// An exclusive conv → relu edge fuses into the epilogue.
    #[test]
    fn relu_fuses_on_exclusive_edge() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut m = Module::new("relu-fuse", DType::F32);
        let c = m.push(IrOp::Conv(conv_attrs(2, 3, &mut rng)), vec![0]);
        let r = m.push(IrOp::Relu, vec![c]);
        m.output = r;
        assert_eq!(fuse_relu(&mut m), 1);
        assert_eq!(m.nodes.len(), 2);
        let IrOp::Conv(a) = &m.nodes[m.output].op else { panic!("conv expected") };
        assert!(a.relu, "relu flag must be set on the conv");
    }

    /// Fusion never crosses a consumed-by-two edge: a skip connection that
    /// reads the pre-activation value keeps the ReLU standalone.
    #[test]
    fn relu_never_fuses_across_consumed_by_two_edge() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut m = Module::new("relu-shared", DType::F32);
        let c = m.push(IrOp::Conv(conv_attrs(2, 2, &mut rng)), vec![0]);
        let r = m.push(IrOp::Relu, vec![c]);
        let cat = m.push(IrOp::Concat { requant: None }, vec![c, r]);
        m.output = cat;
        assert_eq!(fuse_relu(&mut m), 0);
        assert!(m.nodes.iter().any(|n| matches!(n.op, IrOp::Relu)));
        let IrOp::Conv(a) = &m.nodes[1].op else { panic!("conv expected") };
        assert!(!a.relu, "pre-activation consumer forbids fusion");
    }

    /// Dropout always strips; softmax only for DPU-bound lowerings.
    #[test]
    fn strip_removes_dropout_and_optionally_softmax() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut m = Module::new("strip", DType::F32);
        let c = m.push(IrOp::Conv(conv_attrs(2, 3, &mut rng)), vec![0]);
        let d = m.push(IrOp::Dropout { rate: 0.25 }, vec![c]);
        let sm = m.push(IrOp::Softmax, vec![d]);
        m.output = sm;

        let mut host = m.clone();
        assert_eq!(strip_identities(&mut host, false), 1);
        assert!(host.nodes.iter().any(|n| matches!(n.op, IrOp::Softmax)));

        assert_eq!(strip_identities(&mut m, true), 2);
        assert_eq!(m.nodes.len(), 2);
        assert!(matches!(m.nodes[m.output].op, IrOp::Conv(_)));
    }

    /// Every weight tensor gets exactly one pack slot, in node order.
    #[test]
    fn pack_slots_assigned_exactly_once_per_weight() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut m = Module::new("pack", DType::F32);
        let c1 = m.push(IrOp::Conv(conv_attrs(2, 3, &mut rng)), vec![0]);
        let p = m.push(IrOp::MaxPool2x2, vec![c1]);
        let c2 = m.push(IrOp::Conv(conv_attrs(3, 4, &mut rng)), vec![p]);
        m.output = c2;
        assert_eq!(assign_pack_slots(&mut m), 2);
        let slots: Vec<Option<PackSlot>> = m
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                IrOp::Conv(a) | IrOp::TConv(a) => Some(a.pack),
                _ => None,
            })
            .collect();
        assert_eq!(
            slots,
            vec![
                Some(PackSlot { slot: 0, format: PackFormat::F32 }),
                Some(PackSlot { slot: 1, format: PackFormat::F32 })
            ]
        );
    }

    #[test]
    #[should_panic(expected = "pack slot already assigned")]
    fn double_pack_assignment_panics() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut m = Module::new("pack-twice", DType::F32);
        let c = m.push(IrOp::Conv(conv_attrs(2, 2, &mut rng)), vec![0]);
        m.output = c;
        assign_pack_slots(&mut m);
        assign_pack_slots(&mut m);
    }
}
