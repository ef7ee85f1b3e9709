//! Structured channel pruning: a graph rewrite that leaves a narrower model.
//!
//! The paper lists pruning as future work ("we will evaluate some pruning
//! techniques to additionally improve throughput and energy efficiency").
//! [`shrink`] is the standard L1-magnitude structured-pruning baseline on the
//! exported [`Graph`]: in every conv but the head, the output channels whose
//! filters have the smallest L1 norms are removed — from the conv's weights
//! and bias, from the BatchNorm after it, and from the input channels of every
//! conv / tconv that reads them through ReLU, Dropout, MaxPool and Concat.
//! What is left is an ordinary graph with fewer channels, so training,
//! fusion, PTQ, every executor and the DPU compiler take it like any other,
//! and its DPU time is `frame_cost`'s, lane quantisation and channel
//! misalignment included.

use crate::graph::{export_kernel_mut, Graph};
use crate::unet::UNetConfig;
use seneca_ir::IrOp;
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;

/// What [`shrink`] removed.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneReport {
    /// Conv output channels removed.
    pub channels_removed: usize,
    /// MACs of one 256×256 slice ([`Graph::macs`]), before and after.
    pub macs: [u64; 2],
    /// Parameters ([`Graph::param_count`]), before and after.
    pub params: [usize; 2],
}

/// Removes `floor(C_out · ratio)` lowest-L1 output channels of every conv but
/// the head (the last conv: its maps are the classes), with every bias,
/// BatchNorm entry and consumer weight that belongs to them.
pub fn shrink(graph: &mut Graph, ratio: f64) -> PruneReport {
    assert!((0.0..1.0).contains(&ratio), "ratio must be in [0,1)");
    let frame = Shape4::new(1, UNetConfig::IN_CHANNELS, 256, 256);
    let cost = |g: &Graph| (g.macs(frame).iter().sum::<u64>(), g.param_count());
    let (macs, params) = cost(graph);
    let shapes = graph.module.shapes(frame);
    let nodes = &mut graph.module.nodes;
    let head = nodes.iter().rposition(|n| matches!(n.op, IrOp::Conv(_)));
    let all = |c: usize| (0..c).collect::<Vec<_>>();
    let mut removed = 0;
    // kept[i]: the channels of node i's original output that survive, in order.
    let mut kept: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
    for (i, node) in nodes.iter_mut().enumerate() {
        let x = node.inputs.first().map_or_else(Vec::new, |&j| kept[j].clone());
        let out = match &mut node.op {
            IrOp::Input => all(shapes[0].c),
            IrOp::Conv(a) => {
                let (w, b) = export_kernel_mut(a);
                let s = w.shape();
                let mut keep = all(s.n);
                if Some(i) != head {
                    let l1: Vec<f32> =
                        w.data().chunks(s.chw()).map(|f| f.iter().map(|v| v.abs()).sum()).collect();
                    let k = (s.n as f64 * ratio).floor() as usize;
                    keep.sort_by(|&p, &q| l1[p].total_cmp(&l1[q]));
                    keep.drain(..k);
                    keep.sort_unstable();
                    removed += k;
                }
                *w = Arc::new(select(w, &keep, &x));
                *b = keep.iter().filter_map(|&c| b.get(c).copied()).collect();
                keep
            }
            IrOp::TConv(a) => {
                let (w, _) = export_kernel_mut(a);
                let c_out = all(w.shape().c);
                *w = Arc::new(select(w, &x, &c_out));
                c_out
            }
            IrOp::BatchNorm { bn } => {
                for v in [&mut bn.gamma, &mut bn.beta, &mut bn.running_mean, &mut bn.running_var] {
                    *v = x.iter().map(|&c| v[c]).collect();
                }
                x
            }
            IrOp::Concat {} => {
                let offset = shapes[node.inputs[0]].c;
                x.into_iter().chain(kept[node.inputs[1]].iter().map(|&c| offset + c)).collect()
            }
            IrOp::Relu | IrOp::MaxPool2x2 | IrOp::Dropout { .. } | IrOp::Softmax => x,
        };
        kept.push(out);
    }
    let (macs_after, params_after) = cost(graph);
    PruneReport {
        channels_removed: removed,
        macs: [macs, macs_after],
        params: [params, params_after],
    }
}

/// The `[rows, cols, kh, kw]` part of `w` at the given rows and columns.
fn select(w: &Tensor, rows: &[usize], cols: &[usize]) -> Tensor {
    let s = w.shape();
    let kk = s.h * s.w;
    let data = rows
        .iter()
        .flat_map(|&r| cols.iter().flat_map(move |&c| &w.data()[(r * s.c + c) * kk..][..kk]))
        .copied()
        .collect();
    Tensor::from_vec(Shape4::new(rows.len(), cols.len(), s.h, s.w), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unet::UNet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seneca_ir::oracle::assert_close_f32;
    use seneca_ir::{execute_f32, ConvAttrs, ConvKernel};
    use seneca_tensor::norm::BnState;

    /// A depth-2 U-Net whose BatchNorms have random statistics and affine
    /// parameters (a fresh net's are the identity).
    fn unet(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 6, dropout: 0.0 };
        let mut g = Graph::from_unet(&UNet::new(cfg, &mut rng), "unet");
        for node in &mut g.module.nodes {
            if let IrOp::BatchNorm { bn } = &mut node.op {
                for v in [&mut bn.gamma, &mut bn.running_var] {
                    v.iter_mut().for_each(|x| *x = rng.gen_range(0.5f32..1.5));
                }
                for v in [&mut bn.beta, &mut bn.running_mean] {
                    v.iter_mut().for_each(|x| *x = rng.gen_range(-0.3f32..0.3));
                }
            }
        }
        g
    }

    /// No U-Net (gradcheck's hand-built graph): one ReLU feeds both halves of
    /// a concat and, later, a second concat with an up-sampled branch.
    fn hand_built(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kernel = |s: Shape4, b: Vec<f32>| {
            let w = Arc::new(Tensor::he_normal(s, &mut rng));
            ConvAttrs::new(ConvKernel::F32 { w, b, bn: None })
        };
        let mut g = Graph::new("hand-built");
        let c = g.push(IrOp::Conv(kernel(Shape4::new(3, 1, 3, 3), vec![0.1; 3])), vec![0]);
        let bn = g.push(IrOp::BatchNorm { bn: BnState::new(3) }, vec![c]);
        let r = g.push(IrOp::Relu, vec![bn]);
        let twice = g.push(IrOp::Concat {}, vec![r, r]);
        let pool = g.push(IrOp::MaxPool2x2, vec![twice]);
        let drop = g.push(IrOp::Dropout { rate: 0.25 }, vec![pool]);
        let up = g.push(IrOp::TConv(kernel(Shape4::new(6, 2, 2, 2), vec![-0.1; 2])), vec![drop]);
        let cat = g.push(IrOp::Concat {}, vec![up, r]);
        let head = g.push(IrOp::Conv(kernel(Shape4::new(4, 5, 3, 3), vec![0.0; 4])), vec![cat]);
        let bn = g.push(IrOp::BatchNorm { bn: BnState::new(4) }, vec![head]);
        g.push(IrOp::Softmax, vec![bn]);
        g
    }

    fn frame(side: usize, seed: u64) -> Tensor {
        Tensor::he_normal(Shape4::new(1, 1, side, side), &mut StdRng::seed_from_u64(seed))
    }

    /// Scales `floor(C_out · ratio)` filters of every conv but the head by
    /// 1e-3, so that they rank lowest, and returns them per node.
    fn mark(g: &mut Graph, ratio: f64) -> Vec<Vec<usize>> {
        let nodes = &mut g.module.nodes;
        let head = nodes.iter().rposition(|n| matches!(n.op, IrOp::Conv(_)));
        let mut dead = vec![Vec::new(); nodes.len()];
        for (i, node) in nodes.iter_mut().enumerate() {
            let IrOp::Conv(a) = &mut node.op else { continue };
            if Some(i) == head {
                continue;
            }
            let w = Arc::make_mut(export_kernel_mut(a).0);
            let (n, per_out) = (w.shape().n, w.shape().chw());
            dead[i] = (0..(n as f64 * ratio) as usize).map(|j| (i + 3 * j) % n).collect();
            for &co in &dead[i] {
                w.data_mut()[co * per_out..][..per_out].iter_mut().for_each(|v| *v *= 1e-3);
            }
        }
        dead
    }

    /// `g` with every conv / tconv weight that reads a channel in `dead`
    /// zeroed: the removed channels are still computed, and nothing reads them.
    fn zero_readers(g: &Graph, dead: &[Vec<usize>]) -> Graph {
        let mut g = g.clone();
        let shapes = g.module.shapes(Shape4::new(1, 1, 8, 8));
        // gone[i][c]: channel c of node i's output is a removed one.
        let mut gone: Vec<Vec<bool>> = Vec::new();
        for (i, node) in g.module.nodes.iter_mut().enumerate() {
            let x = node.inputs.first().map_or_else(Vec::new, |&j| gone[j].clone());
            let mut mask = vec![false; shapes[i].c];
            match &mut node.op {
                IrOp::Conv(a) => {
                    let w = Arc::make_mut(export_kernel_mut(a).0);
                    let s = w.shape();
                    for (k, v) in w.data_mut().iter_mut().enumerate() {
                        *v = if x[k / (s.h * s.w) % s.c] { 0.0 } else { *v };
                    }
                    dead[i].iter().for_each(|&c| mask[c] = true);
                }
                IrOp::TConv(a) => {
                    let w = Arc::make_mut(export_kernel_mut(a).0);
                    let per_in = w.shape().chw();
                    for (k, v) in w.data_mut().iter_mut().enumerate() {
                        *v = if x[k / per_in] { 0.0 } else { *v };
                    }
                }
                IrOp::Concat {} => mask = [x, gone[node.inputs[1]].clone()].concat(),
                IrOp::Input => {}
                _ => mask = x,
            }
            gone.push(mask);
        }
        g
    }

    /// The shrunk graph computes what the original computes once every
    /// weight reading a removed channel is zero — on a U-Net, and on a graph
    /// where one node feeds both slots of a concat.
    #[test]
    fn shrinking_equals_zeroing_every_reader_of_the_removed_channels() {
        for (mut g, side) in [(unet(1), 16), (hand_built(2), 8)] {
            let x = frame(side, 3);
            let dead = mark(&mut g, 0.5);
            let want = execute_f32(&zero_readers(&g, &dead).to_ir(), &x);
            let report = shrink(&mut g, 0.5);
            assert_eq!(report.channels_removed, dead.iter().map(Vec::len).sum::<usize>());
            let got = execute_f32(&g.to_ir(), &x);
            assert_eq!(got.shape(), want.shape());
            assert_close_f32(got.data(), want.data(), &g.module().name);
        }
    }

    /// The head keeps all 6 classes, and ratio 0 removes nothing and changes
    /// no output bit.
    #[test]
    fn the_head_keeps_its_classes_and_ratio_zero_changes_nothing() {
        let (mut g, x) = (unet(4), frame(16, 5));
        let before = execute_f32(&g.to_ir(), &x);
        let report = shrink(&mut g, 0.0);
        assert_eq!(report.channels_removed, 0);
        assert_eq!((report.macs[0], report.params[0]), (report.macs[1], report.params[1]));
        assert_eq!(execute_f32(&g.to_ir(), &x), before);
        shrink(&mut g, 0.9);
        assert_eq!(execute_f32(&g.to_ir(), &x).shape(), before.shape());
    }

    #[test]
    fn macs_and_parameters_fall_at_half() {
        let mut g = unet(6);
        let (macs, params) = (g.macs(Shape4::new(1, 1, 256, 256)), g.param_count());
        let report = shrink(&mut g, 0.5);
        assert_eq!(report.macs[0], macs.iter().sum::<u64>());
        assert_eq!(report.params, [params, g.param_count()]);
        assert!(report.macs[1] < report.macs[0] && report.params[1] < report.params[0]);
    }
}
