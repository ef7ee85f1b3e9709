//! Magnitude-based channel pruning.
//!
//! The paper lists pruning as future work ("we will evaluate some pruning
//! techniques to additionally improve throughput and energy efficiency").
//! This module implements the standard L1-magnitude structured-pruning
//! baseline on the exported [`Graph`]: channels whose filters have the
//! smallest L1 norms are zeroed. Zeroed channels keep the tensor shapes
//! (so the DPU compiler output stays valid) but the performance model can
//! skip the zero work, which is how sparsity translates into FPS on the DPU.

use crate::graph::{Graph, Op};

/// Per-graph pruning summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneReport {
    /// Number of conv output channels zeroed.
    pub channels_pruned: usize,
    /// Total conv output channels considered.
    pub channels_total: usize,
    /// Fraction of conv weights that are now exactly zero.
    pub weight_sparsity: f64,
}

/// Zeroes the `ratio` fraction of lowest-L1 output channels in every conv
/// node (head conv excluded — its 6 maps are the classes). Returns a report.
pub fn prune_channels(graph: &mut Graph, ratio: f64) -> PruneReport {
    assert!((0.0..1.0).contains(&ratio), "ratio must be in [0,1)");
    let mut pruned = 0usize;
    let mut total = 0usize;
    let mut zeros = 0usize;
    let mut weights = 0usize;

    // Identify the last conv before softmax (the head) to skip it.
    let head_conv = graph
        .nodes
        .iter()
        .enumerate()
        .rev()
        .find(|(_, n)| matches!(n.op, Op::Conv { .. }))
        .map(|(i, _)| i);

    for (i, node) in graph.nodes.iter_mut().enumerate() {
        if Some(i) == head_conv {
            continue;
        }
        if let Op::Conv { w, b, .. } = &mut node.op {
            let s = w.shape();
            let per_out = s.c * s.h * s.w;
            total += s.n;
            let mut norms: Vec<(usize, f32)> = (0..s.n)
                .map(|co| {
                    let l1: f32 =
                        w.data()[co * per_out..(co + 1) * per_out].iter().map(|v| v.abs()).sum();
                    (co, l1)
                })
                .collect();
            norms.sort_by(|a, b| a.1.total_cmp(&b.1));
            let k = (s.n as f64 * ratio).floor() as usize;
            for &(co, _) in norms.iter().take(k) {
                w.data_mut()[co * per_out..(co + 1) * per_out].fill(0.0);
                if !b.is_empty() {
                    b[co] = 0.0;
                }
                pruned += 1;
            }
        }
    }
    for node in &graph.nodes {
        if let Op::Conv { w, .. } = &node.op {
            weights += w.data().len();
            zeros += w.data().iter().filter(|v| **v == 0.0).count();
        }
    }
    PruneReport {
        channels_pruned: pruned,
        channels_total: total,
        weight_sparsity: zeros as f64 / weights.max(1) as f64,
    }
}

/// Effective (non-zero-channel) MAC count per node after pruning; the DPU
/// performance model uses this to credit pruning with cycle savings.
pub fn effective_macs(graph: &Graph, input: seneca_tensor::Shape4) -> Vec<u64> {
    let shapes = graph.shapes(input);
    graph
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| match &node.op {
            Op::Conv { w, .. } => {
                let s = w.shape();
                let per_out = s.c * s.h * s.w;
                let live = (0..s.n)
                    .filter(|&co| {
                        w.data()[co * per_out..(co + 1) * per_out].iter().any(|v| *v != 0.0)
                    })
                    .count() as u64;
                shapes[i].hw() as u64 * live * per_out as u64
            }
            Op::TConv { w, .. } => shapes[node.inputs[0]].hw() as u64 * w.shape().len() as u64,
            _ => 0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unet::{UNet, UNetConfig};
    use rand::SeedableRng;
    use seneca_tensor::{Shape4, Tensor};

    fn tiny_graph(seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg =
            UNetConfig { depth: 1, base_filters: 4, in_channels: 1, num_classes: 6, dropout: 0.0 };
        Graph::from_unet(&UNet::new(cfg, &mut rng), "tiny")
    }

    #[test]
    fn pruning_zeroes_expected_channel_count() {
        let mut g = tiny_graph(1);
        let report = prune_channels(&mut g, 0.5);
        assert!(report.channels_pruned > 0);
        assert!(report.channels_pruned <= report.channels_total / 2 + g.nodes.len());
        assert!(report.weight_sparsity > 0.2, "{report:?}");
    }

    #[test]
    fn zero_ratio_is_noop() {
        let mut g = tiny_graph(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Tensor::he_normal(Shape4::new(1, 1, 8, 8), &mut rng);
        let before = seneca_ir::execute_f32(&g.to_ir(), &x);
        let report = prune_channels(&mut g, 0.0);
        assert_eq!(report.channels_pruned, 0);
        assert_eq!(seneca_ir::execute_f32(&g.to_ir(), &x), before);
    }

    #[test]
    fn head_conv_is_never_pruned() {
        let mut g = tiny_graph(4);
        prune_channels(&mut g, 0.9);
        let head = g
            .nodes
            .iter()
            .rev()
            .find_map(|n| if let Op::Conv { w, .. } = &n.op { Some(w) } else { None })
            .unwrap();
        let s = head.shape();
        let per_out = s.c * s.h * s.w;
        for co in 0..s.n {
            assert!(
                head.data()[co * per_out..(co + 1) * per_out].iter().any(|v| *v != 0.0),
                "head channel {co} pruned"
            );
        }
    }

    #[test]
    fn effective_macs_drop_after_pruning() {
        let mut g = tiny_graph(5);
        let input = Shape4::new(1, 1, 16, 16);
        let before: u64 = effective_macs(&g, input).iter().sum();
        prune_channels(&mut g, 0.5);
        let after: u64 = effective_macs(&g, input).iter().sum();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn pruned_graph_still_executes() {
        let mut g = tiny_graph(6);
        prune_channels(&mut g, 0.25);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = Tensor::he_normal(Shape4::new(1, 1, 8, 8), &mut rng);
        let y = seneca_ir::execute_f32(&g.to_ir(), &x);
        assert_eq!(y.shape(), Shape4::new(1, 6, 8, 8));
        assert!(y.data().iter().all(|v| v.is_finite()));
    }
}
