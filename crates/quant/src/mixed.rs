//! Mixed-precision (W4A8 / W8A8) bitwidth assignment.
//!
//! The DPU's INT8 datapath leaves weight bandwidth on the table for layers
//! whose weight distribution survives a 4-bit grid: nibble-packed panels
//! halve the weight bytes a conv streams per frame, and a W4-aware
//! convolution engine doubles its output-channel parallelism. Not every
//! layer tolerates W4 — the per-layer damage is empirical. This module
//! provides the two tools the deployment flow needs:
//!
//! 1. [`sensitivity_sweep`] — quantize one conv/tconv at a time to W4 (all
//!    others stay W8) and measure the damage against the FP32 reference:
//!    argmax agreement plus per-class Dice against the FP32 argmax labels.
//! 2. [`search_mixed_plan`] — a greedy cost-aware search: candidates are
//!    ordered by modeled cost saving (the cost model is injected as a
//!    closure, typically DPU frame cycles from `seneca-dpu`), flipped to W4
//!    one at a time, and reverted whenever cumulative argmax agreement
//!    falls below the floor.
//!
//! Both work on a single calibration pass: activation fix positions do not
//! depend on the weight bitwidth, so [`crate::ptq::calibrate`] runs once
//! and each candidate plan only re-quantizes weights.

use crate::ptq::{
    agreement_vs, calibrate, label_agreement, quantize_from_calibration, PtqConfig, PtqReport,
};
use crate::qgraph::QuantizedGraph;
use crate::run::{FpRunner, QRunner};
use seneca_ir::{IrOp, Module};
use seneca_tensor::quantized::Bitwidth;
use seneca_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Per-node weight bitwidth assignment for a fused module.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitwidthPlan {
    /// One entry per fused node; entries on non-conv nodes are ignored.
    pub wbits: Vec<Bitwidth>,
}

impl BitwidthPlan {
    /// The uniform plan (every layer at `bits`).
    pub fn uniform(n_nodes: usize, bits: Bitwidth) -> Self {
        Self { wbits: vec![bits; n_nodes] }
    }

    /// Number of nodes assigned W4.
    pub fn n_w4(&self) -> usize {
        self.wbits.iter().filter(|b| **b == Bitwidth::W4).count()
    }
}

/// Node ids of the bitwidth-assignable layers (conv/tconv), in topological
/// order.
pub fn quantizable_nodes(fg: &Module) -> Vec<usize> {
    fg.nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.op, IrOp::Conv(_) | IrOp::TConv(_)))
        .map(|(i, _)| i)
        .collect()
}

/// Quantises a fused module with an explicit per-node bitwidth plan
/// (calibrate + build in one call; the mixed analogue of
/// [`crate::ptq::quantize_post_training`]).
pub fn quantize_post_training_mixed(
    fg: &Module,
    calib: &[Tensor],
    cfg: &PtqConfig,
    plan: &BitwidthPlan,
) -> (QuantizedGraph, PtqReport) {
    let report = calibrate(fg, calib, cfg);
    let qg = quantize_from_calibration(fg, &report, &plan.wbits);
    (qg, report)
}

/// Listing mnemonic of a fused conv/tconv node.
fn fused_mnemonic(op: &IrOp) -> &'static str {
    match op {
        IrOp::Conv(a) if a.relu => "conv+relu",
        IrOp::Conv(_) => "conv",
        _ => "tconv",
    }
}

/// Per-class Dice of the quantized predictions against the reference
/// labels. Classes absent from both prediction and reference score 1.0
/// (nothing to miss).
pub fn dice_per_class(pred: &[u8], reference: &[u8], num_classes: usize) -> Vec<f64> {
    let mut inter = vec![0u64; num_classes];
    let mut p_count = vec![0u64; num_classes];
    let mut r_count = vec![0u64; num_classes];
    for (&p, &r) in pred.iter().zip(reference) {
        p_count[p as usize] += 1;
        r_count[r as usize] += 1;
        if p == r {
            inter[p as usize] += 1;
        }
    }
    (0..num_classes)
        .map(|c| {
            let denom = p_count[c] + r_count[c];
            if denom == 0 {
                1.0
            } else {
                2.0 * inter[c] as f64 / denom as f64
            }
        })
        .collect()
}

/// Sensitivity of one layer: what quantizing it (alone) to W4 does to the
/// model's fidelity against the FP32 reference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityEntry {
    /// Fused-graph node id.
    pub node: usize,
    /// Op mnemonic (listing convenience).
    pub mnemonic: String,
    /// Argmax agreement with the FP32 reference when only this layer is W4.
    pub agreement: f64,
    /// Mean per-class Dice against the FP32 argmax labels.
    pub mean_dice: f64,
    /// Worst per-class Dice (the organ that suffers most).
    pub min_dice: f64,
    /// Weight bytes saved by nibble-packing this layer.
    pub bytes_saved: u64,
}

/// Quantizes one conv/tconv at a time to W4 (everything else W8) and
/// measures the per-layer damage on `eval` images. Entries come back in
/// node order; `num_classes` sizes the Dice tally.
pub fn sensitivity_sweep(
    fg: &Module,
    report: &PtqReport,
    eval: &[Tensor],
    num_classes: usize,
) -> Vec<SensitivityEntry> {
    assert!(!eval.is_empty(), "sensitivity sweep needs evaluation images");
    // The FP32 model's own predictions are the reference: on deployment
    // hardware there are no labels next to the calibration slices.
    let labels = FpRunner::labels(fg, eval);
    let base = quantize_from_calibration(fg, report, &vec![Bitwidth::W8; fg.nodes.len()]);
    let base_bytes = base.weight_bytes();

    quantizable_nodes(fg)
        .into_iter()
        .map(|node| {
            let mut wbits = vec![Bitwidth::W8; fg.nodes.len()];
            wbits[node] = Bitwidth::W4;
            let qg = quantize_from_calibration(fg, report, &wbits);
            let preds = QRunner::labels(&qg, eval);
            let mut dice_sum = vec![0.0f64; num_classes];
            for (pred, lab) in preds.iter().zip(&labels) {
                for (c, d) in dice_per_class(pred, lab, num_classes).iter().enumerate() {
                    dice_sum[c] += d;
                }
            }
            let dice: Vec<f64> = dice_sum.iter().map(|s| s / eval.len() as f64).collect();
            SensitivityEntry {
                node,
                mnemonic: fused_mnemonic(&fg.nodes[node].op).to_string(),
                agreement: label_agreement(&preds, &labels),
                mean_dice: dice.iter().sum::<f64>() / num_classes.max(1) as f64,
                min_dice: dice.iter().copied().fold(f64::INFINITY, f64::min),
                bytes_saved: base_bytes - qg.weight_bytes(),
            }
        })
        .collect()
}

/// One accepted/rejected flip of the greedy search trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchStep {
    /// Node the search tried to flip to W4.
    pub node: usize,
    /// Whether the flip survived the agreement floor.
    pub accepted: bool,
    /// Cumulative argmax agreement after the trial.
    pub agreement: f64,
    /// Modeled cost after the trial (accepted flips only move this).
    pub cost: f64,
}

/// Result of [`search_mixed_plan`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixedSearchResult {
    /// The chosen per-node bitwidth assignment.
    pub plan: BitwidthPlan,
    /// Argmax agreement of the chosen plan against the FP32 reference.
    pub agreement: f64,
    /// Modeled cost of the uniform-W8 baseline.
    pub baseline_cost: f64,
    /// Modeled cost of the chosen plan.
    pub cost: f64,
    /// Agreement of the uniform-W8 baseline (the floor is usually set
    /// relative to this).
    pub baseline_agreement: f64,
    /// Full greedy trace.
    pub steps: Vec<SearchStep>,
}

/// Greedy DPU-cost-aware bitwidth search.
///
/// Starting from uniform W8, candidate layers are ordered by the modeled
/// cost each would save alone (descending — most profitable first), then
/// flipped to W4 one at a time; a flip is reverted when the cumulative
/// argmax agreement against the FP32 reference drops below
/// `agreement_floor`. `cost` is the injected model — typically modeled DPU
/// frame cycles — and must be monotone under weight shrinking for the
/// greedy order to make sense (weight bytes or cycles both qualify).
pub fn search_mixed_plan(
    fg: &Module,
    report: &PtqReport,
    eval: &[Tensor],
    agreement_floor: f64,
    cost: &dyn Fn(&QuantizedGraph) -> f64,
) -> MixedSearchResult {
    assert!(!eval.is_empty(), "mixed search needs evaluation images");
    let labels = FpRunner::labels(fg, eval);
    let n = fg.nodes.len();

    let base = quantize_from_calibration(fg, report, &vec![Bitwidth::W8; n]);
    let baseline_cost = cost(&base);
    let baseline_agreement = agreement_vs(&base, eval, &labels);

    // Rank candidates by the cost each saves alone.
    let mut candidates: Vec<(usize, f64)> = quantizable_nodes(fg)
        .into_iter()
        .map(|node| {
            let mut wbits = vec![Bitwidth::W8; n];
            wbits[node] = Bitwidth::W4;
            let solo = quantize_from_calibration(fg, report, &wbits);
            (node, baseline_cost - cost(&solo))
        })
        .collect();
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut plan = BitwidthPlan::uniform(n, Bitwidth::W8);
    let mut current_cost = baseline_cost;
    let mut current_agreement = baseline_agreement;
    let mut steps = Vec::with_capacity(candidates.len());
    for (node, saving) in candidates {
        if saving <= 0.0 {
            // The cost model says this flip buys nothing; skip the eval.
            continue;
        }
        plan.wbits[node] = Bitwidth::W4;
        let qg = quantize_from_calibration(fg, report, &plan.wbits);
        let agreement = agreement_vs(&qg, eval, &labels);
        let trial_cost = cost(&qg);
        let accepted = agreement >= agreement_floor;
        if accepted {
            current_cost = trial_cost;
            current_agreement = agreement;
        } else {
            plan.wbits[node] = Bitwidth::W8; // revert
        }
        steps.push(SearchStep { node, accepted, agreement, cost: trial_cost });
    }

    MixedSearchResult {
        plan,
        agreement: current_agreement,
        baseline_cost,
        cost: current_cost,
        baseline_agreement,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::fuse;
    use rand::SeedableRng;
    use seneca_nn::graph::Graph;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_tensor::Shape4;

    fn setup(seed: u64) -> (Module, Vec<Tensor>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg =
            UNetConfig { depth: 2, base_filters: 4, in_channels: 1, num_classes: 6, dropout: 0.1 };
        let net = UNet::new(cfg, &mut rng);
        let fg = fuse(&Graph::from_unet(&net, "tiny"));
        let calib: Vec<Tensor> = (0..4)
            .map(|_| {
                let mut t = Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng);
                for v in t.data_mut() {
                    *v = v.clamp(-1.0, 1.0);
                }
                t
            })
            .collect();
        (fg, calib)
    }

    #[test]
    fn dice_handles_absent_classes_and_perfect_overlap() {
        let pred = vec![0u8, 0, 1, 1];
        let same = pred.clone();
        let d = dice_per_class(&pred, &same, 4);
        assert_eq!(d, vec![1.0, 1.0, 1.0, 1.0]);
        let other = vec![0u8, 1, 1, 1];
        let d = dice_per_class(&pred, &other, 3);
        // class 0: inter 1, counts 2+1 -> 2/3; class 1: inter 2, counts 2+3
        // -> 4/5; class 2 absent from both -> 1.
        assert!((d[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((d[1] - 0.8).abs() < 1e-12);
        assert_eq!(d[2], 1.0);
    }

    #[test]
    fn sweep_covers_every_conv_and_saves_bytes() {
        let (fg, calib) = setup(11);
        let report = calibrate(&fg, &calib, &PtqConfig::default());
        let entries = sensitivity_sweep(&fg, &report, &calib[..2], 6);
        assert_eq!(entries.len(), quantizable_nodes(&fg).len());
        // depth-2 tiny U-Net: 11 convs + 2 tconvs.
        assert_eq!(entries.len(), 13);
        for e in &entries {
            assert!(e.bytes_saved > 0, "W4 must shrink node {}", e.node);
            assert!((0.0..=1.0).contains(&e.agreement));
            assert!((0.0..=1.0).contains(&e.mean_dice) && e.min_dice <= e.mean_dice);
        }
    }

    #[test]
    fn greedy_search_cuts_cost_and_holds_floor() {
        let (fg, calib) = setup(12);
        let report = calibrate(&fg, &calib, &PtqConfig::default());
        let cost = |qg: &QuantizedGraph| qg.weight_bytes() as f64;
        let res = search_mixed_plan(&fg, &report, &calib[..2], 0.80, &cost);
        assert!(res.agreement >= 0.80, "agreement {}", res.agreement);
        assert!(res.plan.n_w4() > 0, "no layer tolerated W4 on an untrained tiny net");
        assert!(res.cost < res.baseline_cost, "{} !< {}", res.cost, res.baseline_cost);
        // The result's qg must round-trip from the plan.
        let qg = quantize_from_calibration(&fg, &report, &res.plan.wbits);
        assert!((cost(&qg) - res.cost).abs() < 1e-9);
    }

    #[test]
    fn impossible_floor_keeps_uniform_w8() {
        let (fg, calib) = setup(13);
        let report = calibrate(&fg, &calib, &PtqConfig::default());
        let cost = |qg: &QuantizedGraph| qg.weight_bytes() as f64;
        let res = search_mixed_plan(&fg, &report, &calib[..1], 1.01, &cost);
        assert_eq!(res.plan.n_w4(), 0);
        assert_eq!(res.cost, res.baseline_cost);
        assert!(res.steps.iter().all(|s| !s.accepted));
    }

    #[test]
    fn mixed_ptq_wrapper_matches_manual_plan() {
        let (fg, calib) = setup(14);
        let mut plan = BitwidthPlan::uniform(fg.nodes.len(), Bitwidth::W8);
        let node = quantizable_nodes(&fg)[0];
        plan.wbits[node] = Bitwidth::W4;
        let (qg, report) = quantize_post_training_mixed(&fg, &calib, &PtqConfig::default(), &plan);
        let manual = quantize_from_calibration(&fg, &report, &plan.wbits);
        let logits =
            |g: &QuantizedGraph| QRunner::new(g, calib[0].shape()).logits(&calib[0]).to_qtensor();
        assert_eq!(logits(&qg), logits(&manual));
        assert!(qg.name.ends_with("-w4a8"));
        assert!(qg.weight_bytes() < manual_bytes_uniform(&fg, &report));
    }

    fn manual_bytes_uniform(fg: &Module, report: &PtqReport) -> u64 {
        quantize_from_calibration(fg, report, &vec![Bitwidth::W8; fg.nodes.len()]).weight_bytes()
    }
}
