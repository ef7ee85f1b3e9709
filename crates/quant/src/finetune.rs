//! Fast finetuning quantization (FFQ, §III-D).
//!
//! The paper describes FFQ as "based on the AdaQuant algorithm, adjusting
//! weights and quantize parameters layer-by-layer using a calibration
//! dataset". This module implements the two cheap, high-leverage pieces of
//! that recipe:
//!
//! 1. **per-layer scale search** — for each (t)conv, try neighbouring weight
//!    fix positions and keep the one minimising the node's output MSE against
//!    the FP32 reference;
//! 2. **bias correction** — absorb the systematic per-channel quantisation
//!    bias into the integer bias term.
//!
//! Consistent with the paper's finding, FFQ rarely beats plain PTQ on this
//! workload — the ablation bench (`reproduce ablation-quant`) shows that.

use crate::qgraph::QuantizedGraph;
use crate::run::{FpRunner, QRunner};
use seneca_ir::{ConvKernel, IrOp, Module};
use seneca_tensor::quantized::QTensor;
use seneca_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Summary of a fast-finetune run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FinetuneReport {
    /// Output-logit MSE before finetuning.
    pub mse_before: f64,
    /// Output-logit MSE after finetuning.
    pub mse_after: f64,
    /// Number of layers whose weight scale changed.
    pub scales_changed: usize,
    /// Number of layers whose bias was corrected.
    pub biases_corrected: usize,
}

/// Runs fast finetuning in place. `calib` are FP32 preprocessed images.
pub fn fast_finetune(
    qg: &mut QuantizedGraph,
    fg: &Module,
    calib: &[Tensor],
    max_images: usize,
) -> FinetuneReport {
    assert!(!calib.is_empty(), "FFQ needs calibration images");
    let imgs = &calib[..calib.len().min(max_images.max(1))];
    let mse_before = crate::ptq::quantization_mse(fg, qg, imgs);

    // FP32 reference activations per node, per image.
    let refs: Vec<Vec<Tensor>> = {
        let mut runner = FpRunner::new(fg, imgs[0].shape());
        imgs.iter()
            .map(|img| {
                let mut outs = Vec::with_capacity(fg.nodes.len());
                runner.for_each_node(img, |_, out| outs.push(out.to_tensor()));
                outs
            })
            .collect()
    };

    let mut scales_changed = 0usize;
    let mut biases_corrected = 0usize;

    let node_ids: Vec<usize> = (0..qg.module.nodes.len())
        .filter(|&i| matches!(qg.module.nodes[i].op, IrOp::Conv(_) | IrOp::TConv(_)))
        .collect();

    for &i in &node_ids {
        // --- scale search: try w_fp - 1 and w_fp + 1 ---
        let base_mse = node_mse(qg, &refs, imgs, i);
        let orig = kernel(qg, i).clone();
        let ConvKernel::I8 { w: orig_w, bias: orig_bias, .. } = &orig else { unreachable!() };
        let mut best_mse = base_mse;
        let mut best: Option<ConvKernel> = None;
        for delta in [-1i32, 1] {
            let new_fp = orig_w.fix_pos() + delta;
            if !(-12..=14).contains(&new_fp) {
                continue;
            }
            let mut cand = orig.clone();
            let ConvKernel::I8 { w, bias, .. } = &mut cand else { unreachable!() };
            // Requantise the original FP32 weights at the new position. We
            // only have the INT8 weights here, so dequantise first — for a
            // +1 shift this is exact, for -1 it merely coarsens.
            *w = QTensor::quantize(&orig_w.dequantize(), new_fp);
            // Re-scale bias to the new accumulator fix position.
            let shift = new_fp - orig_w.fix_pos();
            *bias = orig_bias
                .iter()
                .map(|&b| if shift >= 0 { b << shift } else { b >> (-shift) })
                .collect();
            *kernel(qg, i) = cand.clone();
            let mse = node_mse(qg, &refs, imgs, i);
            if mse < best_mse * 0.999 {
                best_mse = mse;
                best = Some(cand);
            }
        }
        match best {
            Some(b) => {
                *kernel(qg, i) = b;
                scales_changed += 1;
            }
            None => *kernel(qg, i) = orig,
        }

        // --- bias correction: remove the mean per-channel output error ---
        let (mean_err, hw_count) = channel_mean_error(qg, &refs, imgs, i);
        if hw_count > 0 {
            let ConvKernel::I8 { w, bias, in_fp, .. } = kernel(qg, i) else { unreachable!() };
            let acc_fp = *in_fp + w.fix_pos();
            let acc_scale = (acc_fp as f32).exp2();
            let mut corrected = false;
            for (b, &e) in bias.iter_mut().zip(&mean_err) {
                let delta = (e * acc_scale).round() as i32;
                if delta != 0 {
                    *b += delta;
                    corrected = true;
                }
            }
            biases_corrected += corrected as usize;
        }
    }

    let mse_after = crate::ptq::quantization_mse(fg, qg, imgs);
    FinetuneReport { mse_before, mse_after, scales_changed, biases_corrected }
}

/// The INT8 kernel of conv / tconv node `i`, edited in place (a kernel stays
/// `ConvKernel::I8`, so the graph stays a quantized graph).
fn kernel(qg: &mut QuantizedGraph, i: usize) -> &mut ConvKernel {
    match &mut qg.module.nodes[i].op {
        IrOp::Conv(a) | IrOp::TConv(a) => &mut a.kernel,
        _ => unreachable!("filtered to conv nodes"),
    }
}

/// MSE of node `i`'s dequantised output against the FP32 reference. Lowers
/// the candidate graph and runs only the nodes up to `i`.
fn node_mse(qg: &QuantizedGraph, refs: &[Vec<Tensor>], imgs: &[Tensor], i: usize) -> f64 {
    let mut runner = QRunner::new(qg, imgs[0].shape());
    let mut acc = 0.0f64;
    let mut n = 0usize;
    for (img, r) in imgs.iter().zip(refs) {
        let y = runner.node_output(img, i).dequantize();
        for (a, b) in y.data().iter().zip(r[i].data()) {
            acc += ((a - b) as f64).powi(2);
            n += 1;
        }
    }
    acc / n.max(1) as f64
}

/// Per-output-channel mean error (FP32 − INT8) of node `i`.
fn channel_mean_error(
    qg: &QuantizedGraph,
    refs: &[Vec<Tensor>],
    imgs: &[Tensor],
    i: usize,
) -> (Vec<f32>, usize) {
    let mut runner = QRunner::new(qg, imgs[0].shape());
    let mut sums: Vec<f64> = Vec::new();
    let mut count = 0usize;
    for (img, r) in imgs.iter().zip(refs) {
        let y = runner.node_output(img, i).dequantize();
        let s = y.shape();
        if sums.is_empty() {
            sums = vec![0.0; s.c];
        }
        for nidx in 0..s.n {
            for (c, sum) in sums.iter_mut().enumerate() {
                let base = s.idx(nidx, c, 0, 0);
                for pix in 0..s.hw() {
                    *sum += (r[i].data()[base + pix] - y.data()[base + pix]) as f64;
                }
            }
        }
        count += s.n * s.hw();
    }
    (sums.iter().map(|&v| (v / count.max(1) as f64) as f32).collect(), count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::fuse;
    use crate::ptq::{quantize_post_training, PtqConfig};
    use rand::SeedableRng;
    use seneca_nn::graph::Graph;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_tensor::Shape4;

    fn setup(seed: u64) -> (Module, QuantizedGraph, Vec<Tensor>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = UNetConfig { depth: 1, base_filters: 4, num_classes: 4, dropout: 0.0 };
        let net = UNet::new(cfg, &mut rng);
        let fg = fuse(&Graph::from_unet(&net, "t"));
        let calib: Vec<Tensor> = (0..4)
            .map(|_| {
                let mut t = Tensor::he_normal(Shape4::new(1, 1, 8, 8), &mut rng);
                for v in t.data_mut() {
                    *v = v.clamp(-1.0, 1.0);
                }
                t
            })
            .collect();
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        (fg, qg, calib)
    }

    #[test]
    fn ffq_never_increases_output_mse_substantially() {
        let (fg, mut qg, calib) = setup(1);
        let report = fast_finetune(&mut qg, &fg, &calib, 4);
        assert!(
            report.mse_after <= report.mse_before * 1.2,
            "FFQ degraded MSE: {} -> {}",
            report.mse_before,
            report.mse_after
        );
    }

    #[test]
    fn ffq_reports_activity() {
        let (fg, mut qg, calib) = setup(2);
        let report = fast_finetune(&mut qg, &fg, &calib, 4);
        // On an untrained tiny net at least some biases get corrected.
        assert!(report.biases_corrected + report.scales_changed > 0, "{report:?}");
    }

    #[test]
    #[should_panic(expected = "needs calibration")]
    fn empty_calibration_rejected() {
        let (fg, mut qg, _) = setup(3);
        let _ = fast_finetune(&mut qg, &fg, &[], 4);
    }
}
