//! Post-training quantization (the method SENECA ships with, §III-D).
//!
//! PTQ needs only a small unlabeled calibration set (the paper uses 500
//! slices): activations are observed through the fused FP32 module (the
//! output of [`crate::fuse`]), each node gets a power-of-two fix position,
//! weights are quantised per-tensor, and biases are pre-scaled to the
//! accumulator fix position.

use crate::fuse::assert_fused;
use crate::observer::{ObserverKind, RangeObserver};
use crate::qgraph::{QConvParams, QNode, QOp, QuantizedGraph};
use crate::run::{FpRunner, QRunner};
use seneca_ir::{ConvAttrs, ConvKernel, IrOp, Module};
use seneca_tensor::quantized::{choose_fix_pos_bits, Bitwidth, QTensor};
use seneca_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// PTQ settings.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PtqConfig {
    /// Activation-range observer.
    pub observer: ObserverKind,
    /// Cap on calibration images actually used.
    pub max_images: usize,
    /// Default weight bitwidth applied to every conv/tconv. Per-node
    /// assignments go through [`quantize_from_calibration`] (see
    /// `crate::mixed` for the sensitivity sweep and the cost-aware search).
    pub wbits: Bitwidth,
}

impl Default for PtqConfig {
    fn default() -> Self {
        Self { observer: ObserverKind::MinMax, max_images: 500, wbits: Bitwidth::W8 }
    }
}

/// Per-node diagnostics from PTQ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PtqReport {
    /// Fix position per fused node.
    pub fix_pos: Vec<i32>,
    /// Activation range per fused node.
    pub range: Vec<f32>,
    /// Images used for calibration.
    pub images_used: usize,
}

/// Quantises a fused FP32 module using `calib` images at the config's uniform
/// weight bitwidth.
///
/// Returns the quantized graph plus a calibration report.
pub fn quantize_post_training(
    fg: &Module,
    calib: &[Tensor],
    cfg: &PtqConfig,
) -> (QuantizedGraph, PtqReport) {
    let report = calibrate(fg, calib, cfg);
    let wbits = vec![cfg.wbits; fg.nodes.len()];
    let qg = quantize_from_calibration(fg, &report, &wbits);
    (qg, report)
}

/// Runs the calibration phases of PTQ only: observes activation ranges
/// through the fused FP32 module and assigns the structurally-constrained fix
/// positions. Activation scales do not depend on the weight bitwidth, so a
/// mixed-precision sweep calibrates once and rebuilds graphs per plan via
/// [`quantize_from_calibration`].
pub fn calibrate(fg: &Module, calib: &[Tensor], cfg: &PtqConfig) -> PtqReport {
    assert!(!calib.is_empty(), "PTQ needs a non-empty calibration set");
    let used = calib.len().min(cfg.max_images.max(1));

    // 1. Observe each node's output right after it ran. The lowered program
    // (a full set of packed FP32 weight panels) lives only for this block.
    let mut observers: Vec<RangeObserver> =
        (0..fg.nodes.len()).map(|_| RangeObserver::new(cfg.observer)).collect();
    {
        let mut runner = FpRunner::new(fg, calib[0].shape());
        for img in &calib[..used] {
            runner.for_each_node(img, |id, out| observers[id].observe(out.data()));
        }
    }

    // 2. Assign fix positions with structural constraints.
    let mut fp: Vec<i32> = observers.iter().map(|o| o.fix_pos()).collect();
    for (i, node) in fg.nodes.iter().enumerate() {
        match &node.op {
            IrOp::MaxPool2x2 => fp[i] = fp[node.inputs[0]], // pool can't rescale
            IrOp::Concat { .. } => {
                fp[i] = fp[node.inputs[0]].min(fp[node.inputs[1]]).min(fp[i]);
            }
            _ => {}
        }
    }

    PtqReport {
        fix_pos: fp,
        range: observers.iter().map(|o| o.range()).collect(),
        images_used: used,
    }
}

/// Builds the quantized graph from an existing calibration, with a per-node
/// weight bitwidth (`wbits[i]` applies to node `i`; entries on non-conv
/// nodes are ignored). Activation fix positions come from the report;
/// weights get their own per-tensor fix position chosen for the assigned
/// bitwidth's grid.
pub fn quantize_from_calibration(
    fg: &Module,
    report: &PtqReport,
    wbits: &[Bitwidth],
) -> QuantizedGraph {
    assert_fused(fg);
    assert_eq!(wbits.len(), fg.nodes.len(), "one bitwidth per fused node");
    let fp = &report.fix_pos;
    assert_eq!(fp.len(), fg.nodes.len(), "calibration report is for another graph");

    let mut mixed = false;
    let mut nodes = Vec::with_capacity(fg.nodes.len());
    for (i, node) in fg.nodes.iter().enumerate() {
        let op = match &node.op {
            IrOp::Input => QOp::Input,
            IrOp::Conv(a) | IrOp::TConv(a) => {
                mixed |= wbits[i] == Bitwidth::W4;
                let p = make_qconv(a, fp[node.inputs[0]], fp[i], wbits[i]);
                if matches!(node.op, IrOp::Conv(_)) {
                    QOp::Conv(p)
                } else {
                    QOp::TConv(p)
                }
            }
            IrOp::MaxPool2x2 => QOp::MaxPool2x2,
            IrOp::Concat { .. } => QOp::Concat {
                shift_a: fp[node.inputs[0]] - fp[i],
                shift_b: fp[node.inputs[1]] - fp[i],
                out_fp: fp[i],
            },
            _ => unreachable!("ruled out by assert_fused"),
        };
        nodes.push(QNode { op, inputs: node.inputs.clone() });
    }

    QuantizedGraph {
        nodes,
        output: fg.output,
        input_fp: fp[0],
        output_fp: fp[fg.output],
        name: format!("{}-{}", fg.name, if mixed { "w4a8" } else { "int8" }),
    }
}

fn make_qconv(a: &ConvAttrs, in_fp: i32, out_fp: i32, wbits: Bitwidth) -> QConvParams {
    let ConvKernel::F32 { w, b } = &a.kernel else {
        panic!("the quantizer takes the fused FP32 module")
    };
    let w_fp = choose_fix_pos_bits(w.abs_max(), wbits);
    let acc_scale = ((in_fp + w_fp) as f32).exp2();
    QConvParams {
        w: QTensor::quantize_bits(w, w_fp, wbits),
        bias: b.iter().map(|&v| (v * acc_scale).round() as i32).collect(),
        relu: a.relu,
        in_fp,
        out_fp,
        wbits,
    }
}

/// Mean squared error between the dequantised INT8 logits and the FP32
/// logits over a set of images — the headline quantisation-quality metric.
pub fn quantization_mse(fg: &Module, qg: &QuantizedGraph, images: &[Tensor]) -> f64 {
    let Some(first) = images.first() else { return 0.0 };
    let mut fp32 = FpRunner::new(fg, first.shape());
    let mut int8 = QRunner::new(qg, first.shape());
    let mut acc = 0.0f64;
    let mut count = 0usize;
    for img in images {
        let y_q = int8.logits(img).dequantize();
        for (a, b) in fp32.logits(img).data().iter().zip(y_q.data()) {
            acc += ((a - b) as f64).powi(2);
            count += 1;
        }
    }
    acc / count.max(1) as f64
}

/// Fraction of pixels where `labels` (one map per image) agree with the
/// quantized graph's argmax.
pub(crate) fn agreement_vs(qg: &QuantizedGraph, images: &[Tensor], labels: &[Vec<u8>]) -> f64 {
    label_agreement(&QRunner::labels(qg, images), labels)
}

/// Fraction of equal entries of two sets of label maps.
pub(crate) fn label_agreement(a: &[Vec<u8>], b: &[Vec<u8>]) -> f64 {
    let pairs = a.iter().flatten().zip(b.iter().flatten());
    let total = a.iter().map(Vec::len).sum::<usize>();
    pairs.filter(|(x, y)| x == y).count() as f64 / total.max(1) as f64
}

/// Fraction of pixels where the INT8 argmax agrees with the FP32 argmax.
pub fn argmax_agreement(fg: &Module, qg: &QuantizedGraph, images: &[Tensor]) -> f64 {
    if images.is_empty() {
        return 0.0;
    }
    agreement_vs(qg, images, &FpRunner::labels(fg, images))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::fuse;
    use rand::SeedableRng;
    use seneca_nn::graph::Graph;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_tensor::Shape4;

    /// INT8 logits of one image through the lowered executor.
    fn run_i8(qg: &QuantizedGraph, img: &Tensor) -> QTensor {
        QRunner::new(qg, img.shape()).logits(img).to_qtensor()
    }

    fn setup(seed: u64) -> (Module, Vec<Tensor>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg =
            UNetConfig { depth: 2, base_filters: 4, in_channels: 1, num_classes: 6, dropout: 0.1 };
        let net = UNet::new(cfg, &mut rng);
        let fg = fuse(&Graph::from_unet(&net, "tiny"));
        let calib: Vec<Tensor> = (0..6)
            .map(|_| {
                let mut t = Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng);
                // Clamp to [-1, 1] like preprocessed CT slices.
                for v in t.data_mut() {
                    *v = v.clamp(-1.0, 1.0);
                }
                t
            })
            .collect();
        (fg, calib)
    }

    #[test]
    fn ptq_produces_consistent_fix_positions() {
        let (fg, calib) = setup(1);
        let (qg, report) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        assert_eq!(report.fix_pos.len(), fg.nodes.len());
        assert_eq!(report.images_used, 6);
        // Structural constraints honoured.
        for (i, node) in qg.nodes.iter().enumerate() {
            match &node.op {
                QOp::MaxPool2x2 => {
                    assert_eq!(report.fix_pos[i], report.fix_pos[node.inputs[0]]);
                }
                QOp::Concat { shift_a, shift_b, .. } => {
                    assert!(*shift_a >= 0 && *shift_b >= 0, "concat shifts must be right shifts");
                }
                QOp::Conv(p) | QOp::TConv(p) => {
                    assert_eq!(p.in_fp, report.fix_pos[node.inputs[0]]);
                    assert_eq!(p.out_fp, report.fix_pos[i]);
                }
                QOp::Input => {}
            }
        }
    }

    #[test]
    fn int8_output_tracks_fp32_logits() {
        let (fg, calib) = setup(2);
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        let mse = quantization_mse(&fg, &qg, &calib[..2]);
        // Logits of an untrained net are O(1); MSE must be far below that.
        assert!(mse < 0.05, "mse {mse}");
        let agree = argmax_agreement(&fg, &qg, &calib[..2]);
        assert!(agree > 0.85, "argmax agreement {agree}");
    }

    #[test]
    fn more_calibration_images_never_shrink_ranges() {
        let (fg, calib) = setup(3);
        let (_, r1) = quantize_post_training(&fg, &calib[..1], &PtqConfig::default());
        let (_, r6) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        for (a, b) in r1.range.iter().zip(&r6.range) {
            assert!(b >= a, "range shrank with more data: {a} -> {b}");
        }
    }

    #[test]
    fn max_images_caps_calibration() {
        let (fg, calib) = setup(4);
        let (_, r) = quantize_post_training(
            &fg,
            &calib,
            &PtqConfig { observer: ObserverKind::MinMax, max_images: 3, wbits: Bitwidth::W8 },
        );
        assert_eq!(r.images_used, 3);
    }

    #[test]
    #[should_panic(expected = "non-empty calibration")]
    fn empty_calibration_rejected() {
        let (fg, _) = setup(5);
        let _ = quantize_post_training(&fg, &[], &PtqConfig::default());
    }

    /// Hand-computed W4A8 regression for the requant path, checked through
    /// the mixed-graph metric entry points.
    ///
    /// One 3x3 conv, only centre taps non-zero: `w = [0.5, -0.25]`,
    /// `b = [205/2048, 0]`, input `x = [0.5, -0.75]`.
    ///
    /// FP32: ch0 = 0.5*x + 205/2048 = [0.35009765625, -0.27490234375],
    ///       ch1 = -0.25*x          = [-0.125, 0.1875].
    /// Calibration (MinMax): input abs 0.75 -> fp 7; output abs 0.35009...
    /// -> fp 8. W4 weights: abs 0.5 -> fp 3 (grid max 7), q = [4, -2].
    /// Bias at fp 10: 205/2048 * 1024 = 102.5 -> rounds half away to 103.
    /// Shift = 7 + 3 - 8 = 2. Accumulators ch0: 64*4+103 = 359 -> 89.75
    /// -> 90; -96*4+103 = -281 -> -70.25 -> -70. ch1: -128 -> -32; 192 -> 48.
    /// Dequant errors: ch0 |3/2048| per pixel, ch1 exact, so
    /// MSE = 2*(3/2048)^2 / 4 and every argmax agrees.
    #[test]
    fn w4a8_requant_path_matches_hand_computation() {
        let mut w = Tensor::zeros(Shape4::new(2, 1, 3, 3));
        *w.at_mut(0, 0, 1, 1) = 0.5;
        *w.at_mut(1, 0, 1, 1) = -0.25;
        let b = vec![205.0 / 2048.0, 0.0];
        let mut fg = Module::new("hand", seneca_ir::DType::F32);
        let kernel = ConvKernel::F32 { w: w.into(), b };
        fg.push(IrOp::Conv(ConvAttrs { kernel, relu: false, pack: None }), vec![0]);
        let img = Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![0.5, -0.75]);

        let report = calibrate(&fg, std::slice::from_ref(&img), &PtqConfig::default());
        assert_eq!(report.fix_pos, vec![7, 8]);
        let qg = quantize_from_calibration(&fg, &report, &[Bitwidth::W8, Bitwidth::W4]);
        assert_eq!(qg.name, "hand-w4a8");

        let QOp::Conv(p) = &qg.nodes[1].op else { panic!("node 1 must be a conv") };
        assert_eq!(p.wbits, Bitwidth::W4);
        assert_eq!(p.w.fix_pos(), 3);
        assert_eq!(p.w.data()[4], 4, "centre tap of ch0");
        assert_eq!(p.w.data()[13], -2, "centre tap of ch1");
        assert_eq!(p.bias, vec![103, 0]);
        assert_eq!(p.in_fp + p.w.fix_pos() - p.out_fp, 2, "requantisation shift");
        // 2 weight nibbles round up to 9 bytes for 18 elems, plus 2 i32 bias.
        assert_eq!(p.weight_bytes(), 9 + 8);

        // Executor and oracle both land on the hand-computed bytes.
        assert_eq!(run_i8(&qg, &img).data(), &[90, -70, -32, 48]);
        let oracle = seneca_ir::oracle::run_i8(&qg.to_ir(), &qg.quantize_input(&img));
        assert_eq!(oracle[1].data(), &[90, -70, -32, 48]);

        let mse = quantization_mse(&fg, &qg, std::slice::from_ref(&img));
        let e = 3.0f64 / 2048.0;
        assert!((mse - 2.0 * e * e / 4.0).abs() < 1e-15, "mse {mse}");
        let agree = argmax_agreement(&fg, &qg, std::slice::from_ref(&img));
        assert_eq!(agree, 1.0);
    }

    #[test]
    fn uniform_w8_plan_reproduces_quantize_post_training() {
        let (fg, calib) = setup(7);
        let (qg_direct, report) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        let qg_planned =
            quantize_from_calibration(&fg, &report, &vec![Bitwidth::W8; fg.nodes.len()]);
        assert_eq!(qg_direct.name, qg_planned.name);
        assert_eq!(run_i8(&qg_direct, &calib[0]), run_i8(&qg_planned, &calib[0]));
    }

    #[test]
    fn predict_labels_match_shapes() {
        let (fg, calib) = setup(6);
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        let labels = QRunner::labels(&qg, &calib[..1]);
        assert_eq!(labels[0].len(), 16 * 16);
        assert!(labels[0].iter().all(|&l| l < 6));
    }
}
