//! Post-training quantization (the method SENECA ships with, §III-D).
//!
//! PTQ needs only a small unlabeled calibration set (the paper uses 500
//! slices): activations are observed through the fused FP32 module (the
//! output of [`crate::fuse()`]), each node gets a power-of-two fix position,
//! weights are quantised per-tensor, and biases are pre-scaled to the
//! accumulator fix position.

use crate::fuse::assert_fused;
use crate::qgraph::QuantizedGraph;
use crate::run::{FpRunner, QRunner};
use seneca_ir::{ConvAttrs, ConvKernel, DType, IrOp, Module};
use seneca_tensor::quantized::{choose_fix_pos, choose_fix_pos_bits, Bitwidth, QTensor};
use seneca_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// PTQ settings.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PtqConfig {
    /// Cap on calibration images actually used (the paper's set has 500).
    pub max_images: usize,
}

impl Default for PtqConfig {
    fn default() -> Self {
        Self { max_images: 500 }
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

/// Quantises a fused FP32 module using `calib` images, every conv/tconv at
/// W8. Per-node bitwidths go through [`quantize_from_calibration`] (see
/// `crate::mixed` for the sensitivity sweep and the cost-aware search).
///
/// Returns the quantized graph plus a calibration report.
pub fn quantize_post_training(
    fg: &Module,
    calib: &[Tensor],
    cfg: &PtqConfig,
) -> (QuantizedGraph, PtqReport) {
    let report = calibrate(fg, calib, cfg);
    let wbits = vec![Bitwidth::W8; fg.nodes.len()];
    let qg = quantize_from_calibration(fg, &report, &wbits);
    (qg, report)
}

/// Runs the calibration phases of PTQ only: records each node's activation
/// range (the max |x| over every calibration image, Vitis AI's min-max rule)
/// through the fused FP32 module and assigns the structurally-constrained fix
/// positions: a max pool cannot rescale, so it shares its input's position,
/// and a concat is laid out by address, so it shares both of its inputs'
/// (as Vitis AI's quantizer gives a concat's inputs one position). Each
/// class of nodes so tied takes the least non-overflow position of its
/// members, and every concat then copies its inputs unshifted. Activation
/// scales do not depend on the weight bitwidth, so a mixed-precision sweep
/// calibrates once and rebuilds graphs per plan via
/// [`quantize_from_calibration`].
pub fn calibrate(fg: &Module, calib: &[Tensor], cfg: &PtqConfig) -> PtqReport {
    assert!(!calib.is_empty(), "PTQ needs a non-empty calibration set");
    let used = calib.len().min(cfg.max_images.max(1));

    // 1. Track each node's running max |x| right after it ran. The lowered
    // program (a full set of packed FP32 weight panels) lives only for this
    // block.
    let mut range = vec![0.0f32; fg.nodes.len()];
    {
        let mut runner = FpRunner::new(fg, calib[0].shape());
        for img in &calib[..used] {
            runner.for_each_node(img, |id, out| {
                range[id] = out.data().iter().fold(range[id], |m, v| m.max(v.abs()));
            });
        }
    }

    // 2. Fix positions by class (union-find over pools and concats).
    let mut class: Vec<usize> = (0..fg.nodes.len()).collect();
    let root = |class: &[usize], mut i: usize| {
        while class[i] != i {
            i = class[i];
        }
        i
    };
    for (i, node) in fg.nodes.iter().enumerate() {
        if matches!(node.op, IrOp::MaxPool2x2 | IrOp::Concat { .. }) {
            for &j in &node.inputs {
                let (a, b) = (root(&class, i), root(&class, j));
                class[a] = b;
            }
        }
    }
    let mut least = vec![i32::MAX; fg.nodes.len()];
    for (i, &r) in range.iter().enumerate() {
        let c = root(&class, i);
        least[c] = least[c].min(choose_fix_pos(r));
    }
    let fp = (0..fg.nodes.len()).map(|i| least[root(&class, i)]).collect();

    PtqReport { fix_pos: fp, range, images_used: used }
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
    let mut m = Module::new("", DType::I8);
    for (i, node) in fg.nodes.iter().enumerate().skip(1) {
        let op = match &node.op {
            IrOp::Conv(a) | IrOp::TConv(a) => {
                mixed |= wbits[i] == Bitwidth::W4;
                let a = quantize_conv(a, fp[node.inputs[0]], fp[i], wbits[i]);
                if matches!(node.op, IrOp::Conv(_)) {
                    IrOp::Conv(a)
                } else {
                    IrOp::TConv(a)
                }
            }
            IrOp::MaxPool2x2 => IrOp::MaxPool2x2,
            IrOp::Concat { .. } => IrOp::Concat {},
            _ => unreachable!("ruled out by assert_fused"),
        };
        m.push(op, node.inputs.clone());
    }
    m.output = fg.output;
    m.name = format!("{}-{}", fg.name, if mixed { "w4a8" } else { "int8" });
    m.input_fp = fp[0];
    QuantizedGraph::try_from(m).expect("PTQ builds a quantized graph")
}

fn quantize_conv(a: &ConvAttrs, in_fp: i32, out_fp: i32, wbits: Bitwidth) -> ConvAttrs {
    let ConvKernel::F32 { w, b, bn: None } = &a.kernel else {
        panic!("the quantizer takes the fused FP32 module")
    };
    let w_fp = choose_fix_pos_bits(w.abs_max(), wbits);
    let acc_scale = ((in_fp + w_fp) as f32).exp2();
    let kernel = ConvKernel::I8 {
        w: QTensor::quantize_bits(w, w_fp, wbits),
        bias: b.iter().map(|&v| (v * acc_scale).round() as i32).collect(),
        in_fp,
        out_fp,
        wbits,
    };
    ConvAttrs { relu: a.relu, ..ConvAttrs::new(kernel) }
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
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 6, dropout: 0.1 };
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
        for (i, node) in qg.module().nodes.iter().enumerate() {
            match &node.op {
                IrOp::MaxPool2x2 => {
                    assert_eq!(report.fix_pos[i], report.fix_pos[node.inputs[0]]);
                }
                IrOp::Concat {} => {
                    let [a, b] = node.inputs[..] else { unreachable!() };
                    assert_eq!(
                        (report.fix_pos[a], report.fix_pos[b]),
                        (report.fix_pos[i], report.fix_pos[i])
                    );
                }
                IrOp::Conv(a) | IrOp::TConv(a) => {
                    let ConvKernel::I8 { in_fp, out_fp, .. } = a.kernel else { panic!("INT8") };
                    assert_eq!(in_fp, report.fix_pos[node.inputs[0]]);
                    assert_eq!(out_fp, report.fix_pos[i]);
                }
                _ => {}
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
        let (_, r) = quantize_post_training(&fg, &calib, &PtqConfig { max_images: 3 });
        assert_eq!(r.images_used, 3);
    }

    /// The range rule by hand: input (node 0) -> conv with centre tap -0.5
    /// (node 1) -> conv with all-zero weights and bias (node 2), over three
    /// 1x2 images `[0.5, -0.2]`, `[-3.0, 1.0]`, `[0.25, 0.0]`. Node 0's
    /// max |x| is 3.0 (from the middle image, so neither the first nor the
    /// last image decides), node 1's is 0.5 * 3.0 = 1.5, node 2 is all zero.
    /// Fix positions: floor(log2(127 / 3)) = 5, floor(log2(127 / 1.5)) = 6,
    /// and an all-zero activation gets `choose_fix_pos(0.0)`.
    #[test]
    fn calibration_range_is_max_abs_over_every_image() {
        let centre = |v: f32| {
            let mut w = Tensor::zeros(Shape4::new(1, 1, 3, 3));
            *w.at_mut(0, 0, 1, 1) = v;
            ConvKernel::F32 { w: w.into(), b: vec![0.0], bn: None }
        };
        let mut fg = Module::new("hand", DType::F32);
        fg.push(IrOp::Conv(ConvAttrs::new(centre(-0.5))), vec![0]);
        fg.push(IrOp::Conv(ConvAttrs::new(centre(0.0))), vec![1]);
        let images: Vec<Tensor> = [[0.5, -0.2], [-3.0, 1.0], [0.25, 0.0]]
            .iter()
            .map(|x| Tensor::from_vec(Shape4::new(1, 1, 1, 2), x.to_vec()))
            .collect();

        let report = calibrate(&fg, &images, &PtqConfig::default());
        assert_eq!(report.images_used, 3);
        assert_eq!(report.range, vec![3.0, 1.5, 0.0]);
        assert_eq!(report.fix_pos, vec![5, 6, choose_fix_pos(0.0)]);
        assert_eq!(choose_fix_pos(0.0), 15);
    }

    /// The position classes by hand: input (node 0) -> conv with centre tap
    /// 1 (node 1, the skip) -> pool (2) -> tconv with every tap 3 (3) ->
    /// concat(1, 3) (4) -> conv with zero weights (5), over one 2x2 image of
    /// max |x| 0.5. Ranges: 0.5, 0.5, 0.5, 1.5, 1.5, 0, so each node alone
    /// would take 7, 7, 7, 6, 6, 15. The pool joins the skip's class and the
    /// concat joins both the skip's and the tconv's, so the skip, the pool,
    /// the tconv and the concat all take the least, 6, and the concat
    /// copies both inputs unshifted.
    #[test]
    fn a_pool_and_a_concat_share_their_inputs_position() {
        let f32_kernel = |shape, v: f32| {
            let w = Tensor::from_vec(shape, vec![v; Shape4::len(&shape)]);
            ConvKernel::F32 { w: w.into(), b: vec![0.0], bn: None }
        };
        let mut centre = Tensor::zeros(Shape4::new(1, 1, 3, 3));
        *centre.at_mut(0, 0, 1, 1) = 1.0;
        let skip = ConvKernel::F32 { w: centre.into(), b: vec![0.0], bn: None };
        let mut fg = Module::new("classes", DType::F32);
        let c1 = fg.push(IrOp::Conv(ConvAttrs::new(skip)), vec![0]);
        let p = fg.push(IrOp::MaxPool2x2, vec![c1]);
        let up =
            fg.push(IrOp::TConv(ConvAttrs::new(f32_kernel(Shape4::new(1, 1, 2, 2), 3.0))), vec![p]);
        let cat = fg.push(IrOp::Concat {}, vec![c1, up]);
        fg.push(IrOp::Conv(ConvAttrs::new(f32_kernel(Shape4::new(1, 2, 3, 3), 0.0))), vec![cat]);
        let img = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![0.5, -0.25, 0.1, 0.2]);

        let report = calibrate(&fg, std::slice::from_ref(&img), &PtqConfig::default());
        assert_eq!(report.range, vec![0.5, 0.5, 0.5, 1.5, 1.5, 0.0]);
        assert_eq!(report.fix_pos, vec![7, 6, 6, 6, 6, 15]);
        let qg = quantize_from_calibration(&fg, &report, &[Bitwidth::W8; 6]);
        let fps = qg.module().fix_positions();
        assert_eq!((fps[c1], fps[up], fps[cat]), (6, 6, 6));
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
        let kernel = ConvKernel::F32 { w: w.into(), b, bn: None };
        fg.push(IrOp::Conv(ConvAttrs::new(kernel)), vec![0]);
        let img = Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![0.5, -0.75]);

        let report = calibrate(&fg, std::slice::from_ref(&img), &PtqConfig::default());
        assert_eq!(report.fix_pos, vec![7, 8]);
        let qg = quantize_from_calibration(&fg, &report, &[Bitwidth::W8, Bitwidth::W4]);
        assert_eq!(qg.module().name, "hand-w4a8");

        let IrOp::Conv(a) = &qg.module().nodes[1].op else { panic!("node 1 must be a conv") };
        let ConvKernel::I8 { w, bias, wbits, .. } = &a.kernel else { panic!("INT8 kernel") };
        assert_eq!(*wbits, Bitwidth::W4);
        assert_eq!(w.fix_pos(), 3);
        assert_eq!(w.data()[4], 4, "centre tap of ch0");
        assert_eq!(w.data()[13], -2, "centre tap of ch1");
        assert_eq!(bias, &vec![103, 0]);
        assert_eq!(a.kernel.shift(), 2, "requantisation shift");
        // 2 weight nibbles round up to 9 bytes for 18 elems, plus 2 i32 bias.
        assert_eq!(a.kernel.weight_bytes(), 9 + 8);

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
        assert_eq!(qg_direct.module().name, qg_planned.module().name);
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
