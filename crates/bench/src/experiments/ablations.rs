//! Ablations beyond the paper's tables:
//!
//! * **quantization-mode** (§III-D claim): PTQ vs FFQ vs QAT — the paper
//!   "decided to test both the remaining FFQ and QAT, but without achieving
//!   improvements over PTQ";
//! * **pruning** (§V future work): magnitude channel pruning vs throughput
//!   and accuracy.

use crate::ctx::ExperimentCtx;
use crate::fmt::{emit, Table};
use seneca::backend::QuantRefBackend;
use seneca::eval::evaluate_backend;
use seneca_dpu::arch::DpuArch;
use seneca_dpu::perf::{frame_cost, frame_cost_pruned};
use seneca_nn::graph::Graph;
use seneca_nn::loss::FocalTverskyLoss;
use seneca_nn::optim::Adam;
use seneca_nn::prune::{effective_macs, prune_channels};
use seneca_nn::unet::ModelSize;
use seneca_quant::finetune::fast_finetune;
use seneca_quant::{fuse, quantize_post_training, PtqConfig};
use seneca_tensor::Shape4;

/// Quantization-mode ablation on the 1M model.
pub fn run_quant(ctx: &mut ExperimentCtx) {
    let size = ModelSize::M1;
    let dep = ctx.deployment(size);
    let fg = fuse(&dep.graph);
    let calib = ctx.data.calibration.clone();
    let max_images = calib.len().min(64); // FFQ re-executes per layer: cap it

    eprintln!("[ablation-quant] PTQ ...");
    let (qg_ptq, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
    eprintln!("[ablation-quant] FFQ ...");
    let mut qg_ffq = qg_ptq.clone();
    let ffq_report = fast_finetune(&mut qg_ffq, &fg, &calib[..max_images.min(8)], 8);
    eprintln!("[ablation-quant] QAT ...");
    // QAT: short fine-tune of the trained model with weight projection.
    let mut qat_net = dep.unet.clone();
    let loss = FocalTverskyLoss::paper_defaults(ctx.data.class_weights.clone());
    let mut opt = Adam::new(2e-4);
    let mut qat_cfg = ctx.wf.config.train.clone();
    qat_cfg.epochs = (qat_cfg.epochs / 2).max(1);
    let _ = seneca_quant::qat::train_qat(&mut qat_net, &ctx.data.train, &loss, &mut opt, &qat_cfg);
    let qat_fg = fuse(&Graph::from_unet(&qat_net, "1M-qat"));
    let (qg_qat, _) = quantize_post_training(&qat_fg, &calib, &PtqConfig::default());

    let mut t = Table::new(vec!["Method", "Global DSC [%]", "Logit MSE vs FP32", "Notes"]);
    let data = &ctx.data;
    let shape = dep.gpu_runner.input_shape;
    let eval_dsc = |qg: &seneca_quant::QuantizedGraph| -> f64 {
        evaluate_backend(&QuantRefBackend::new(qg.clone(), shape), data).global().mean
    };
    let sample = &calib[..calib.len().min(4)];
    let mse = |qg: &seneca_quant::QuantizedGraph, fg: &seneca_ir::Module| {
        seneca_quant::ptq::quantization_mse(fg, qg, sample)
    };

    t.row(vec![
        "PTQ (paper's choice)".to_string(),
        format!("{:.2}", eval_dsc(&qg_ptq)),
        format!("{:.5}", mse(&qg_ptq, &fg)),
        "500-image calibration".to_string(),
    ]);
    t.row(vec![
        "FFQ (AdaQuant-style)".to_string(),
        format!("{:.2}", eval_dsc(&qg_ffq)),
        format!("{:.5}", mse(&qg_ffq, &fg)),
        format!(
            "{} scales changed, {} biases corrected",
            ffq_report.scales_changed, ffq_report.biases_corrected
        ),
    ]);
    t.row(vec![
        "QAT (projected training)".to_string(),
        format!("{:.2}", eval_dsc(&qg_qat)),
        format!("{:.5}", mse(&qg_qat, &qat_fg)),
        "half-length fine-tune".to_string(),
    ]);

    let body = format!(
        "{}\nPaper §III-D: PTQ already matches FP32; FFQ and QAT were tested \
         \"without achieving improvements over PTQ\".\n",
        t.markdown()
    );
    emit(&ctx.out_dir(), "ablation-quant-modes", &body);
}

/// Pruning ablation (future work of the paper) on the 1M model.
pub fn run_prune(ctx: &mut ExperimentCtx) {
    let size = ModelSize::M1;
    let dep = ctx.deployment(size);
    let arch = DpuArch::b4096_zcu104();
    let input = Shape4::new(1, 1, 256, 256);
    let acc_input = Shape4::new(1, 1, ctx.wf.config.input_size, ctx.wf.config.input_size);

    let mut t = Table::new(vec![
        "Prune ratio",
        "Weight sparsity",
        "Frame time (ms)",
        "Est. FPS (2 cores)",
        "Global DSC [%]",
    ]);

    for ratio in [0.0f64, 0.125, 0.25, 0.5] {
        eprintln!("[ablation-prune] ratio {ratio} ...");
        let mut graph = dep.graph.clone();
        let report = prune_channels(&mut graph, ratio);
        let fg = fuse(&graph);
        let (qg, _) = quantize_post_training(&fg, &ctx.data.calibration, &PtqConfig::default());
        let xm = seneca_dpu::compile(&qg, input, arch.clone());
        // Cycle credit from pruned channels.
        let base_macs: u64 = graph.macs(acc_input).iter().sum();
        let live_macs: u64 = effective_macs(&graph, acc_input).iter().sum();
        let live_ratio = live_macs as f64 / base_macs.max(1) as f64;
        let cost = if ratio == 0.0 {
            frame_cost(&xm, &arch)
        } else {
            frame_cost_pruned(&xm, &arch, live_ratio)
        };
        let fps = 2.0 / (cost.serial_ns as f64 * 1e-9);
        let dsc = evaluate_backend(&QuantRefBackend::new(qg, acc_input), &ctx.data).global().mean;
        t.row(vec![
            format!("{:.1}%", ratio * 100.0),
            format!("{:.1}%", report.weight_sparsity * 100.0),
            format!("{:.2}", cost.serial_ns as f64 * 1e-6),
            format!("{fps:.1}"),
            format!("{dsc:.2}"),
        ]);
    }

    let body = format!(
        "{}\nPaper §V lists pruning as future work to \"additionally improve throughput and \
         energy efficiency\"; moderate ratios buy FPS at modest DSC cost.\n",
        t.markdown()
    );
    emit(&ctx.out_dir(), "ablation-pruning", &body);
}

/// DPU-configuration ablation: the same SENECA xmodel on the B4096 (the
/// paper's target) vs the smaller B1152 soft-DSA — quantifying how much of
/// the result is the DPU configuration rather than the network.
pub fn run_arch(ctx: &mut ExperimentCtx) {
    use seneca_dpu::runtime::{DpuRunner, RuntimeConfig};
    use std::sync::Arc;

    let dep = ctx.deployment(ModelSize::M1);
    let input = Shape4::new(1, 1, 256, 256);
    let mut t = Table::new(vec!["DPU config", "peak TOPS", "FPS (4 thr)", "Watt", "EE"]);
    for arch in [DpuArch::b4096_zcu104(), DpuArch::b1152()] {
        let xm = Arc::new(seneca_dpu::compile(&dep.qgraph, input, arch.clone()));
        let rep = DpuRunner::new(xm, RuntimeConfig::default())
            .run_throughput(ctx.wf.config.throughput_frames, 0xA2C4);
        t.row(vec![
            arch.name.clone(),
            format!("{:.2}", arch.peak_tops()),
            format!("{:.1}", rep.fps),
            format!("{:.2}", rep.watt),
            format!("{:.2}", rep.energy_efficiency()),
        ]);
    }
    let body = format!(
        "{}\nThe B4096 is the default ZCU104 configuration the paper deploys on; smaller \
         configurations trade peak ops for fabric resources.\n",
        t.markdown()
    );
    emit(&ctx.out_dir(), "ablation-dpu-config", &body);
}
