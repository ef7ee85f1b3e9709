//! Ablations beyond the paper's tables:
//!
//! * **quantization-mode** (§III-D claim): PTQ vs FFQ vs QAT — the paper
//!   "decided to test both the remaining FFQ and QAT, but without achieving
//!   improvements over PTQ";
//! * **pruning** (§V future work): L1 channel pruning that shrinks the
//!   model, vs throughput, power and accuracy.

use crate::ctx::ExperimentCtx;
use crate::fmt::{emit, Table};
use seneca::backend::QuantRefBackend;
use seneca::eval::evaluate_backend;
use seneca_dpu::arch::DpuArch;
use seneca_dpu::runtime::{DpuRunner, RuntimeConfig};
use seneca_nn::loss::FocalTverskyLoss;
use seneca_nn::optim::Adam;
use seneca_nn::prune::shrink;
use seneca_nn::unet::ModelSize;
use seneca_quant::finetune::fast_finetune;
use seneca_quant::{fuse, quantize_post_training, PtqConfig};
use seneca_tensor::Shape4;
use std::sync::Arc;

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
    let mut qat_graph = dep.graph.clone();
    let loss = FocalTverskyLoss::paper_defaults(ctx.data.class_weights.clone());
    let mut opt = Adam::new(2e-4);
    let mut qat_cfg = ctx.wf.config.train.clone();
    qat_cfg.epochs = (qat_cfg.epochs / 2).max(1);
    let _ =
        seneca_quant::qat::train_qat(&mut qat_graph, &ctx.data.train, &loss, &mut opt, &qat_cfg);
    let mut qat_fg = fuse(&qat_graph);
    qat_fg.name = "1M-qat".into();
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

/// Pruning ablation (future work of the paper) on the 1M model. Each ratio
/// shrinks the trained graph and deploys the narrower model the way Table IV
/// deploys its models — fuse, PTQ, compile at 256², `DpuRunner::throughput`
/// at 4 threads — so the 0 % row is Table IV's 1M model.
pub fn run_prune(ctx: &mut ExperimentCtx) {
    const SEED: u64 = 0xBEEF;
    let dep = ctx.deployment(ModelSize::M1);
    let frames = ctx.wf.config.throughput_frames;
    let unshrunk = ctx.dpu_runner_256(ModelSize::M1, 4).throughput(frames, SEED);
    let acc_input = Shape4::new(1, 1, ctx.wf.config.input_size, ctx.wf.config.input_size);

    let mut t = Table::new(vec![
        "Prune ratio",
        "Channels removed",
        "MMAC / 256² frame",
        "Params",
        "FPS (4 thr)",
        "Watt",
        "FPS/W",
        "Global DSC [%]",
    ]);
    let mut prev_macs = u64::MAX;
    for ratio in [0.0f64, 0.125, 0.25, 0.5] {
        eprintln!("[ablation-prune] ratio {ratio} ...");
        let mut graph = dep.graph.clone();
        let report = shrink(&mut graph, ratio);
        assert!(report.macs[1] < prev_macs, "MACs must fall with the ratio: {report:?}");
        prev_macs = report.macs[1];
        let qg = ctx.wf.quantize(&graph, &ctx.data);
        let xm = seneca_dpu::compile(&qg, Shape4::new(1, 1, 256, 256), DpuArch::b4096_zcu104());
        let rep =
            DpuRunner::new(Arc::new(xm), RuntimeConfig { threads: 4 }).throughput(frames, SEED);
        if ratio == 0.0 {
            assert_eq!((rep.fps, rep.watt), (unshrunk.fps, unshrunk.watt), "0 % is the 1M's row");
        }
        let dsc = evaluate_backend(&QuantRefBackend::new(qg, acc_input), &ctx.data).global().mean;
        t.row(vec![
            format!("{:.1}%", ratio * 100.0),
            report.channels_removed.to_string(),
            format!("{:.1}", report.macs[1] as f64 * 1e-6),
            report.params[1].to_string(),
            format!("{:.1}", rep.fps),
            format!("{:.2}", rep.watt),
            format!("{:.2}", rep.energy_efficiency()),
            format!("{dsc:.2}"),
        ]);
    }

    let body = format!(
        "{}\nPaper §V lists pruning as future work to \"additionally improve throughput and \
         energy efficiency\". Removed channels leave a narrower model, priced by the same \
         `frame_cost` as every other: a layer pays for whole 16-channel lanes, and a channel \
         count off a multiple of 16 pays the misalignment penalty.\n",
        t.markdown()
    );
    emit(&ctx.out_dir(), "ablation-pruning", &body);
}

/// DPU-configuration ablation: the same SENECA xmodel on the B4096 (the
/// paper's target) vs the smaller B1152 soft-DSA — quantifying how much of
/// the result is the DPU configuration rather than the network.
pub fn run_arch(ctx: &mut ExperimentCtx) {
    let dep = ctx.deployment(ModelSize::M1);
    let input = Shape4::new(1, 1, 256, 256);
    let mut t = Table::new(vec!["DPU config", "peak TOPS", "FPS (4 thr)", "Watt", "EE"]);
    for arch in [DpuArch::b4096_zcu104(), DpuArch::b1152()] {
        let xm = Arc::new(seneca_dpu::compile(&dep.qgraph, input, arch.clone()));
        let rep = DpuRunner::new(xm, RuntimeConfig::default())
            .throughput(ctx.wf.config.throughput_frames, 0xA2C4);
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
