//! Table V: SENECA (1M INT8, 4 threads) vs its GPU counterpart vs the
//! CT-ORG 3D U-Net [17] — FPS, EE, global and per-organ DSC, plus the
//! global TPR/TNR discussed in §IV-D.

use super::repeated;
use crate::ctx::ExperimentCtx;
use crate::fmt::{emit, pm, Table};
use seneca::metrics::literature::{ct_org_unet3d, seneca_fpga};
use seneca_data::volume::Organ;
use seneca_nn::unet::ModelSize;

/// Regenerates Table V.
pub fn run(ctx: &mut ExperimentCtx) {
    let size = ModelSize::M1; // "from now on, this model will be referred to as SENECA"
    let frames = ctx.wf.config.throughput_frames;
    let runs = ctx.wf.config.throughput_runs;

    eprintln!("[table5] throughput ...");
    let (gpu, dpu) = (ctx.gpu_runner_256(size), ctx.dpu_runner_256(size, 4));
    let gstats = repeated(runs, 0x7AB6, |seed| gpu.throughput(frames, seed));
    let dstats = repeated(runs, 0x7AB5, |seed| dpu.throughput(frames, seed));
    let int8 = ctx.accuracy_int8(size);
    let fp32 = ctx.accuracy_fp32(size);

    let mut t =
        Table::new(vec!["Metric", "FPGA (ours)", "GPU (ours)", "FPGA (paper)", "CT-ORG [17]"]);
    t.row(vec![
        "FPS".to_string(),
        pm(dstats.fps_mean, dstats.fps_std, 1),
        pm(gstats.fps_mean, gstats.fps_std, 2),
        "335.4 ± 0.34".to_string(),
        format!("[{:.0}-{:.0}]", ct_org_unet3d::FPS_RANGE.0, ct_org_unet3d::FPS_RANGE.1),
    ]);
    t.row(vec![
        "Energy Efficiency".to_string(),
        pm(dstats.ee_mean, dstats.ee_std, 2),
        pm(gstats.ee_mean, gstats.ee_std, 2),
        "11.81 ± 0.02".to_string(),
        "n/a".to_string(),
    ]);
    let g8 = int8.global();
    let g32 = fp32.global();
    t.row(vec![
        "Global DSC".to_string(),
        pm(g8.mean, g8.std, 2),
        pm(g32.mean, g32.std, 2),
        pm(seneca_fpga::GLOBAL.mean, seneca_fpga::GLOBAL.std, 2),
        pm(ct_org_unet3d::GLOBAL.mean, ct_org_unet3d::GLOBAL.std, 2),
    ]);
    let lit = [
        (Organ::Liver, seneca_fpga::LIVER, ct_org_unet3d::LIVER),
        (Organ::Bladder, seneca_fpga::BLADDER, ct_org_unet3d::BLADDER),
        (Organ::Lungs, seneca_fpga::LUNGS, ct_org_unet3d::LUNGS),
        (Organ::Kidneys, seneca_fpga::KIDNEYS, ct_org_unet3d::KIDNEYS),
        (Organ::Bones, seneca_fpga::BONES, ct_org_unet3d::BONES),
    ];
    for (organ, paper_fpga, paper_ctorg) in lit {
        let o8 = int8.organ(organ);
        let o32 = fp32.organ(organ);
        t.row(vec![
            format!("{organ} DSC"),
            pm(o8.mean, o8.std, 2),
            pm(o32.mean, o32.std, 2),
            pm(paper_fpga.mean, paper_fpga.std, 2),
            pm(paper_ctorg.mean, paper_ctorg.std, 2),
        ]);
    }
    let tpr = int8.global_tpr();
    let tnr = int8.global_tnr();
    t.row(vec![
        "Global TPR".to_string(),
        pm(tpr.mean, tpr.std, 2),
        "-".to_string(),
        pm(seneca_fpga::GLOBAL_TPR.mean, seneca_fpga::GLOBAL_TPR.std, 2),
        "n/a".to_string(),
    ]);
    t.row(vec![
        "Global TNR".to_string(),
        pm(tnr.mean, tnr.std, 2),
        "-".to_string(),
        pm(seneca_fpga::GLOBAL_TNR.mean, seneca_fpga::GLOBAL_TNR.std, 2),
        "n/a".to_string(),
    ]);

    emit(&ctx.out_dir(), "table5-seneca-vs-baselines", &t.markdown());
}
