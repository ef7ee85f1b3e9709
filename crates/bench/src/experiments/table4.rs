//! Table IV: FPS / Watt / Energy Efficiency / DSC for every model,
//! FP32 on the GPU model vs INT8 on the simulated ZCU104 (4 threads),
//! μ±σ over seeded runs.

use super::repeated;
use crate::ctx::ExperimentCtx;
use crate::fmt::{emit, pm, ratio, Table};
use seneca::backend::Backend;
use seneca::metrics::literature::TABLE4;
use seneca_nn::unet::ModelSize;

/// Regenerates Table IV.
pub fn run(ctx: &mut ExperimentCtx) {
    let frames = ctx.wf.config.throughput_frames;
    let runs = ctx.wf.config.throughput_runs;

    let mut t = Table::new(vec![
        "Cfg",
        "FPS fp32",
        "FPS int8",
        "W fp32",
        "W int8",
        "EE fp32",
        "EE int8",
        "DSC fp32 [%]",
        "DSC int8 [%]",
    ]);
    let mut paper_rows = Table::new(vec![
        "Cfg",
        "FPS fp32",
        "FPS int8",
        "W fp32",
        "W int8",
        "EE fp32",
        "EE int8",
        "DSC fp32 [%]",
        "DSC int8 [%]",
    ]);
    let mut summary = String::new();

    for (i, size) in ModelSize::ALL.into_iter().enumerate() {
        eprintln!("[table4] {size}: throughput ...");
        let (gpu, dpu) = (ctx.gpu_runner_256(size), ctx.dpu_runner_256(size, 4));
        eprintln!("[table4]   {} ...", gpu.name());
        let gstats = repeated(runs, 0xFEED + i as u64, |seed| gpu.throughput(frames, seed));
        eprintln!("[table4]   {} ...", dpu.name());
        let dstats = repeated(runs, 0xBEEF + i as u64, |seed| dpu.throughput(frames, seed));
        let acc_fp32 = ctx.accuracy_fp32(size);
        let acc_int8 = ctx.accuracy_int8(size);
        let d32 = acc_fp32.global();
        let d8 = acc_int8.global();

        t.row(vec![
            size.label().to_string(),
            pm(gstats.fps_mean, gstats.fps_std, 2),
            pm(dstats.fps_mean, dstats.fps_std, 2),
            pm(gstats.watt_mean, gstats.watt_std, 2),
            pm(dstats.watt_mean, dstats.watt_std, 2),
            pm(gstats.ee_mean, gstats.ee_std, 2),
            pm(dstats.ee_mean, dstats.ee_std, 2),
            pm(d32.mean, d32.std, 2),
            pm(d8.mean, d8.std, 2),
        ]);
        let p = &TABLE4[i];
        paper_rows.row(vec![
            p.model.to_string(),
            pm(p.fps_fp32.mean, p.fps_fp32.std, 2),
            pm(p.fps_int8.mean, p.fps_int8.std, 2),
            pm(p.watt_fp32.mean, p.watt_fp32.std, 2),
            pm(p.watt_int8.mean, p.watt_int8.std, 2),
            pm(p.ee_fp32.mean, p.ee_fp32.std, 2),
            pm(p.ee_int8.mean, p.ee_int8.std, 2),
            pm(p.dsc_fp32.mean, p.dsc_fp32.std, 2),
            pm(p.dsc_int8.mean, p.dsc_int8.std, 2),
        ]);
        summary.push_str(&format!(
            "- {size}: FPS speedup {} (paper {}), EE gain {} (paper {})\n",
            ratio(dstats.fps_mean, gstats.fps_mean),
            ratio(p.fps_int8.mean, p.fps_fp32.mean),
            ratio(dstats.ee_mean, gstats.ee_mean),
            ratio(p.ee_int8.mean, p.ee_fp32.mean),
        ));
    }

    let body = format!(
        "Ours ({} frames x {} runs, DPU simulated at 256x256, accuracy at {} px):\n\n{}\n\
         Paper (Table IV):\n\n{}\n{}",
        frames,
        runs,
        ctx.wf.config.input_size,
        t.markdown(),
        paper_rows.markdown(),
        summary
    );
    emit(&ctx.out_dir(), "table4-fps-watt-ee-dsc", &body);
}
