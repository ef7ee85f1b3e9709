//! Fig. 3: average energy efficiency per model — GPU baseline vs ZCU104
//! with 1, 2, 4 (and 8, for the §IV-B claim) threads.

use crate::ctx::ExperimentCtx;
use crate::fmt::{emit, Table};
use seneca_nn::unet::ModelSize;

/// Regenerates Fig. 3 as a table plus an ASCII bar chart.
pub fn run(ctx: &mut ExperimentCtx) {
    let frames = ctx.wf.config.throughput_frames;
    let threads_list = [1usize, 2, 4, 8];

    let mut t = Table::new(vec![
        "Model",
        "GPU EE",
        "ZCU104 1-thr",
        "ZCU104 2-thr",
        "ZCU104 4-thr",
        "ZCU104 8-thr",
        "4-thr FPS",
        "8-thr FPS",
    ]);
    let mut chart = String::new();
    let mut max_ee: f64 = 0.0;
    let mut rows = Vec::new();

    for size in ModelSize::ALL {
        eprintln!("[fig3] {size}: thread sweep ...");
        let gee = ctx.gpu_runner_256(size).throughput(frames, 0xF163).energy_efficiency();
        let reps: Vec<_> = threads_list
            .iter()
            .map(|&threads| ctx.dpu_runner_256(size, threads).throughput(frames, 0xF163))
            .collect();
        let ees: Vec<f64> = reps.iter().map(|r| r.energy_efficiency()).collect();
        let fps: Vec<f64> = reps.iter().map(|r| r.fps).collect();
        max_ee = max_ee.max(ees.iter().cloned().fold(gee, f64::max));
        rows.push((size, gee, ees.clone(), fps.clone()));
        t.row(vec![
            size.label().to_string(),
            format!("{gee:.2}"),
            format!("{:.2}", ees[0]),
            format!("{:.2}", ees[1]),
            format!("{:.2}", ees[2]),
            format!("{:.2}", ees[3]),
            format!("{:.1}", fps[2]),
            format!("{:.1}", fps[3]),
        ]);
    }

    // ASCII grouped bars.
    for (size, gee, ees, _) in &rows {
        chart.push_str(&format!("{:>4}\n", size.label()));
        let bar = |label: &str, v: f64| -> String {
            let width = ((v / max_ee) * 50.0).round() as usize;
            format!("  {label:<10} {} {v:.2}\n", "#".repeat(width.max(1)))
        };
        chart.push_str(&bar("GPU", *gee));
        for (i, thr) in [1, 2, 4, 8].iter().enumerate() {
            chart.push_str(&bar(&format!("FPGA {thr}t"), ees[i]));
        }
    }

    let body = format!(
        "{}\nEnergy efficiency in FPS/Watt; the paper sweeps 1/2/4 threads and reports that \
         8+ threads draw more power with no FPS gain (visible in the 8-thr column: FPS flat \
         vs 4-thr, EE lower).\n\n```text\n{chart}```\n",
        t.markdown()
    );
    emit(&ctx.out_dir(), "fig3-energy-efficiency", &body);
}
