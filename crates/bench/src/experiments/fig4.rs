//! Fig. 4: DSC x Energy-Efficiency product per model (4-thread ZCU104).

use crate::ctx::ExperimentCtx;
use crate::fmt::{emit, Table};
use seneca_nn::unet::ModelSize;

/// Regenerates Fig. 4 (Eq. 7: `DSC_i * EE_i`).
pub fn run(ctx: &mut ExperimentCtx) {
    let frames = ctx.wf.config.throughput_frames;
    let mut t = Table::new(vec!["Model", "DSC (int8)", "EE (4-thr)", "DSC x EE", "Paper DSC x EE"]);
    let paper = [
        ("1M", 0.9304 * 11.81),
        ("2M", 0.9301 * 10.27),
        ("4M", 0.9349 * 9.57),
        ("8M", 0.9365 * 4.57),
        ("16M", 0.9384 * 3.17),
    ];
    let mut ours = Vec::new();
    for (i, size) in ModelSize::ALL.into_iter().enumerate() {
        eprintln!("[fig4] {size} ...");
        let rep = ctx.dpu_runner_256(size, 4).throughput(frames, 0xF164);
        let dsc = ctx.accuracy_int8(size).global().mean / 100.0;
        let prod = dsc * rep.energy_efficiency();
        ours.push(prod);
        t.row(vec![
            size.label().to_string(),
            format!("{:.4}", dsc),
            format!("{:.2}", rep.energy_efficiency()),
            format!("{prod:.2}"),
            format!("{:.2}", paper[i].1),
        ]);
    }
    let improvement_1m_16m = ours[0] / ours[4];
    let improvement_1m_2m = ours[0] / ours[1];
    let body = format!(
        "{}\n1M vs 16M: {improvement_1m_16m:.2}x (paper: 3.7x); 1M vs 2M: \
         {improvement_1m_2m:.2}x (paper: 1.15x).\n",
        t.markdown()
    );
    emit(&ctx.out_dir(), "fig4-dsc-times-ee", &body);
}
