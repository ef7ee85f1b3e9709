//! One module per paper table/figure, plus the ablations.

pub mod ablations;
pub mod boundary;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod mixed;
pub mod profile;
pub mod robustness;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

use crate::ctx::ExperimentCtx;
use seneca::backend::{ThroughputReport, ThroughputStats};

/// All experiment names in run order.
pub const ALL: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "ablation-quant",
    "ablation-prune",
    "ablation-arch",
    "boundary",
    "profile",
    "mixed",
    "robustness",
];

/// Dispatches one experiment by name. Returns false for unknown names.
pub fn run(name: &str, ctx: &mut ExperimentCtx) -> bool {
    match name {
        "table1" => table1::run(ctx),
        "table2" => table2::run(ctx),
        "table3" => table3::run(ctx),
        "table4" => table4::run(ctx),
        "table5" => table5::run(ctx),
        "fig3" => fig3::run(ctx),
        "fig4" => fig4::run(ctx),
        "fig5" => fig5::run(ctx),
        "fig6" => fig6::run(ctx),
        "ablation-quant" => ablations::run_quant(ctx),
        "ablation-prune" => ablations::run_prune(ctx),
        "ablation-arch" => ablations::run_arch(ctx),
        "boundary" => boundary::run(ctx),
        "profile" => profile::run(ctx),
        "mixed" => mixed::run(ctx),
        "robustness" => robustness::run(ctx),
        _ => return false,
    }
    true
}

/// μ±σ over `runs` throughput runs seeded `seed0, seed0 + 1, ...` (the
/// Table IV aggregation).
fn repeated(runs: usize, seed0: u64, run: impl Fn(u64) -> ThroughputReport) -> ThroughputStats {
    ThroughputStats::from_runs((0..runs as u64).map(|r| run(seed0 + r)).collect())
        .expect("at least one run")
}
