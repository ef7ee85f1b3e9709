//! `reproduce` — regenerates every table and figure of the SENECA paper.
//!
//! ```text
//! reproduce <experiment>... [--scale fast|reduced|paper]
//! reproduce all [--scale reduced]
//! reproduce list
//! ```
//!
//! Experiments: table1 table2 table3 table4 table5 fig3 fig4 fig5 fig6
//! ablation-quant ablation-prune ablation-arch boundary profile mixed
//! robustness.
//! Markdown output lands in `$SENECA_ARTIFACTS/experiments/` (default
//! `target/seneca-artifacts`); `profile` also writes `BENCH_profile.json`
//! (measured per-op trace tables),
//! `mixed` writes `BENCH_mixed.json` (per-layer W4/W8 sensitivity + greedy
//! cost-aware bitwidth search), and `robustness` writes
//! `BENCH_robustness.json` (pathology + dose/thickness/FOV scenario grid,
//! FP32 vs INT8 vs mixed W4/W8).

#![deny(unsafe_code)]

use seneca_bench::experiments;
use seneca_bench::{ExperimentCtx, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: reproduce <experiment>... [--scale fast|reduced|paper]\n\
         experiments: {} | all | list",
        experiments::ALL.join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    let mut scale = Scale::Reduced;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                scale = Scale::parse(&v).unwrap_or_else(|| usage());
            }
            "list" => {
                for e in experiments::ALL {
                    println!("{e}");
                }
                return;
            }
            "all" => wanted.extend(experiments::ALL.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => usage(),
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        usage();
    }
    for w in &wanted {
        if !experiments::ALL.contains(&w.as_str()) {
            eprintln!("unknown experiment: {w}");
            usage();
        }
    }

    eprintln!("[reproduce] scale: {scale:?}; experiments: {}", wanted.join(", "));
    let t0 = std::time::Instant::now();
    let mut ctx = ExperimentCtx::new(scale);
    for w in &wanted {
        let te = std::time::Instant::now();
        assert!(experiments::run(w, &mut ctx), "dispatch checked above");
        eprintln!("[reproduce] {w} done in {:.1}s", te.elapsed().as_secs_f64());
    }
    eprintln!(
        "[reproduce] all done in {:.1}s; artifacts in {}",
        t0.elapsed().as_secs_f64(),
        ctx.out_dir().display()
    );
}
