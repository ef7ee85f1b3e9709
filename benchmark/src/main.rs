//! The SENECA stack's one benchmark. See `benchmark/README.md`.
//!
//! `seneca-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints the result line last;
//! `seneca-benchmark compare A.json B.json` compares two result files.

mod bulk;
mod calib;
mod client;
mod compare;
mod fleet;
mod ledger;
mod model;
mod probes;
mod schedule;
mod spans;
mod stats;
mod stream;
mod sys;

use ledger::{Ledger, END_TO_END, PER_LAYER};
use serde_json::json;
use spans::Recorder;
use stats::median;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Stream1mInt8,
    Bulk16mInt8,
    Bulk16mFp32,
    FleetRoiOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Stream1mInt8,
        Workload::Bulk16mInt8,
        Workload::Bulk16mFp32,
        Workload::FleetRoiOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream1mInt8 => "stream-1m-int8",
            Workload::Bulk16mInt8 => "bulk-16m-int8",
            Workload::Bulk16mFp32 => "bulk-16m-fp32",
            Workload::FleetRoiOpen => "fleet-roi-open",
        }
    }

    /// Frame edge at paper geometry; `--quick` runs 64x64 everywhere.
    fn paper_hw(self) -> usize {
        match self {
            Workload::FleetRoiOpen => 64,
            _ => 256,
        }
    }
}

/// What one run was asked to do.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase. A traced run splits it between spans
    /// off and spans on.
    pub seconds: f64,
    pub trace: bool,
    /// Frame edge in pixels.
    pub hw: usize,
    pub nproc: usize,
}

/// What one run found.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub output_checksum: u64,
    pub ledger: Ledger,
    pub recorder: Recorder,
}

/// Set-up runs at least this many times per run, and on until
/// [`SETUP_BUDGET_S`] is spent or [`SETUP_REPEATS_MAX`] is reached; `setup_s`
/// and every set-up step report the median, so that one slow page-fault
/// storm does not set the number. Cheap set-ups (the 1M stream) repeat more.
pub const SETUP_REPEATS_MIN: usize = 3;
pub const SETUP_REPEATS_MAX: usize = 9;
pub const SETUP_BUDGET_S: f64 = 4.0;
/// Machine-speed readings before, and again after, every set-up.
const SETUP_READINGS: usize = 5;

/// Named step times of one set-up, in ms.
pub type Steps = Vec<(&'static str, f64)>;

/// Runs `setup` several times (once in a traced run, which does not report
/// `setup_s`), tearing every instance but the last down again, with
/// machine-speed readings before and after each.
/// Returns the last instance, the median set-up time in seconds at reference
/// machine speed, the per-step medians (as measured), and what the teardowns
/// returned.
pub fn repeat_setup<S, T>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> (S, Steps),
    mut teardown: impl FnMut(S) -> T,
) -> (S, f64, Steps, Vec<T>) {
    let mut setup_s = Vec::new();
    let mut all_steps: Vec<Steps> = Vec::new();
    let mut torn = Vec::new();
    let mut last = None;
    let begun = Instant::now();
    let more = |done: usize| {
        !ctx.trace
            && done < SETUP_REPEATS_MAX
            && (done < SETUP_REPEATS_MIN || begun.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    };
    while setup_s.is_empty() || more(setup_s.len()) {
        if let Some(prev) = last.take() {
            torn.push(teardown(prev));
        }
        let mut calib_ms: Vec<f64> = (0..SETUP_READINGS).map(|_| calib::reading_ms()).collect();
        let t0 = Instant::now();
        let (s, steps) = setup();
        let wall_s = t0.elapsed().as_secs_f64();
        calib_ms.extend((0..SETUP_READINGS).map(|_| calib::reading_ms()));
        setup_s.push(wall_s * calib::speed(&calib_ms));
        all_steps.push(steps);
        last = Some(s);
    }
    let steps = all_steps[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            (*name, median(&all_steps.iter().map(|s| s[i].1).collect::<Vec<_>>()))
        })
        .collect();
    (last.expect("set-up ran at least once"), median(&setup_s), steps, torn)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Append this run's result, as one JSON line, to this file.
    record: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: seneca-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--record FILE]\n\
         \x20      seneca-benchmark compare A.json B.json",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (1u64, None, false, false);
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload '{v}'"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--quick" => quick = true,
            "--record" => record = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(if quick { 3.0 } else { 15.0 });
    Ok(Args { workload, seed, seconds, trace, quick, record })
}

fn run(args: Args) -> ExitCode {
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        hw: if args.quick { 64 } else { args.workload.paper_hw() },
        nproc: sys::nproc(),
    };
    eprintln!(
        "[{}] seed {} seconds {} trace {} frame {}x{} nproc {}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.hw,
        ctx.hw,
        ctx.nproc
    );
    let out = match ctx.workload {
        Workload::Stream1mInt8 => stream::run(&ctx),
        Workload::Bulk16mInt8 | Workload::Bulk16mFp32 => bulk::run(&ctx),
        Workload::FleetRoiOpen => fleet::run(&ctx),
    };

    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut ledger = out.ledger;
    if !ctx.trace {
        // Read last, so everything the run allocated is counted.
        ledger.set("peak_rss_mb", sys::peak_rss_mb());
    } else {
        let path = format!("benchmark/out/trace-{}.json", ctx.workload.name());
        let doc = serde_json::to_string(&out.recorder.to_json(ctx.workload.name()))
            .expect("serialise trace");
        match std::fs::create_dir_all("benchmark/out").and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => eprintln!(
                "[{}] {} spans -> {path}",
                ctx.workload.name(),
                out.recorder.spans().len()
            ),
            Err(e) => eprintln!("[{}] could not write {path}: {e}", ctx.workload.name()),
        }
        println!("self time by span name (traced phase and probes):");
        for (name, t) in out.recorder.self_times() {
            println!(
                "  {name:<28} n={:<6} self {:>12.3} ms  total {:>12.3} ms",
                t.count,
                t.self_ns as f64 * 1e-6,
                t.total_ns as f64 * 1e-6
            );
        }
        println!("self time by layer:");
        for (layer, self_ns) in out.recorder.layer_self_ns() {
            println!("  {layer:<28} self {:>12.3} ms", self_ns as f64 * 1e-6);
        }
    }
    print!("{}", ledger.listing(table));
    println!("output_checksum {:016x}", out.output_checksum);
    println!("attempted {} failed {} correct {}", out.attempted, out.failed, out.correct);
    let metrics = ledger.to_metrics_json(table);
    if let Some(path) = &args.record {
        let line = serde_json::to_string(&json!({
            "workload": ctx.workload.name(),
            "seed": ctx.seed,
            "seconds": ctx.seconds,
            "trace": u64::from(ctx.trace),
            "frame_hw": ctx.hw,
            "correct": out.correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "output_checksum": format!("{:016x}", out.output_checksum),
            "metrics": metrics.clone()
        }))
        .expect("serialise record");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("could not record to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", ledger::result_line(out.correct, out.attempted, out.failed, metrics));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&args) {
        Ok(args) => run(args),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "fleet-roi-open",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::FleetRoiOpen);
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (42, 10.0, true, false));
        assert_eq!(a.record, None);
        let q = parse_args(&strings(&["--workload", "bulk-16m-fp32", "--quick", "--record", "x"]))
            .unwrap();
        assert_eq!((q.seconds, q.trace, q.quick), (3.0, false, true));
        assert_eq!(q.record.as_deref(), Some("x"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "stream-1m-int8", "--trace", "2"],
            &["--workload", "stream-1m-int8", "--seconds", "0"],
            &["--workload", "stream-1m-int8", "--seed"],
            &["--workload", "stream-1m-int8", "--frobnicate"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn repeat_setup_keeps_the_last_instance_and_reports_medians() {
        let mut n = 0.0;
        let mut ctx = Ctx {
            workload: Workload::Stream1mInt8,
            seed: 1,
            seconds: 1.0,
            trace: false,
            hw: 64,
            nproc: 1,
        };
        let (last, wall_s, steps, torn) = repeat_setup(
            &ctx,
            || {
                n += 1.0;
                (n, vec![("nn.build_ms", n * 10.0), ("quant.ptq_ms", 100.0 - n)])
            },
            |s| s * 2.0,
        );
        // An instant set-up repeats until the cap: medians of 1..=9.
        assert_eq!(last, SETUP_REPEATS_MAX as f64);
        assert!(wall_s >= 0.0);
        assert_eq!(steps, vec![("nn.build_ms", 50.0), ("quant.ptq_ms", 95.0)]);
        assert_eq!(torn, (1..SETUP_REPEATS_MAX).map(|i| i as f64 * 2.0).collect::<Vec<_>>());
        // One that uses the budget up stops at the minimum.
        let (_, _, _, torn) = repeat_setup(
            &ctx,
            || {
                std::thread::sleep(std::time::Duration::from_secs_f64(SETUP_BUDGET_S / 2.0));
                ((), vec![])
            },
            |_| (),
        );
        assert_eq!(torn.len() + 1, SETUP_REPEATS_MIN);
        ctx.trace = true;
        let (last, _, _, torn) = repeat_setup(&ctx, || ("once", vec![]), |_| ());
        assert_eq!((last, torn.len()), ("once", 0));
    }
}
