//! `compare A B`: two result files, one verdict per (workload, end-to-end
//! metric), by the bounds of the metric table.
//!
//! A result file is JSON Lines as `run.sh` records them: one object per run
//! with `workload`, `trace`, `attempted`, `failed` and `metrics`; other lines
//! (the machine header) are skipped. A file may hold several runs of a
//! workload (several seeds); medians are compared, and the spread between a
//! side's own runs decides whether a difference can be told at all.

use crate::ledger::{Better, MetricDef, END_TO_END};
use crate::stats::{interquartile_range, median};
use crate::Workload;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// End-to-end runs of one result file.
#[derive(Debug, Default)]
pub struct Results {
    /// `(workload, metric)` -> one value per run.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// workload -> (attempted, failed) summed over its runs.
    frames: BTreeMap<String, (u64, u64)>,
}

impl Results {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = Results::default();
        for (no, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e:?}", no + 1))?;
            let (Some(workload), Some(0)) =
                (v.get("workload").and_then(Value::as_str), v.get("trace").and_then(Value::as_u64))
            else {
                continue; // header line, or a per-layer run
            };
            let field = |k: &str| {
                v.get(k).and_then(Value::as_u64).ok_or(format!("line {}: no '{k}'", no + 1))
            };
            let frames = out.frames.entry(workload.to_string()).or_default();
            frames.0 += field("attempted")?;
            frames.1 += field("failed")?;
            let metrics = v
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or(format!("line {}: no 'metrics'", no + 1))?;
            for (name, m) in metrics {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    out.values.entry((workload.to_string(), name.clone())).or_default().push(x);
                }
            }
        }
        Ok(out)
    }

    fn failed_share(&self, workload: &str) -> Option<f64> {
        self.frames.get(workload).map(|&(a, f)| f as f64 / a.max(1) as f64)
    }
}

/// Spread between a side's own runs: the interquartile range from four runs
/// up, the full range for two or three, nothing to go on for one.
fn spread(values: &[f64]) -> f64 {
    match values.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            values.iter().copied().fold(f64::MIN, f64::max)
                - values.iter().copied().fold(f64::MAX, f64::min)
        }
        _ => interquartile_range(values).unwrap_or(0.0),
    }
}

/// The verdict on `b` against baseline `a` for one metric.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    if !(ma.is_finite() && mb.is_finite()) || ma == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the baseline median.
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let every_b_beats_every_a = a.len() > 1
        && b.len() > 1
        && match def.better {
            Better::Lower => {
                b.iter().copied().fold(f64::MIN, f64::max)
                    < a.iter().copied().fold(f64::MAX, f64::min)
            }
            Better::Higher => {
                b.iter().copied().fold(f64::MAX, f64::min)
                    > a.iter().copied().fold(f64::MIN, f64::max)
            }
        };
    if spread(a).max(spread(b)) / ma.abs() > def.bound && !every_b_beats_every_a {
        return Verdict::Unresolved;
    }
    if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Prints the table; `true` when nothing got worse.
pub fn report(a: &Results, b: &Results) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for w in Workload::ALL {
        for def in END_TO_END {
            let key = (w.name().to_string(), def.name.to_string());
            let empty = Vec::new();
            let (va, vb) =
                (a.values.get(&key).unwrap_or(&empty), b.values.get(&key).unwrap_or(&empty));
            let v = verdict(def, va, vb);
            ok &= v != Verdict::Worse;
            let (ma, mb) = (median(va), median(vb));
            let change = if ma != 0.0 { (mb - ma) / ma.abs() * 100.0 } else { 0.0 };
            println!(
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
                w.name(),
                def.name,
                ma,
                mb,
                change,
                def.bound * 100.0,
                v.as_str()
            );
        }
        if let (Some(fa), Some(fb)) = (a.failed_share(w.name()), b.failed_share(w.name())) {
            let higher = fb > fa;
            ok &= !higher;
            println!(
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
                w.name(),
                "failed_share",
                fa,
                fb,
                "",
                "",
                if higher { "worse (more frames failed)" } else { "not higher" }
            );
        }
    }
    ok
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")).and_then(|t| Results::parse(&t))
    };
    match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => {
            if report(&a, &b) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rate and a time with a bound of a tenth, whatever the table says.
    fn def(name: &'static str) -> &'static MetricDef {
        const FPS: MetricDef =
            MetricDef { name: "frames_per_s", unit: "1/s", better: Better::Higher, bound: 0.1 };
        const LAT: MetricDef =
            MetricDef { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.1 };
        match name {
            "frames_per_s" => &FPS,
            _ => &LAT,
        }
    }

    #[test]
    fn single_runs_compare_by_the_bound() {
        let fps = def("frames_per_s"); // higher is better
        assert_eq!(verdict(fps, &[10.0], &[10.5]), Verdict::WithinBound);
        assert_eq!(verdict(fps, &[10.0], &[8.5]), Verdict::Worse);
        assert_eq!(verdict(fps, &[10.0], &[12.0]), Verdict::Better);
        let lat = def("latency_p50_ms"); // lower is better
        assert_eq!(verdict(lat, &[100.0], &[120.0]), Verdict::Worse);
        assert_eq!(verdict(lat, &[100.0], &[80.0]), Verdict::Better);
        assert_eq!(verdict(lat, &[100.0], &[]), Verdict::Unresolved);
        assert_eq!(verdict(lat, &[0.0], &[1.0]), Verdict::Unresolved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let lat = def("latency_p50_ms");
        let noisy = [80.0, 100.0, 120.0, 140.0, 90.0];
        assert_eq!(verdict(lat, &noisy, &[95.0, 130.0, 85.0, 110.0]), Verdict::Unresolved);
        // Every B run is faster than every A run: resolved despite the spread.
        assert_eq!(verdict(lat, &noisy, &[50.0, 60.0, 70.0, 55.0]), Verdict::Better);
        let steady = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(verdict(lat, &steady, &[100.2, 99.8, 100.9, 100.1]), Verdict::WithinBound);
    }

    #[test]
    fn result_files_parse_and_skip_header_and_traced_lines() {
        let text = concat!(
            "{\"machine\":{\"nproc\":2},\"commit\":\"abc\"}\n",
            "{\"workload\":\"stream-1m-int8\",\"seed\":1,\"trace\":0,\"correct\":true,\"attempted\":50,\"failed\":0,",
            "\"metrics\":{\"frames_per_s\":{\"value\":7.5,\"unit\":\"1/s\"}}}\n",
            "{\"workload\":\"stream-1m-int8\",\"seed\":2,\"trace\":0,\"correct\":true,\"attempted\":50,\"failed\":1,",
            "\"metrics\":{\"frames_per_s\":{\"value\":8.5,\"unit\":\"1/s\"}}}\n",
            "{\"workload\":\"stream-1m-int8\",\"seed\":1,\"trace\":1,\"correct\":true,\"attempted\":9,\"failed\":0,",
            "\"metrics\":{\"serve.batches\":{\"value\":3,\"unit\":\"count\"}}}\n",
        );
        let r = Results::parse(text).unwrap();
        let key = ("stream-1m-int8".to_string(), "frames_per_s".to_string());
        assert_eq!(r.values[&key], vec![7.5, 8.5]);
        assert_eq!(r.values.len(), 1);
        assert_eq!(r.failed_share("stream-1m-int8"), Some(0.01));
        assert!(Results::parse("{not json").is_err());
    }

    #[test]
    fn report_fails_on_a_worse_metric_and_on_more_failures() {
        let line = |fps: f64, failed: u64| {
            format!(
                "{{\"workload\":\"bulk-16m-int8\",\"trace\":0,\"attempted\":100,\"failed\":{failed},\
                 \"metrics\":{{\"frames_per_s\":{{\"value\":{fps},\"unit\":\"1/s\"}}}}}}"
            )
        };
        let base = Results::parse(&line(2.0, 0)).unwrap();
        assert!(report(&base, &Results::parse(&line(2.05, 0)).unwrap()));
        assert!(!report(&base, &Results::parse(&line(1.0, 0)).unwrap()));
        assert!(!report(&base, &Results::parse(&line(2.0, 3)).unwrap()));
    }
}
