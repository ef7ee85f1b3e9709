//! The exact inference gate: compares the last `benchmark/run.sh` run in a
//! result file against the committed baseline and fails on any difference in
//! a value that only moves when a change means it to — every output checksum
//! and the exact fields of the ledger.
//!
//! ```text
//! exact_gate [RESULTS] [BASELINE]          check; exit 1 on any difference
//! exact_gate --write [RESULTS] [BASELINE]  record the baseline from RESULTS
//! ```
//!
//! `RESULTS` defaults to `benchmark/out/result-seed1.jsonl` (what
//! `run.sh --quick` writes), `BASELINE` to `scripts/exact_baseline.json`.
//! `run.sh` appends, so the last run is the records after the last header
//! line. A change that moves these values on purpose re-records the baseline
//! with `--write` and says so.

#![deny(unsafe_code)]

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Ledger metrics compared exactly; a record carries the ones its trace mode
/// measures.
const EXACT: [&str; 9] = [
    "ir.nodes",
    "ir.macs_per_frame",
    "ir.peak_arena_bytes",
    "ir.packed_weight_bytes",
    "quant.weight_bytes",
    "dpu.instrs",
    "dpu_sim_fps",
    "dpu_sim_fps_per_w",
    "fleet.counters_unbalanced",
];

/// The exact fields of the last run in `text`, keyed
/// `"<workload>/trace<N>/<field>"`, plus the header's `seed` and `quick`.
fn last_run(text: &str) -> Result<BTreeMap<String, Value>, String> {
    let lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(no, l)| {
            serde_json::from_str::<Value>(l).map_err(|e| format!("line {}: {e:?}", no + 1))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let start = lines
        .iter()
        .rposition(|v| v.get("machine").is_some())
        .ok_or("no header line in results")?;
    let mut out = BTreeMap::new();
    for key in ["seed", "quick"] {
        out.insert(key.to_string(), lines[start].get(key).cloned().unwrap_or(Value::Null));
    }
    for rec in &lines[start + 1..] {
        let (Some(workload), Some(trace)) =
            (rec.get("workload").and_then(Value::as_str), rec.get("trace").and_then(Value::as_u64))
        else {
            return Err(format!("record without workload/trace: {rec:?}"));
        };
        let prefix = format!("{workload}/trace{trace}");
        let checksum = rec.get("output_checksum").cloned().unwrap_or(Value::Null);
        out.insert(format!("{prefix}/output_checksum"), checksum);
        for name in EXACT {
            if let Some(v) =
                rec.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value"))
            {
                out.insert(format!("{prefix}/{name}"), v.clone());
            }
        }
    }
    Ok(out)
}

/// One `"key": value` per line, so that a re-recorded baseline diffs by field.
fn render(fields: &BTreeMap<String, Value>) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            let v = serde_json::to_string(v).expect("serialise value");
            format!("  {}: {v}", serde_json::to_string(k).expect("serialise key"))
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

fn run(args: &[String]) -> Result<bool, String> {
    let write = args.first().is_some_and(|a| a == "--write");
    let paths = &args[usize::from(write)..];
    let results = paths.first().map_or("benchmark/out/result-seed1.jsonl", String::as_str);
    let baseline = paths.get(1).map_or("scripts/exact_baseline.json", String::as_str);
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));

    let got = last_run(&read(results)?)?;
    if write {
        std::fs::write(baseline, render(&got)).map_err(|e| format!("{baseline}: {e}"))?;
        println!("exact gate: recorded {} fields to {baseline}", got.len());
        return Ok(true);
    }
    let want: BTreeMap<String, Value> = match serde_json::from_str(&read(baseline)?) {
        Ok(Value::Object(fields)) => fields.into_iter().collect(),
        other => return Err(format!("{baseline}: not a JSON object ({other:?})")),
    };
    let mut same = true;
    for key in want.keys().chain(got.keys().filter(|k| !want.contains_key(*k))) {
        let (w, g) = (want.get(key), got.get(key));
        if w != g {
            same = false;
            let show = |v: Option<&Value>| {
                v.map_or("missing".to_string(), |v| serde_json::to_string(v).expect("serialise"))
            };
            println!("exact gate: {key}: baseline {} != run {}", show(w), show(g));
        }
    }
    if same {
        println!("exact gate: {} fields of {results} match {baseline}", want.len());
    }
    Ok(same)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("exact gate: {e}");
            ExitCode::from(2)
        }
    }
}
