//! The metric tables and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names a run may report; they mirror
//! `BENCHMARK.json` (a unit test compares the two). A run fills a [`Ledger`]
//! and prints every name of the table its `--trace` flag selects; a
//! per-layer name that does not apply on a workload reads 0.

use serde_json::{json, Value};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: 0.0 }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: 0.0 }
}

/// What a user of the system sees. The same metrics on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("frames_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("slo_met_share", "share", Better::Higher, 0.05),
    e2e("cpu_s_per_frame", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
    e2e("dpu_sim_fps", "1/s", Better::Higher, 0.001),
    e2e("dpu_sim_fps_per_w", "1/J", Better::Higher, 0.001),
];

/// Single layers, named `<crate>.<what>`. No bounds: they explain a move of
/// an end-to-end metric, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    // client: the benchmark's own generator (diagnostics).
    lo("client.calib_ms", "ms"),
    lo("client.latency_p50_ms", "ms"),
    lo("client.latency_p90_ms", "ms"),
    lo("client.latency_max_ms", "ms"),
    lo("client.lateness_p90_ms", "ms"),
    hi("client.sent", "count"),
    hi("client.ok", "count"),
    lo("client.refused", "count"),
    lo("client.failed", "count"),
    lo("client.late", "count"),
    lo("client.failed_share", "share"),
    lo("client.trace_overhead_share", "share"),
    // fleet (fleet-roi-open only).
    lo("fleet.start_ms", "ms"),
    lo("fleet.shutdown_ms", "ms"),
    lo("fleet.submit_p50_us", "us"),
    lo("fleet.interactive_p50_ms", "ms"),
    lo("fleet.batch_p50_ms", "ms"),
    lo("fleet.downgraded_share", "share"),
    lo("fleet.batch_shed_share", "share"),
    hi("fleet.routed_share.1M", "share"),
    hi("fleet.routed_share.2M", "share"),
    hi("fleet.routed_share.4M", "share"),
    hi("fleet.routed_share.8M", "share"),
    hi("fleet.routed_share.16M", "share"),
    lo("fleet.counters_unbalanced", "count"),
    hi("fleet.overload.goodput_fps", "1/s"),
    lo("fleet.overload.interactive_p50_ms", "ms"),
    hi("fleet.overload.interactive_slo_met_share", "share"),
    lo("fleet.overload.batch_refused_share", "share"),
    // serve (stream-1m-int8, fleet-roi-open).
    lo("serve.start_ms", "ms"),
    lo("serve.shutdown_ms", "ms"),
    lo("serve.submit_p50_us", "us"),
    lo("serve.queue_p50_ms", "ms"),
    lo("serve.queue_p90_ms", "ms"),
    lo("serve.execute_p50_ms", "ms"),
    lo("serve.reply_p50_ms", "ms"),
    hi("serve.mean_batch", "count"),
    hi("serve.batches", "count"),
    lo("serve.rejected", "count"),
    lo("serve.shed_expired", "count"),
    // backend.
    lo("backend.warmup_ms", "ms"),
    lo("backend.infer_batch1_ms", "ms"),
    lo("backend.session_overhead_ms", "ms"),
    lo("backend.argmax_ms", "ms"),
    hi("backend.batch_scaling", "ratio"),
    // quant.
    lo("quant.ptq_ms", "ms"),
    lo("quant.quantize_input_ms", "ms"),
    lo("quant.weight_bytes", "B"),
    // ir.
    lo("ir.lower_ms", "ms"),
    lo("ir.scratch_alloc_ms", "ms"),
    lo("ir.execute_ms", "ms"),
    lo("ir.conv_ms", "ms"),
    lo("ir.tconv_ms", "ms"),
    lo("ir.pool_ms", "ms"),
    lo("ir.concat_ms", "ms"),
    lo("ir.other_ms", "ms"),
    hi("ir.conv_gmacs.hw256", "GMAC/s"),
    hi("ir.conv_gmacs.hw128", "GMAC/s"),
    hi("ir.conv_gmacs.hw64", "GMAC/s"),
    hi("ir.conv_gmacs.hw32", "GMAC/s"),
    hi("ir.conv_gmacs.hw16", "GMAC/s"),
    hi("ir.conv_gmacs.hw8", "GMAC/s"),
    lo("ir.step_over_execute", "ratio"),
    lo("ir.nodes", "count"),
    lo("ir.macs_per_frame", "MAC"),
    lo("ir.peak_arena_bytes", "B"),
    lo("ir.packed_weight_bytes", "B"),
    lo("ir.activation_bytes_per_frame", "B"),
    // tensor: both dtypes on every workload, so the i8/f32 ratio sits on one line.
    hi("tensor.igemm_conv_gmacs.big", "GMAC/s"),
    hi("tensor.igemm_conv_gmacs.small", "GMAC/s"),
    hi("tensor.sgemm_conv_gflops.big", "GFLOP/s"),
    hi("tensor.sgemm_conv_gflops.small", "GFLOP/s"),
    hi("tensor.igemm4_conv_gmacs.big", "GMAC/s"),
    lo("tensor.pack_a_ms.big", "ms"),
    // nn.
    lo("nn.build_ms", "ms"),
    // dpu / hwsim / gpu: simulated values are exact; host-side ones are not.
    lo("dpu.compile_ms", "ms"),
    lo("dpu.instrs", "count"),
    lo("dpu.sim_frame_ns", "ns"),
    lo("dpu.sim_compute_ns", "ns"),
    lo("dpu.sim_mem_ns", "ns"),
    lo("dpu.sim_overhead_ns", "ns"),
    lo("dpu.sim_memory_bound_layers", "count"),
    lo("dpu.sim_watt", "W"),
    hi("dpu.sim_util", "share"),
    hi("dpu.sim_fps.t1", "1/s"),
    hi("dpu.sim_fps.t2", "1/s"),
    hi("dpu.sim_fps.t8", "1/s"),
    lo("dpu.sim_host_ms", "ms"),
    hi("gpu.sim_fps", "1/s"),
    hi("gpu.sim_fps_per_w", "1/J"),
];

/// Named values of one run.
#[derive(Debug, Default, Clone)]
pub struct Ledger(BTreeMap<String, f64>);

impl Ledger {
    /// Sets one metric. A name in neither table is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric '{name}' is in no table"
        );
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": u}}` for every metric of `table`;
    /// a missing value reads 0 (not applicable on this workload).
    pub fn to_metrics_json(&self, table: &[MetricDef]) -> Value {
        Value::Object(
            table
                .iter()
                .map(|d| {
                    let v = self.get(d.name).unwrap_or(0.0);
                    assert!(v.is_finite(), "metric '{}' is not finite: {v}", d.name);
                    (d.name.to_string(), json!({ "value": v, "unit": d.unit }))
                })
                .collect(),
        )
    }

    /// Human-readable listing, one `name value unit` per line.
    pub fn listing(&self, table: &[MetricDef]) -> String {
        let width = table.iter().map(|d| d.name.len()).max().unwrap_or(0);
        table
            .iter()
            .map(|d| {
                format!(
                    "{:<width$}  {:>16.6} {}\n",
                    d.name,
                    self.get(d.name).unwrap_or(0.0),
                    d.unit
                )
            })
            .collect()
    }
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    assert!(attempted >= 1, "a run attempts at least one frame");
    serde_json::to_string(&json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics
    }))
    .expect("serialise result line")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_schema_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name, 64), "name '{}'", d.name);
            assert!(valid_unit(d.unit), "unit '{}' of '{}'", d.unit, d.name);
            assert!(seen.insert(d.name), "'{}' is listed twice", d.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_every_metric_a_unit() {
        let mut ledger = Ledger::default();
        ledger.set("setup_s", 1.25);
        ledger.set("frames_per_s", 7.5);
        let line = result_line(true, 10, 0, ledger.to_metrics_json(END_TO_END));
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(10));
        let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, m), d) in metrics.iter().zip(END_TO_END) {
            assert_eq!(name, d.name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
            assert!(m.get("value").and_then(Value::as_f64).is_some());
        }
        assert_eq!(metrics[0].1.get("value").and_then(Value::as_f64), Some(1.25));
    }

    #[test]
    #[should_panic(expected = "is in no table")]
    fn unknown_metric_names_are_refused() {
        Ledger::default().set("client.typo", 1.0);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must say the same thing.
    #[test]
    fn tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let v: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let check = |key: &str, table: &[MetricDef], bounded: bool| {
            let list = v.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(list.len(), table.len(), "{key} length");
            for (m, d) in list.iter().zip(table) {
                assert_eq!(m.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit), "{}", d.name);
                assert_eq!(
                    m.get("better").and_then(Value::as_str),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                let bound = m.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, bounded.then_some(d.bound), "{}", d.name);
                assert_eq!(m.as_object().unwrap().len(), if bounded { 4 } else { 3 });
            }
        };
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);

        let workloads = v.get("workloads").and_then(Value::as_array).unwrap();
        let names: Vec<&str> =
            workloads.iter().map(|w| w.get("name").and_then(Value::as_str).unwrap()).collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        for w in workloads {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
            assert!(valid_name(w.get("name").and_then(Value::as_str).unwrap(), 64));
        }
        let run_seconds = v.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&run_seconds));
    }
}
