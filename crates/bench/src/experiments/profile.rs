//! Measured cross-stack profile: where a frame's wall clock actually goes,
//! per op and per session stage, on every inference path — from the
//! `seneca-trace` recorder rather than the analytical device models.
//!
//! For each model size the experiment runs the two device runners (GPU
//! baseline, DPU runtime) over a small batch with tracing enabled and emits
//! the aggregated span tables. Their functional paths are the host FP32 and
//! INT8 executors, so each program is measured once. Both run
//! single-threaded so per-op attribution is unambiguous: the summed op
//! spans of a domain can never exceed the batch wall clock, and the harness
//! asserts exactly that (the CI smoke property).
//!
//! The INT8 section also cross-checks the *measured* per-op time shares
//! against the *modeled* shares from the compiled xmodel's `FrameProfile`.
//! The divergence is reported, not asserted: the model prices a 4096-MAC
//! array with DMA overlap, the host runs im2col GEMMs, so the shares are
//! expected to disagree — the table quantifies by how much.

use crate::ctx::ExperimentCtx;
use crate::fmt::{emit, Table};
use seneca::backend::{Backend, QuantRefBackend};
use seneca_dpu::xmodel::XModel;
use seneca_ir::DType;
use seneca_nn::unet::ModelSize;
use seneca_serve::{run_load, LoadSpec, ServeConfig, Server};
use seneca_tensor::{Shape4, Tensor};
use seneca_trace::TraceReport;
use serde::Serialize;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model sizes profiled: the SENECA model and the largest Table II family
/// member, bounding the family from both ends.
const SIZES: [ModelSize; 2] = [ModelSize::M1, ModelSize::M16];

/// Frames per model for the paper-geometry (256 px) INT8 section. The host
/// executor needs hundreds of ms per 16M frame at this size, so a small
/// count keeps the CI smoke cheap while still amortising the warm-up.
const PAPER_FRAMES: usize = 2;

/// Ops participating in the paper-scale measured-vs-modeled band: anything
/// at or above this share on either side. Tiny ops (qconcat at a fraction
/// of a percent) are noise-dominated and excluded from the gate.
const BAND_SHARE_FLOOR: f64 = 0.05;

/// Maximum |measured − modeled| per-op share divergence tolerated at the
/// paper geometry, in share points (0.25 = 25 pp). The band is deliberately
/// loose: the model prices a 4096-MAC array with DMA overlap while the host
/// runs implicit-GEMM convolutions, so shares agree only in their broad
/// structure (conv-dominated, pool/concat marginal) — see EXPERIMENTS.md.
const BAND_MAX_DELTA: f64 = 0.25;

/// Deterministic frame (same ramp as the throughput harness).
fn frame(shape: Shape4) -> Tensor {
    let data = (0..shape.len()).map(|i| ((i * 37) % 255) as f32 / 127.0 - 1.0).collect();
    Tensor::from_vec(shape, data)
}

/// The op-span domain a runner's executor records into.
fn op_domain(backend_name: &str) -> &'static str {
    if backend_name.starts_with("dpu/") {
        "int8-op"
    } else {
        "fp32-op"
    }
}

/// One traced run of a backend: batch wall clock plus the drained report.
fn traced_run(backend: &dyn Backend, batch: &[Tensor]) -> (u64, TraceReport) {
    backend.infer_batch(&batch[..1]); // warm-up outside the trace window
    seneca_trace::reset();
    seneca_trace::set_enabled(true);
    let t0 = Instant::now();
    backend.infer_batch(batch);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    seneca_trace::set_enabled(false);
    (wall_ns, seneca_trace::report())
}

/// Modeled per-mnemonic time (ns) from the compiled xmodel's frame profile:
/// each layer is priced at its bounding engine plus dispatch overhead, keyed
/// back to the quantized-graph op it implements.
fn modeled_op_ns(xm: &XModel) -> BTreeMap<&'static str, u64> {
    let fp = seneca_dpu::profile::profile(xm, &xm.arch);
    let mut by_op: BTreeMap<&'static str, u64> = BTreeMap::new();
    for l in &fp.layers {
        let Some(node) = xm.instrs[l.instr_index].node() else { continue };
        let mnemonic = xm.qgraph.module().nodes[node].op.mnemonic(DType::I8);
        *by_op.entry(mnemonic).or_default() += l.compute_ns.max(l.mem_ns) + l.overhead_ns;
    }
    by_op
}

/// Per-frame GEMM pack-vs-kernel time split of the INT8 lowering: runs
/// `frames` frames through a reused scratch arena with only the `gemm`
/// domain spans in the window. Compiled only with the `trace-gemm` feature,
/// which makes the GEMM engine price its pack and kernel sections.
#[cfg(feature = "trace-gemm")]
fn gemm_pack_split(qg: &seneca_quant::QuantizedGraph, shape: Shape4, frames: usize) -> (u64, u64) {
    let lowered = seneca_ir::lower(qg.to_ir(), shape, &seneca_ir::LowerOptions::reference());
    let mut scratch = lowered.make_scratch_i8();
    let q = qg.quantize_input(&frame(shape));
    let _ = lowered.execute_i8_into(&q, &mut scratch); // warm-up outside the window
    seneca_trace::reset();
    seneca_trace::set_enabled(true);
    for _ in 0..frames {
        let _ = lowered.execute_i8_into(&q, &mut scratch);
    }
    seneca_trace::set_enabled(false);
    let rep = seneca_trace::report();
    let pack = rep.get("gemm", "pack").map_or(0, |r| r.total_ns);
    let kernel = rep.get("gemm", "kernel").map_or(0, |r| r.total_ns);
    (pack, kernel)
}

/// Regenerates the measured cross-stack profile (`profile.md` +
/// `BENCH_profile.json`).
pub fn run(ctx: &mut ExperimentCtx) {
    let frames = ctx.wf.config.throughput_frames.clamp(2, 8);
    let mut body = String::new();
    let mut json_models: Vec<Value> = Vec::new();

    for size in SIZES {
        let dep = ctx.deployment(size);
        let shape = dep.gpu_runner.input_shape;
        let batch: Vec<Tensor> = (0..frames).map(|_| frame(shape)).collect();

        // Both runners on one thread (the GPU baseline always is): with one
        // worker the op spans nest strictly inside the batch wall clock, so
        // coverage (op time / wall) is a meaningful fraction in [0, 1].
        let mut dpu = dep.dpu_runner.clone();
        dpu.config.threads = 1;
        let backends: Vec<Box<dyn Backend>> = vec![Box::new(dep.gpu_runner.clone()), Box::new(dpu)];

        let mut summary = Table::new(vec![
            "Backend",
            "Wall ms",
            "Op domain",
            "Op total ms",
            "Coverage %",
            "Hottest op",
            "Share %",
        ]);
        let mut json_backends: Vec<Value> = Vec::new();
        let mut dpu_report: Option<TraceReport> = None;
        let mut detail = String::new();

        for backend in &backends {
            let name = backend.name();
            eprintln!("[profile] {size}: tracing {name} over {frames} frames ...");
            let (wall_ns, rep) = traced_run(backend.as_ref(), &batch);

            // The CI smoke property: the tracer saw the run, and measured
            // op time on a single-threaded backend fits inside the wall.
            assert!(!rep.rows.is_empty(), "tracer recorded nothing for {name}");
            let dom = op_domain(&name);
            let op_ns = rep.domain_total_ns(dom);
            assert!(op_ns > 0, "no `{dom}` spans recorded for {name}");
            assert!(
                op_ns <= wall_ns,
                "{name}: op total {op_ns} ns exceeds wall {wall_ns} ns on one thread"
            );

            let hottest = rep.domain_rows(dom).first().map(|r| (r.name.clone(), r.total_ns));
            let (hot_name, hot_ns) = hottest.unwrap_or(("-".into(), 0));
            summary.row(vec![
                name.clone(),
                format!("{:.2}", wall_ns as f64 / 1e6),
                dom.to_string(),
                format!("{:.2}", op_ns as f64 / 1e6),
                format!("{:.1}", 100.0 * op_ns as f64 / wall_ns as f64),
                hot_name,
                format!("{:.1}", 100.0 * hot_ns as f64 / op_ns as f64),
            ]);
            detail.push_str(&format!(
                "### {name} ({size}, {frames} frames, wall {:.2} ms)\n\n{}\n",
                wall_ns as f64 / 1e6,
                rep.to_markdown()
            ));
            json_backends.push(json!({
                "backend": name.clone(),
                "frames": frames,
                "wall_ns": wall_ns,
                "op_domain": dom,
                "op_total_ns": op_ns,
                "dropped": rep.dropped,
                "rows": Value::Array(rep.rows.iter().map(|r| r.to_value()).collect())
            }));
            if name.starts_with("dpu/") {
                dpu_report = Some(rep);
            }
        }

        // Measured vs modeled INT8 shares (report, don't assert).
        let dpu_report = dpu_report.expect("the DPU backend ran");
        let modeled = modeled_op_ns(&dep.dpu_runner.xmodel);
        let modeled_total: u64 = modeled.values().sum();
        let measured_total = dpu_report.domain_total_ns("int8-op").max(1);
        let mut cross =
            Table::new(vec!["Op", "Measured ms", "Measured %", "Modeled ms", "Modeled %", "Δ pp"]);
        let mut json_cross: Vec<Value> = Vec::new();
        // Union of mnemonics: modeled ops first, then any measured-only ops
        // (host-side work with no xmodel instruction).
        let mut op_names: Vec<String> = modeled.keys().map(|s| s.to_string()).collect();
        for r in dpu_report.domain_rows("int8-op") {
            if !op_names.contains(&r.name) {
                op_names.push(r.name.clone());
            }
        }
        for op in &op_names {
            let meas = dpu_report.get("int8-op", op).map_or(0, |r| r.total_ns);
            let model = modeled.get(op.as_str()).copied().unwrap_or(0);
            let meas_pct = 100.0 * meas as f64 / measured_total as f64;
            let model_pct = 100.0 * model as f64 / modeled_total.max(1) as f64;
            cross.row(vec![
                op.clone(),
                format!("{:.3}", meas as f64 / 1e6),
                format!("{meas_pct:.1}"),
                format!("{:.3}", model as f64 / 1e6),
                format!("{model_pct:.1}"),
                format!("{:+.1}", meas_pct - model_pct),
            ]);
            json_cross.push(json!({
                "op": op.clone(),
                "measured_ns": meas,
                "measured_share": meas_pct / 100.0,
                "modeled_ns": model,
                "modeled_share": model_pct / 100.0
            }));
        }

        body.push_str(&format!(
            "### {size} at {}x{} ({frames} frames per backend, 1 worker thread)\n\n{}\n{detail}",
            shape.h,
            shape.w,
            summary.markdown()
        ));
        body.push_str(&format!(
            "### {size}: measured INT8 op shares vs modeled `FrameProfile`\n\n{}\n\
             Measured is host wall time of the functional INT8 executor; modeled prices each \
             layer at its bounding engine (max of array and DMA time) plus dispatch overhead \
             on the B4096 model. Shares are expected to diverge — the host has no MAC array — \
             so the Δ column is informational, not a gate.\n\n",
            cross.markdown()
        ));
        json_models.push(json!({
            "model": format!("{size}"),
            "input": [shape.n, shape.c, shape.h, shape.w],
            "backends": Value::Array(json_backends),
            "int8_measured_vs_modeled": Value::Array(json_cross)
        }));
    }

    // Paper-geometry (256 px) measured-vs-modeled INT8 cross-check. The
    // fast/reduced scales run tiny inputs where fixed per-node overheads
    // dominate and the share comparison above is informational only; at the
    // paper's 256x256 geometry the GEMMs dominate on both sides, so here a
    // loose band between measured and modeled op shares is *asserted* (the
    // ROADMAP reconciliation gate). Runs at every scale: the DPU runner is
    // compiled for 256x256 regardless of the accuracy resolution, exactly
    // like the throughput experiments.
    let mut json_paper: Vec<Value> = Vec::new();
    for size in SIZES {
        let runner = ctx.dpu_runner_256(size, 1);
        let shape = runner.xmodel.input_shape;
        eprintln!(
            "[profile] {size}: paper geometry {}x{}, {PAPER_FRAMES} frames ...",
            shape.h, shape.w
        );
        let batch: Vec<Tensor> = (0..PAPER_FRAMES).map(|_| frame(shape)).collect();
        let (wall_ns, rep) = traced_run(&runner, &batch);
        let wall_frame_ns = wall_ns / PAPER_FRAMES as u64;

        let modeled = modeled_op_ns(&runner.xmodel);
        let modeled_total: u64 = modeled.values().sum::<u64>().max(1);
        let measured_total = rep.domain_total_ns("int8-op").max(1);
        let mut op_names: Vec<String> = modeled.keys().map(|s| s.to_string()).collect();
        for r in rep.domain_rows("int8-op") {
            if !op_names.contains(&r.name) {
                op_names.push(r.name.clone());
            }
        }

        let mut cross =
            Table::new(vec!["Op", "Measured ms", "Measured %", "Modeled ms", "Modeled %", "Δ pp"]);
        let mut json_ops: Vec<Value> = Vec::new();
        let mut worst: (f64, String) = (0.0, "-".into());
        for op in &op_names {
            let meas = rep.get("int8-op", op).map_or(0, |r| r.total_ns);
            let model = modeled.get(op.as_str()).copied().unwrap_or(0);
            let meas_share = meas as f64 / measured_total as f64;
            let model_share = model as f64 / modeled_total as f64;
            let delta = (meas_share - model_share).abs();
            if (meas_share >= BAND_SHARE_FLOOR || model_share >= BAND_SHARE_FLOOR)
                && delta > worst.0
            {
                worst = (delta, op.clone());
            }
            cross.row(vec![
                op.clone(),
                format!("{:.3}", meas as f64 / 1e6),
                format!("{:.1}", 100.0 * meas_share),
                format!("{:.3}", model as f64 / 1e6),
                format!("{:.1}", 100.0 * model_share),
                format!("{:+.1}", 100.0 * (meas_share - model_share)),
            ]);
            json_ops.push(json!({
                "op": op.clone(),
                "measured_ns": meas,
                "measured_share": meas_share,
                "modeled_ns": model,
                "modeled_share": model_share
            }));
        }

        // The band gate. Dominant ops must agree, and no op above the share
        // floor may diverge by more than the band.
        let hottest_meas = rep.domain_rows("int8-op").first().map(|r| r.name.clone());
        let hottest_model = modeled.iter().max_by_key(|(_, &ns)| ns).map(|(op, _)| op.to_string());
        assert_eq!(
            hottest_meas, hottest_model,
            "{size} paper geometry: hottest measured op diverges from the modeled FrameProfile"
        );
        assert!(
            worst.0 <= BAND_MAX_DELTA,
            "{size} paper geometry: op `{}` diverges {:.1} pp from the modeled share \
             (band {:.0} pp)",
            worst.1,
            100.0 * worst.0,
            100.0 * BAND_MAX_DELTA
        );

        body.push_str(&format!(
            "### {size} at paper geometry {}x{}: measured INT8 shares vs modeled \
             `FrameProfile` ({PAPER_FRAMES} frames, {:.1} ms/frame)\n\n{}\n\
             At 256 px the fixed per-node overheads stop dominating, so this table *is* \
             asserted: the hottest op must match the model and no op above {:.0}% share may \
             diverge by more than {:.0} pp (worst here: `{}` at {:.1} pp).\n\n",
            shape.h,
            shape.w,
            wall_frame_ns as f64 / 1e6,
            cross.markdown(),
            100.0 * BAND_SHARE_FLOOR,
            100.0 * BAND_MAX_DELTA,
            worst.1,
            100.0 * worst.0,
        ));
        json_paper.push(json!({
            "model": format!("{size}"),
            "input": [shape.n, shape.c, shape.h, shape.w],
            "frames": PAPER_FRAMES,
            "wall_ns_per_frame": wall_frame_ns,
            "band_share_floor": BAND_SHARE_FLOOR,
            "band_max_delta": BAND_MAX_DELTA,
            "worst_delta": worst.0,
            "worst_op": worst.1,
            "ops": Value::Array(json_ops)
        }));
    }

    // GEMM pack-vs-kernel split on the 16M INT8 model: weight panels are
    // packed once at lowering, so this is the activation-side pack share. A
    // recorded figure, not a gate (the per-call-pack baseline it used to be
    // compared against no longer exists; the benchmark ledger's
    // `tensor.pack_a_ms.big` carries that history). Needs the `trace-gemm`
    // feature.
    #[cfg(feature = "trace-gemm")]
    let gemm_pack_share = {
        let dep = ctx.deployment(ModelSize::M16);
        let shape = dep.gpu_runner.input_shape;
        eprintln!("[profile] M16: tracing GEMM pack share ...");
        let (pack, kernel) = gemm_pack_split(&dep.qgraph, shape, frames);
        let share = pack as f64 / (pack + kernel).max(1) as f64;
        let mut t = Table::new(vec!["Lowering", "Pack ms", "Kernel ms", "Pack share %"]);
        t.row(vec![
            "pack-once (reference)".to_string(),
            format!("{:.2}", pack as f64 / 1e6),
            format!("{:.2}", kernel as f64 / 1e6),
            format!("{:.1}", 100.0 * share),
        ]);
        let geometry = format!("{}x{}", shape.h, shape.w);
        body.push_str(&format!(
            "### M16 INT8 at {geometry}: per-frame GEMM pack share ({frames} frames)\n\n\
             {}\nWeights are immutable at inference, so lowering packs their GEMM panels once \
             at model load; each frame then only packs activation panels. Recorded, not \
             gated.\n\n",
            t.markdown()
        ));
        json!({
            "model": "M16",
            "input": [shape.n, shape.c, shape.h, shape.w],
            "frames": frames,
            "pack_once": { "pack_ns": pack, "kernel_ns": kernel, "pack_share": share }
        })
    };
    #[cfg(not(feature = "trace-gemm"))]
    let gemm_pack_share = Value::Null;

    // Serving-stage spans: a short closed-loop burst against the M1 INT8
    // reference exercises the queue/batcher/replica probes.
    let dep = ctx.deployment(ModelSize::M1);
    let shape = dep.gpu_runner.input_shape;
    let n_serve = ctx.wf.config.throughput_frames.clamp(8, 24);
    eprintln!("[profile] tracing serve lifecycle over {n_serve} requests ...");
    let backend: Arc<dyn Backend> = Arc::new(QuantRefBackend::new(dep.qgraph.clone(), shape));
    seneca_trace::reset();
    seneca_trace::set_enabled(true);
    let server = Server::start(
        backend,
        ServeConfig {
            replicas: 2,
            max_batch: 4,
            max_delay: Duration::from_millis(2),
            queue_capacity: 8,
        },
    );
    run_load(&server.handle(), &frame(shape), &LoadSpec::closed(n_serve, 4, 0x51EC));
    let stats = server.shutdown();
    seneca_trace::set_enabled(false);
    let serve_rep = seneca_trace::report();
    assert!(
        serve_rep.get("serve", "replica_exec").is_some(),
        "serve burst recorded no replica_exec spans"
    );
    body.push_str(&format!(
        "### Serving lifecycle (M1 int8-ref, {n_serve} closed-loop requests, {} served)\n\n{}\n",
        stats.served,
        serve_rep.to_markdown()
    ));

    body.push_str(
        "Spans come from the `seneca-trace` thread-local ring recorder; `session` rows \
         nest inside the per-op rows' wall clock, so domains are compared to the wall \
         independently, never summed across domains.\n",
    );
    emit(&ctx.out_dir(), "profile", &body);

    let doc = json!({
        "experiment": "profile",
        "scale": ctx.scale.name(),
        "frames_per_backend": frames,
        "models": Value::Array(json_models),
        "paper_geometry": Value::Array(json_paper),
        "gemm_pack_share_16m": gemm_pack_share,
        "serve": json!({
            "model": "M1",
            "requests": n_serve,
            "served": stats.served,
            "rows": Value::Array(serve_rep.rows.iter().map(|r| r.to_value()).collect())
        })
    });
    let path = ctx.out_dir().join("BENCH_profile.json");
    match serde_json::to_string(&doc) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("could not write {}: {e}", path.display());
            } else {
                eprintln!("[profile] wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("could not serialize BENCH_profile.json: {e}"),
    }
}
