//! Mixed-precision deployment study: per-layer W4/W8 bitwidth assignment
//! on the Table II models.
//!
//! Two phases per model, both off one calibration pass:
//!
//! 1. **Sensitivity sweep** — each conv/tconv is quantized to W4 alone and
//!    scored against the FP32 reference (argmax agreement + per-class Dice
//!    on the FP32 argmax labels), tabulating which layers tolerate the
//!    4-bit grid and which collapse;
//! 2. **Greedy cost-aware search** — layers are flipped to W4 in order of
//!    modeled DPU frame-cycle saving (W4 doubles the array's
//!    output-channel parallelism and halves weight DMA), reverting any flip
//!    that drags cumulative agreement below the floor.
//!
//! The CI smoke property (asserted for the 16M model): the found mixed plan
//! must cut modeled DPU frame cycles AND total weight bytes against uniform
//! INT8 while holding argmax agreement at or above the floor.

use crate::ctx::ExperimentCtx;
use crate::fmt::{emit, Table};
use seneca_dpu::arch::DpuArch;
use seneca_nn::unet::ModelSize;
use seneca_quant::ptq::calibrate;
use seneca_quant::{
    fuse, quantize_from_calibration, search_mixed_plan, sensitivity_sweep, Bitwidth, PtqConfig,
    QuantizedGraph,
};
use serde_json::{json, Value};

/// Model sizes studied: the SENECA model and the largest Table II family
/// member (the 16M model carries the CI assertion — it has the wide layers
/// where W4's doubled output parallelism actually pays).
const SIZES: [ModelSize; 2] = [ModelSize::M1, ModelSize::M16];

/// CT-ORG class count (background + 5 organs).
const NUM_CLASSES: usize = 6;

/// Agreement the mixed plan may give up relative to uniform INT8 (absolute
/// percentage points of argmax agreement vs the FP32 reference).
const AGREEMENT_MARGIN: f64 = 0.02;

/// Regenerates the mixed-precision study (`mixed-precision.md` +
/// `BENCH_mixed.json`).
pub fn run(ctx: &mut ExperimentCtx) {
    let arch = DpuArch::b4096_zcu104();
    let mut body = String::new();
    let mut json_models: Vec<Value> = Vec::new();

    for size in SIZES {
        let dep = ctx.deployment(size);
        let shape = dep.gpu_runner.input_shape;
        let fg = fuse(&dep.graph);
        let cfg = PtqConfig { max_images: ctx.wf.config.calibration_images };
        eprintln!("[mixed] {size}: calibrating once for the bitwidth study ...");
        let report = calibrate(&fg, &ctx.data.calibration, &cfg);
        let n_eval = ctx.data.calibration.len().min(4);
        let eval = &ctx.data.calibration[..n_eval];

        // Phase 1: per-layer sensitivity.
        eprintln!("[mixed] {size}: sensitivity sweep over {} layers ...", fg.nodes.len());
        let entries = sensitivity_sweep(&fg, &report, eval, NUM_CLASSES);
        let mut sweep_tbl =
            Table::new(vec!["Node", "Op", "Agreement %", "Mean Dice", "Min Dice", "Bytes saved"]);
        for e in &entries {
            sweep_tbl.row(vec![
                format!("n{}", e.node),
                e.mnemonic.clone(),
                format!("{:.2}", 100.0 * e.agreement),
                format!("{:.4}", e.mean_dice),
                format!("{:.4}", e.min_dice),
                format!("{}", e.bytes_saved),
            ]);
        }

        // Phase 2: greedy search under the modeled-cycles objective.
        let cycles = |qg: &QuantizedGraph| -> f64 {
            seneca_dpu::compile(qg, shape, arch.clone()).stats.compute_cycles as f64
        };
        let floor_probe =
            quantize_from_calibration(&fg, &report, &vec![Bitwidth::W8; fg.nodes.len()]);
        let base_agreement = seneca_quant::ptq::argmax_agreement(&fg, &floor_probe, eval);
        let floor = base_agreement - AGREEMENT_MARGIN;
        eprintln!("[mixed] {size}: greedy search, agreement floor {:.2}% ...", 100.0 * floor);
        let res = search_mixed_plan(&fg, &report, eval, floor, &cycles);

        let uniform = floor_probe;
        let mixed = quantize_from_calibration(&fg, &report, &res.plan.wbits);
        let xm_u = seneca_dpu::compile(&uniform, shape, arch.clone());
        let xm_m = seneca_dpu::compile(&mixed, shape, arch.clone());
        let n_layers = seneca_quant::mixed::quantizable_nodes(&fg).len();

        let mut tbl =
            Table::new(vec!["Plan", "W4 layers", "Weight KB", "Compute Mcycles", "Agreement %"]);
        tbl.row(vec![
            "uniform INT8".to_string(),
            format!("0/{n_layers}"),
            format!("{:.1}", xm_u.stats.weight_bytes as f64 / 1024.0),
            format!("{:.3}", xm_u.stats.compute_cycles as f64 / 1e6),
            format!("{:.2}", 100.0 * res.baseline_agreement),
        ]);
        tbl.row(vec![
            "mixed W4A8".to_string(),
            format!("{}/{n_layers}", res.plan.n_w4()),
            format!("{:.1}", xm_m.stats.weight_bytes as f64 / 1024.0),
            format!("{:.3}", xm_m.stats.compute_cycles as f64 / 1e6),
            format!("{:.2}", 100.0 * res.agreement),
        ]);

        if size == ModelSize::M16 {
            // The CI smoke property for the tentpole: the search must find a
            // mixed plan that wins on BOTH modeled axes without giving up
            // more agreement than the floor allows.
            assert!(res.plan.n_w4() > 0, "16M: no layer tolerated W4 at floor {floor:.3}");
            assert!(
                xm_m.stats.compute_cycles < xm_u.stats.compute_cycles,
                "16M mixed plan must cut modeled frame cycles: {} !< {}",
                xm_m.stats.compute_cycles,
                xm_u.stats.compute_cycles
            );
            assert!(
                xm_m.stats.weight_bytes < xm_u.stats.weight_bytes,
                "16M mixed plan must cut weight bytes: {} !< {}",
                xm_m.stats.weight_bytes,
                xm_u.stats.weight_bytes
            );
            assert!(
                res.agreement >= floor,
                "16M mixed plan broke the agreement floor: {} < {floor}",
                res.agreement
            );
        }

        body.push_str(&format!(
            "### {size} at {}x{}: per-layer W4 sensitivity ({} eval images)\n\n{}\n",
            shape.h,
            shape.w,
            n_eval,
            sweep_tbl.markdown()
        ));
        body.push_str(&format!(
            "### {size}: greedy cost-aware plan (floor = uniform INT8 agreement − {:.0} pp)\n\n\
             {}\nCycles use the bitwidth-aware B4096 model (W4 doubles output-channel \
             parallelism where layers are wide enough); weight bytes count deployed W4 \
             weights at half a byte per weight. Agreement is argmax match vs the FP32 \
             reference on the evaluation images.\n\n",
            100.0 * AGREEMENT_MARGIN,
            tbl.markdown()
        ));
        json_models.push(json!({
            "model": format!("{size}"),
            "input": [shape.n, shape.c, shape.h, shape.w],
            "eval_images": n_eval,
            "sensitivity": Value::Array(
                entries
                    .iter()
                    .map(|e| json!({
                        "node": e.node,
                        "op": e.mnemonic.clone(),
                        "agreement": e.agreement,
                        "mean_dice": e.mean_dice,
                        "min_dice": e.min_dice,
                        "bytes_saved": e.bytes_saved,
                    }))
                    .collect()
            ),
            "search": json!({
                "agreement_floor": floor,
                "baseline_agreement": res.baseline_agreement,
                "agreement": res.agreement,
                "w4_layers": res.plan.n_w4(),
                "total_layers": n_layers,
                "uniform_weight_bytes": xm_u.stats.weight_bytes,
                "mixed_weight_bytes": xm_m.stats.weight_bytes,
                "uniform_compute_cycles": xm_u.stats.compute_cycles,
                "mixed_compute_cycles": xm_m.stats.compute_cycles,
                "steps": Value::Array(
                    res.steps
                        .iter()
                        .map(|s| json!({
                            "node": s.node,
                            "accepted": s.accepted,
                            "agreement": s.agreement,
                            "cost": s.cost,
                        }))
                        .collect()
                ),
            }),
        }));
    }

    body.push_str(
        "One calibration pass feeds every candidate plan: activation fix positions do not \
         depend on the weight bitwidth, so only weights are re-quantized per plan. The \
         16M rows are asserted in CI: the mixed plan must beat uniform INT8 on both \
         modeled cycles and weight bytes at or above the agreement floor.\n",
    );
    emit(&ctx.out_dir(), "mixed-precision", &body);

    let doc = json!({
        "experiment": "mixed",
        "scale": ctx.scale.name(),
        "num_classes": NUM_CLASSES,
        "agreement_margin": AGREEMENT_MARGIN,
        "models": Value::Array(json_models),
    });
    let path = ctx.out_dir().join("BENCH_mixed.json");
    match serde_json::to_string(&doc) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("could not write {}: {e}", path.display());
            } else {
                eprintln!("[mixed] wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("could not serialize BENCH_mixed.json: {e}"),
    }
}
