//! Per-layer probes: each layer timed from outside, through its public
//! functions, after the workload's own phases have run.

use crate::ledger::Ledger;
use crate::model::{ms_since, Model};
use crate::spans::{Recorder, SpanId};
use crate::stats::{hash_f32, hash_i8, median};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seneca_backend::{Backend, Fp32RefBackend, QuantRefBackend};
use seneca_dpu::perf::frame_cost;
use seneca_dpu::profile::profile;
use seneca_dpu::runtime::{DpuRunner, RuntimeConfig};
use seneca_gpu::{GpuModel, GpuRunner};
use seneca_ir::{lower, DType, IrOp, LowerOptions, Lowered};
use seneca_tensor::activation::{argmax_channels, argmax_channels_i8};
use seneca_tensor::gemm::{GemmEpilogue, PackedA, PackedA4};
use seneca_tensor::igemm::{igemm4_conv_packed, igemm_conv_packed, sgemm_conv_packed};
use seneca_tensor::im2col::ConvGeom;
use seneca_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// DES seed and frame count of every simulated throughput run: fixed, so
/// simulated values repeat exactly and two commits compare exactly.
const SIM_FRAMES: usize = 2000;
const SIM_SEED: u64 = 11;
/// Each host-side probe repeats at least this often, and then until its
/// time budget is spent; it reports the median.
const MIN_REPS: usize = 3;
const PROBE_BUDGET_S: f64 = 0.25;

/// Calls `f` at least [`MIN_REPS`] times and until [`PROBE_BUDGET_S`] is
/// spent; returns each call's own measurement.
fn repeat<T>(mut f: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || t0.elapsed().as_secs_f64() < PROBE_BUDGET_S {
        out.push(f());
    }
    out
}

/// Median wall time of `f`, in ms.
fn median_ms(mut f: impl FnMut()) -> f64 {
    median(&repeat(|| {
        let t0 = Instant::now();
        f();
        ms_since(t0)
    }))
}

/// The two simulated end-to-end metrics: the workload's model compiled at
/// the workload's geometry, B4096, 4 runner threads.
pub fn dpu_sim_end_to_end(model: &Model, ledger: &mut Ledger) {
    let runner = DpuRunner::new(Arc::clone(&model.xmodel), RuntimeConfig::default());
    assert_eq!(runner.config.threads, 4);
    let rep = runner.throughput(SIM_FRAMES, SIM_SEED);
    ledger.set("dpu_sim_fps", rep.fps);
    ledger.set("dpu_sim_fps_per_w", rep.energy_efficiency());
}

/// `dpu.*` and `gpu.*`: the cycle model's view of the workload's model.
pub fn probe_accelerators(model: &Model, ledger: &mut Ledger) {
    let xm = &model.xmodel;
    let cost = frame_cost(xm, &xm.arch);
    ledger.set("dpu.instrs", xm.stats.n_instrs as f64);
    ledger.set("dpu.sim_frame_ns", cost.serial_ns as f64);
    ledger.set("dpu.sim_compute_ns", cost.compute_ns as f64);
    ledger.set("dpu.sim_mem_ns", cost.mem_ns as f64);
    ledger.set("dpu.sim_overhead_ns", cost.overhead_ns as f64);
    ledger.set("dpu.sim_memory_bound_layers", profile(xm, &xm.arch).memory_bound_layers() as f64);

    let run = |threads: usize| {
        DpuRunner::new(Arc::clone(xm), RuntimeConfig { threads, ..RuntimeConfig::default() })
            .throughput(SIM_FRAMES, SIM_SEED)
    };
    let t4 = run(4);
    ledger.set("dpu.sim_watt", t4.watt);
    ledger.set("dpu.sim_util", t4.util);
    ledger.set("dpu.sim_fps.t1", run(1).fps);
    ledger.set("dpu.sim_fps.t2", run(2).fps);
    ledger.set("dpu.sim_fps.t8", run(8).fps);
    ledger.set(
        "dpu.sim_host_ms",
        median_ms(|| {
            std::hint::black_box(run(4));
        }),
    );

    let gpu = GpuRunner::new(model.graph.clone(), GpuModel::rtx2060_mobile(), model.input)
        .throughput(500, SIM_SEED);
    ledger.set("gpu.sim_fps", gpu.fps);
    ledger.set("gpu.sim_fps_per_w", gpu.energy_efficiency());
}

/// The host backend a workload runs, single-thread arm.
pub enum Host {
    Int8(QuantRefBackend),
    Fp32(Fp32RefBackend),
}

impl Host {
    pub fn backend(&self) -> &dyn Backend {
        match self {
            Host::Int8(b) => b,
            Host::Fp32(b) => b,
        }
    }

    fn with_threads(&self, threads: usize) -> Box<dyn Backend> {
        match self {
            Host::Int8(b) => Box::new(b.clone().with_threads(threads)),
            Host::Fp32(b) => Box::new(b.clone().with_threads(threads)),
        }
    }
}

/// MACs of every conv / tconv node of a lowered program (0 for other ops).
fn node_macs(lowered: &Lowered) -> Vec<u64> {
    let shapes = lowered.shapes();
    lowered
        .module()
        .nodes
        .iter()
        .enumerate()
        .map(|(id, node)| match &node.op {
            IrOp::Conv(a) => {
                (shapes[id].hw() * a.kernel.c_out(false) * a.kernel.c_in(false) * 9) as u64
            }
            IrOp::TConv(a) => {
                (shapes[node.inputs[0]].hw() * a.kernel.c_out(true) * a.kernel.c_in(true) * 4)
                    as u64
            }
            _ => 0,
        })
        .collect()
}

/// One hand-stepped INT8 frame: ms per op class, ns per conv output size.
#[derive(Default)]
struct Stepped {
    quantize_ms: f64,
    conv_ms: f64,
    tconv_ms: f64,
    pool_ms: f64,
    concat_ms: f64,
    other_ms: f64,
    argmax_ms: f64,
    conv_ns_by_hw: BTreeMap<usize, f64>,
    logits_hash: u64,
}

impl Stepped {
    fn ir_ms(&self) -> f64 {
        self.conv_ms + self.tconv_ms + self.pool_ms + self.concat_ms + self.other_ms
    }
}

/// Steps one frame through `load_input_i8` + `execute_node_i8` by hand,
/// with a span around every call.
fn step_int8(
    model: &Model,
    lowered: &Lowered,
    scratch: &mut seneca_ir::QScratch,
    frame: &Tensor,
    rec: &mut Recorder,
    parent: Option<SpanId>,
    request: u64,
) -> Stepped {
    let mut s = Stepped::default();
    let module = lowered.module();

    let t0 = rec.now_ns();
    let q = model.qgraph.quantize_input(frame);
    let t1 = rec.now_ns();
    rec.add("quant.quantize_input", t0, t1, parent, request);
    s.quantize_ms = (t1 - t0) as f64 * 1e-6;

    let t0 = rec.now_ns();
    lowered.load_input_i8(&q, scratch);
    let t1 = rec.now_ns();
    rec.add("ir.node.input", t0, t1, parent, request);
    s.other_ms += (t1 - t0) as f64 * 1e-6;

    for id in 1..module.nodes.len() {
        let op = &module.nodes[id].op;
        let t0 = rec.now_ns();
        lowered.execute_node_i8(id, scratch);
        let t1 = rec.now_ns();
        rec.add(&format!("ir.node.{}", op.mnemonic(DType::I8)), t0, t1, parent, request);
        let ms = (t1 - t0) as f64 * 1e-6;
        match op {
            IrOp::Conv(_) => {
                s.conv_ms += ms;
                *s.conv_ns_by_hw.entry(lowered.shapes()[id].h).or_insert(0.0) += (t1 - t0) as f64;
            }
            IrOp::TConv(_) => s.tconv_ms += ms,
            IrOp::MaxPool2x2 => s.pool_ms += ms,
            IrOp::Concat { .. } => s.concat_ms += ms,
            _ => s.other_ms += ms,
        }
    }

    let out = lowered.node_output_i8(module.output, scratch);
    let t0 = rec.now_ns();
    let labels = argmax_channels_i8(out.shape(), out.data());
    let t1 = rec.now_ns();
    rec.add("backend.argmax", t0, t1, parent, request);
    std::hint::black_box(labels);
    s.argmax_ms = (t1 - t0) as f64 * 1e-6;
    s.logits_hash = hash_i8(out.data());
    s
}

fn set_ir_counts(lowered: &Lowered, elem_bytes: usize, ledger: &mut Ledger) {
    let plan = lowered.plan();
    ledger.set("ir.nodes", lowered.module().nodes.len() as f64);
    ledger.set("ir.macs_per_frame", node_macs(lowered).iter().sum::<u64>() as f64);
    ledger.set("ir.peak_arena_bytes", plan.peak_arena_bytes(elem_bytes) as f64);
    ledger.set("ir.packed_weight_bytes", lowered.packed_weight_bytes() as f64);
    // Computed from tensor sizes (every node output written once), not measured.
    ledger.set("ir.activation_bytes_per_frame", plan.total_activation_bytes(elem_bytes) as f64);
}

/// `backend.*`, `quant.*` and `ir.*` for the workload's model. Returns
/// whether the hand-stepped frames equal the fused ones.
///
/// One round sends the same frame through the backend's own entry point,
/// through a batch of `nproc` on `nproc` session workers, through the fused
/// walk, and (INT8) through the walk stepped by hand — back to back, so that
/// drift of the machine hits all of them alike and the ratios hold.
pub fn probe_host(
    model: &Model,
    host: &Host,
    frames: &[Tensor],
    nproc: usize,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> bool {
    let backend = host.backend();
    let wide = host.with_threads(nproc);
    let frame = &frames[0];
    let batch = &frames[..nproc.min(frames.len())];
    ledger.set("quant.weight_bytes", model.qgraph.weight_bytes() as f64);

    let t0 = Instant::now();
    let lowered = match host {
        Host::Int8(_) => lower(model.qgraph.to_ir(), model.input, &LowerOptions::reference()),
        Host::Fp32(_) => lower(model.graph.to_ir(), model.input, &LowerOptions::reference()),
    };
    ledger.set("ir.lower_ms", ms_since(t0));
    set_ir_counts(&lowered, if matches!(host, Host::Int8(_)) { 1 } else { 4 }, ledger);

    struct Round {
        batch1_ms: f64,
        wide_ms: f64,
        fused_ms: f64,
        stepped: Option<Stepped>,
    }
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        ms_since(t0)
    };
    let entry_points = |fused: &mut dyn FnMut()| {
        let batch1_ms = timed(&mut || {
            std::hint::black_box(backend.infer_batch(std::slice::from_ref(frame)));
        });
        let wide_ms = timed(&mut || {
            std::hint::black_box(wide.infer_batch(batch));
        });
        Round { batch1_ms, wide_ms, fused_ms: timed(fused), stepped: None }
    };

    let q = model.qgraph.quantize_input(frame);
    let (rounds, stepped_equals_fused) = match host {
        Host::Int8(_) => {
            ledger.set(
                "ir.scratch_alloc_ms",
                median_ms(|| {
                    std::hint::black_box(lowered.make_scratch_i8());
                }),
            );
            let mut scratch = lowered.make_scratch_i8();
            let fused_hash = hash_i8(lowered.execute_i8_into(&q, &mut scratch).data());
            let mut request = 0u64;
            let rounds = repeat(|| {
                let mut round = entry_points(&mut || {
                    std::hint::black_box(lowered.execute_i8_into(&q, &mut scratch).data().len());
                });
                let parent = rec.open("client.request", None, request);
                round.stepped =
                    Some(step_int8(model, &lowered, &mut scratch, frame, rec, parent, request));
                rec.close(parent);
                request += 1;
                round
            });
            let same = rounds.iter().all(|r| r.stepped.as_ref().unwrap().logits_hash == fused_hash);
            (rounds, same)
        }
        Host::Fp32(_) => {
            ledger.set(
                "ir.scratch_alloc_ms",
                median_ms(|| {
                    std::hint::black_box(lowered.make_scratch_f32());
                }),
            );
            let mut scratch = lowered.make_scratch_f32();
            let rounds = repeat(|| {
                entry_points(&mut || {
                    std::hint::black_box(
                        lowered.execute_f32_into(frame, &mut scratch).data().len(),
                    );
                })
            });
            // The fused walk on this side of the backend gives the backend's bits.
            let logits = lowered.execute_f32_into(frame, &mut scratch).to_tensor();
            let direct = backend.infer_batch(std::slice::from_ref(frame)).pop().expect("one frame");
            let same =
                direct.as_f32().is_some_and(|t| hash_f32(t.data()) == hash_f32(logits.data()));
            ledger.set(
                "backend.argmax_ms",
                median_ms(|| {
                    std::hint::black_box(argmax_channels(&logits));
                }),
            );
            ledger.set(
                "quant.quantize_input_ms",
                median_ms(|| {
                    std::hint::black_box(model.qgraph.quantize_input(frame));
                }),
            );
            (rounds, same)
        }
    };

    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let (batch1_ms, fused_ms) = (med(&|r| r.batch1_ms), med(&|r| r.fused_ms));
    ledger.set("backend.infer_batch1_ms", batch1_ms);
    ledger.set("ir.execute_ms", fused_ms);
    // Frame/s of the wide batch over frame/s one at a time.
    ledger.set("backend.batch_scaling", batch.len() as f64 * batch1_ms / med(&|r| r.wide_ms));

    let by_hand_ms = if rounds[0].stepped.is_some() {
        let step = |f: &dyn Fn(&Stepped) -> f64| med(&|r| f(r.stepped.as_ref().unwrap()));
        ledger.set("quant.quantize_input_ms", step(&|s| s.quantize_ms));
        ledger.set("ir.conv_ms", step(&|s| s.conv_ms));
        ledger.set("ir.tconv_ms", step(&|s| s.tconv_ms));
        ledger.set("ir.pool_ms", step(&|s| s.pool_ms));
        ledger.set("ir.concat_ms", step(&|s| s.concat_ms));
        ledger.set("ir.other_ms", step(&|s| s.other_ms));
        ledger.set("backend.argmax_ms", step(&|s| s.argmax_ms));
        ledger.set("ir.step_over_execute", step(&|s| s.ir_ms()) / fused_ms);

        let macs = node_macs(&lowered);
        let mut macs_by_hw: BTreeMap<usize, u64> = BTreeMap::new();
        for (id, node) in lowered.module().nodes.iter().enumerate() {
            if matches!(node.op, IrOp::Conv(_)) {
                *macs_by_hw.entry(lowered.shapes()[id].h).or_insert(0) += macs[id];
            }
        }
        for (hw, m) in macs_by_hw {
            if [256, 128, 64, 32, 16, 8].contains(&hw) {
                let ns = step(&|s| s.conv_ns_by_hw[&hw]);
                ledger.set(&format!("ir.conv_gmacs.hw{hw}"), m as f64 / ns.max(1.0));
            }
        }
        step(&|s| s.quantize_ms + s.argmax_ms) + fused_ms
    } else {
        // `seneca-ir` has no public FP32 node step, so the by-op split and
        // `ir.step_over_execute` stay 0 on the FP32 workload.
        ledger.get("backend.argmax_ms").unwrap_or(0.0) + fused_ms
    };
    ledger.set("backend.session_overhead_ms", batch1_ms - by_hand_ms);
    stepped_equals_fused
}

/// One conv shape: `c_in -> c_out` channels on an `h x w` map.
#[derive(Debug, Clone, Copy)]
struct ConvShape {
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
}

impl ConvShape {
    fn geom(&self) -> ConvGeom {
        ConvGeom { c_in: self.c_in, h: self.h, w: self.w, k: 3, pad: 1, stride: 1 }
    }

    fn macs(&self) -> f64 {
        (self.c_out * self.c_in * 9 * self.h * self.w) as f64
    }
}

/// The model's highest-MAC conv (`big`) and its first full-resolution conv
/// (`small`: one input channel, so K = 9 and the GEMM is all overhead).
fn probe_shapes(model: &Model) -> (ConvShape, ConvShape) {
    let ir = model.graph.to_ir();
    let shapes = ir.shapes(model.input);
    let convs: Vec<ConvShape> = ir
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(id, node)| match &node.op {
            IrOp::Conv(a) => Some(ConvShape {
                c_in: a.kernel.c_in(false),
                c_out: a.kernel.c_out(false),
                h: shapes[id].h,
                w: shapes[id].w,
            }),
            _ => None,
        })
        .collect();
    let big = *convs.iter().max_by(|a, b| a.macs().total_cmp(&b.macs())).expect("a conv node");
    (big, convs[0])
}

/// `tensor.*`: the GEMM entry points on two of the model's own conv shapes,
/// with seeded random operands (W4-range weights, so one weight set serves
/// the i8 and the nibble kernel).
pub fn probe_tensor(model: &Model, seed: u64, ledger: &mut Ledger) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x007E_4501);
    let (big, small) = probe_shapes(model);
    for (tag, shape) in [("big", big), ("small", small)] {
        let geom = shape.geom();
        let (m, k, n) = (shape.c_out, geom.col_rows(), geom.col_cols());
        let w_i8: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-8i32..8) as i8).collect();
        let w_f32: Vec<f32> = w_i8.iter().map(|&v| f32::from(v) / 8.0).collect();
        let x_i8: Vec<i8> = (0..shape.c_in * shape.h * shape.w)
            .map(|_| rng.gen_range(-127i32..128) as i8)
            .collect();
        let x_f32: Vec<f32> = x_i8.iter().map(|&v| f32::from(v) / 127.0).collect();
        let bias = vec![0i32; m];
        let mut out_i8 = vec![0i8; m * n];
        let mut out_f32 = vec![0f32; m * n];

        let pa_i8 = PackedA::pack(m, k, &w_i8);
        let pa_i4 = PackedA4::pack(m, k, &w_i8);
        let pa_f32 = PackedA::pack(m, k, &w_f32);
        if tag == "big" {
            ledger.set(
                "tensor.pack_a_ms.big",
                median_ms(|| {
                    std::hint::black_box(PackedA::pack(m, k, &w_i8));
                    std::hint::black_box(PackedA4::pack(m, k, &w_i8));
                    std::hint::black_box(PackedA::pack(m, k, &w_f32));
                }),
            );
        }

        let i8_ms = median_ms(|| {
            igemm_conv_packed(&pa_i8, &geom, &x_i8, &bias, 7, true, &mut out_i8);
            std::hint::black_box(&out_i8);
        });
        ledger.set(&format!("tensor.igemm_conv_gmacs.{tag}"), shape.macs() / (i8_ms * 1e6));
        let f32_ms = median_ms(|| {
            sgemm_conv_packed(&pa_f32, &geom, &x_f32, &mut out_f32, GemmEpilogue::None);
            std::hint::black_box(&out_f32);
        });
        ledger.set(&format!("tensor.sgemm_conv_gflops.{tag}"), 2.0 * shape.macs() / (f32_ms * 1e6));
        if tag == "big" {
            let i4_ms = median_ms(|| {
                igemm4_conv_packed(&pa_i4, &geom, &x_i8, &bias, 7, true, &mut out_i8);
                std::hint::black_box(&out_i8);
            });
            ledger.set("tensor.igemm4_conv_gmacs.big", shape.macs() / (i4_ms * 1e6));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::frame_pool;
    use seneca_nn::unet::ModelSize;

    #[test]
    fn hand_stepped_frame_equals_the_fused_one_and_fills_the_ir_ledger() {
        let model = Model::build(ModelSize::M1, 32, 5);
        let frames = frame_pool(5, 32);
        let host = Host::Int8(QuantRefBackend::new(model.qgraph.clone(), model.input));
        let mut rec = Recorder::new(true);
        let mut ledger = Ledger::default();
        assert!(probe_host(&model, &host, &frames, 2, &mut rec, &mut ledger));
        assert!(ledger.get("ir.macs_per_frame").unwrap() > 0.0);
        assert!(ledger.get("ir.conv_gmacs.hw32").unwrap() > 0.0);
        assert!(ledger.get("ir.conv_gmacs.hw256").is_none());
        assert!(ledger.get("ir.step_over_execute").unwrap() > 0.0);
        // Every stepped frame left a request span with node spans under it.
        let spans = rec.spans();
        let request = spans.iter().position(|s| s.name == "client.request").unwrap();
        assert!(spans.iter().any(|s| s.name == "ir.node.qconv" && s.parent == Some(request)));
        assert!(spans[request].end_ns > spans[request].start_ns);
    }

    #[test]
    fn probe_shapes_pick_the_heaviest_and_the_first_conv() {
        let model = Model::build(ModelSize::M1, 32, 5);
        let (big, small) = probe_shapes(&model);
        assert_eq!((small.c_in, small.h, small.w), (1, 32, 32));
        assert!(big.macs() >= small.macs());
    }

    #[test]
    fn simulated_metrics_repeat_exactly() {
        let model = Model::build(ModelSize::M1, 32, 5);
        let (mut a, mut b) = (Ledger::default(), Ledger::default());
        dpu_sim_end_to_end(&model, &mut a);
        dpu_sim_end_to_end(&Model::build(ModelSize::M1, 32, 6), &mut b);
        // Another weight seed, the same architecture: the cycle model agrees.
        assert_eq!(a.get("dpu_sim_fps"), b.get("dpu_sim_fps"));
        assert!(a.get("dpu_sim_fps_per_w").unwrap() > 0.0);
    }
}
