//! `bulk-16m-int8` / `bulk-16m-fp32` — offline volume segmentation: one
//! caller pushes batches of 4 frames through `with_threads(nproc)
//! .infer_batch_timed`, back to back, no serving layer.
//!
//! GEMM does > 90 % of the work here, so this is where a faster micro-kernel,
//! W4 weights or cross-image parallelism must show. The FP32 twin runs the
//! same model, shapes and batching through the other dtype: an INT8 gain
//! bought by slowing the shared pack / driver code shows there, and the pair
//! gives the i8 / f32 ratio.

use crate::client::{closed_loop, Class, Outcome};
use crate::ledger::Ledger;
use crate::model::{frame_pool, ms_since, Checker, Model, WARMUP_FRAMES};
use crate::probes::{self, Host};
use crate::spans::Recorder;
use crate::{repeat_setup, Ctx, RunOutput, Steps, Workload};
use seneca_backend::Backend;
use seneca_nn::unet::ModelSize;
use seneca_tensor::Tensor;
use std::time::Instant;

const BATCH: usize = 4;
/// The output check covers the first two batches of the pool; a direct
/// single-thread reference of all 32 frames would take as long as the
/// measured phase itself.
const CHECKED_FRAMES: usize = 2 * BATCH;

/// A frame answered later than this misses its limit. A frame's answer
/// arrives with its batch, so the limit is on the batch's wall time.
fn limit_ms(workload: Workload) -> f64 {
    match workload {
        Workload::Bulk16mFp32 => 3500.0,
        _ => 2500.0,
    }
}

struct Setup {
    model: Model,
    /// Single-thread arm (reference and probes).
    host: Host,
    /// The arm the workload runs: `nproc` session workers.
    wide: Box<dyn Backend>,
}

fn setup(ctx: &Ctx, pool: &[Tensor]) -> (Setup, Steps) {
    let model = Model::build(ModelSize::M16, ctx.hw, ctx.seed);
    let (host, wide): (Host, Box<dyn Backend>) = match ctx.workload {
        Workload::Bulk16mFp32 => {
            let b = model.fp32_backend();
            (Host::Fp32(b.clone()), Box::new(b.with_threads(ctx.nproc)))
        }
        _ => {
            let b = model.int8_backend();
            (Host::Int8(b.clone()), Box::new(b.with_threads(ctx.nproc)))
        }
    };
    let t0 = Instant::now();
    std::hint::black_box(wide.infer_batch(&pool[..WARMUP_FRAMES]));
    let warmup_ms = ms_since(t0);
    let steps = vec![
        ("nn.build_ms", model.times.nn_build_ms),
        ("quant.ptq_ms", model.times.ptq_ms),
        ("dpu.compile_ms", model.times.dpu_compile_ms),
        ("backend.warmup_ms", warmup_ms),
    ];
    (Setup { model, host, wide }, steps)
}

/// One cycle: the next [`BATCH`] consecutive pool frames through the
/// threaded backend. A frame's answer arrives with its batch, so every frame
/// of it takes the batch's wall time. Spans: `client.request` per batch with
/// `backend.infer_batch` under it.
fn batch(
    backend: &dyn Backend,
    pool: &[Tensor],
    checker: &Checker,
    limit_ms: f64,
    batch_no: usize,
    rec: &mut Recorder,
) -> Vec<Outcome> {
    let first = (batch_no * BATCH) % pool.len();
    let req = rec.open("client.request", None, batch_no as u64);
    let call = rec.open("backend.infer_batch", req, batch_no as u64);
    let t0 = Instant::now();
    let (preds, _timing) = backend.infer_batch_timed(&pool[first..first + BATCH]);
    let latency_ms = ms_since(t0);
    rec.close(call);
    rec.close(req);
    preds
        .iter()
        .enumerate()
        .map(|(i, pred)| {
            Outcome::answered(checker.matches(first + i, pred), latency_ms, 0.0, limit_ms)
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> RunOutput {
    let pool = frame_pool(ctx.seed, ctx.hw);
    assert_eq!(pool.len() % BATCH, 0, "batches never wrap around the pool");
    let mut ledger = Ledger::default();

    let checker = {
        let model = Model::build(ModelSize::M16, ctx.hw, ctx.seed);
        let frames = &pool[..CHECKED_FRAMES];
        match ctx.workload {
            Workload::Bulk16mFp32 => Checker::new(&model.fp32_backend(), frames),
            _ => Checker::new(&model.int8_backend(), frames),
        }
    };

    let (s, setup_s, steps, _) = repeat_setup(ctx, || setup(ctx, &pool), drop);
    ledger.set("setup_s", setup_s);
    eprintln!("[bulk] set-up {setup_s:.3} s");
    let limit = limit_ms(ctx.workload);

    // In a traced run every other batch of this loop carries spans.
    let mut rec = Recorder::new(ctx.trace);
    let (measured, traced) = closed_loop(ctx.seconds, &mut rec, |batch_no, rec| {
        batch(s.wide.as_ref(), &pool, &checker, limit, batch_no, rec)
    });
    eprintln!("[bulk] measured: {}", measured.summary());
    measured.end_to_end(&mut ledger);
    probes::dpu_sim_end_to_end(&s.model, &mut ledger);
    let attempted = measured.attempted() + traced.attempted();
    let failed = measured.failed() + traced.failed();
    let mut correct = measured.count(Class::Failed) + traced.count(Class::Failed) == 0;

    if ctx.trace {
        eprintln!("[bulk] traced:   {}", traced.summary());
        traced.client_metrics(&measured, &mut ledger);

        for (name, ms) in steps {
            ledger.set(name, ms);
        }
        correct &= probes::probe_host(&s.model, &s.host, &pool, ctx.nproc, &mut rec, &mut ledger);
        probes::probe_tensor(&s.model, ctx.seed, &mut ledger);
        probes::probe_accelerators(&s.model, &mut ledger);
    }

    RunOutput {
        attempted,
        failed,
        correct,
        output_checksum: checker.checksum(),
        ledger,
        recorder: rec,
    }
}
