//! `stream-1m-int8` — the paper's deployment: one closed-loop client, one
//! frame in flight, the 1M INT8 model behind `seneca_serve::Server`.
//!
//! Small-channel layers make per-op fixed costs (thread spawn in the rayon
//! shim, B-panel packing, the 2 ms batch window) the largest share; batch
//! parallelism cannot help a single frame in flight.

use crate::client::{closed_loop, Class, Outcome};
use crate::ledger::Ledger;
use crate::model::{frame_pool, ms_since, Checker, Model, WARMUP_FRAMES};
use crate::probes::{self, Host};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::{repeat_setup, Ctx, RunOutput, Steps};
use seneca_backend::QuantRefBackend;
use seneca_nn::unet::ModelSize;
use seneca_serve::{Priority, ServeConfig, ServeHandle, ServeStats, Server, Timing};
use seneca_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// A frame answered later than this misses its limit.
const LIMIT_MS: f64 = 300.0;

struct Setup {
    model: Model,
    backend: QuantRefBackend,
    server: Server,
}

fn setup(ctx: &Ctx, pool: &[Tensor]) -> (Setup, Steps) {
    let model = Model::build(ModelSize::M1, ctx.hw, ctx.seed);
    let backend = model.int8_backend();

    let t0 = Instant::now();
    let server = Server::start(Arc::new(backend.clone()), ServeConfig::default());
    let start_ms = ms_since(t0);

    let t0 = Instant::now();
    let handle = server.handle();
    for frame in &pool[..WARMUP_FRAMES] {
        handle.submit_wait(frame.clone(), Priority::Interactive, None).expect("warm-up frame");
    }
    let warmup_ms = ms_since(t0);

    let steps = vec![
        ("nn.build_ms", model.times.nn_build_ms),
        ("quant.ptq_ms", model.times.ptq_ms),
        ("dpu.compile_ms", model.times.dpu_compile_ms),
        ("serve.start_ms", start_ms),
        ("backend.warmup_ms", warmup_ms),
    ];
    (Setup { model, backend, server }, steps)
}

/// `Timing` of every served request of a phase, split the way
/// `serve.*` reports it.
#[derive(Default)]
pub struct ServeDetail {
    pub submit_us: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub execute_ms: Vec<f64>,
    pub reply_ms: Vec<f64>,
}

impl ServeDetail {
    pub fn push_timing(&mut self, t: &Timing) {
        let (queue, execute, total) = (
            t.queue.as_secs_f64() * 1e3,
            t.execute.as_secs_f64() * 1e3,
            t.total.as_secs_f64() * 1e3,
        );
        self.queue_ms.push(queue);
        self.execute_ms.push(execute);
        self.reply_ms.push((total - queue - execute).max(0.0));
    }

    /// `serve.*` from the per-request timings and the change of the
    /// server-side counters over the phase.
    pub fn report(&self, before: &[ServeStats], after: &[ServeStats], ledger: &mut Ledger) {
        let delta = |f: fn(&ServeStats) -> u64| {
            (after.iter().map(f).sum::<u64>() - before.iter().map(f).sum::<u64>()) as f64
        };
        let (served, batches) = (delta(|s| s.served), delta(|s| s.batches));
        ledger.set("serve.submit_p50_us", median(&self.submit_us));
        ledger.set("serve.queue_p50_ms", median(&self.queue_ms));
        ledger.set("serve.queue_p90_ms", percentile(&self.queue_ms, 0.9));
        ledger.set("serve.execute_p50_ms", median(&self.execute_ms));
        ledger.set("serve.reply_p50_ms", median(&self.reply_ms));
        ledger.set("serve.batches", batches);
        ledger.set("serve.mean_batch", if batches > 0.0 { served / batches } else { 0.0 });
        ledger.set("serve.rejected", delta(|s| s.rejected));
        ledger.set("serve.shed_expired", delta(|s| s.shed_expired));
    }
}

/// One cycle of the closed-loop client: a frame goes out, its answer comes
/// back. Spans (when `rec` is on): `client.request` with `serve.submit`,
/// `serve.queue` and `serve.execute` laid out under it from the returned
/// `Timing`; the request's self time is the reply path.
fn request(
    handle: &ServeHandle,
    pool: &[Tensor],
    checker: &Checker,
    seq: usize,
    rec: &mut Recorder,
    detail: &mut ServeDetail,
) -> Outcome {
    let idx = seq % pool.len();
    let frame = pool[idx].clone();
    let t0 = Instant::now();
    let ticket = handle.submit(frame, Priority::Interactive, None);
    let t_submitted = Instant::now();
    let resp = ticket.map(|t| t.wait());
    let t1 = Instant::now();
    let latency_ms = (t1 - t0).as_secs_f64() * 1e3;
    detail.submit_us.push((t_submitted - t0).as_secs_f64() * 1e6);

    let Ok(r) = &resp else {
        return Outcome::unanswered(Class::Refused, 0.0);
    };
    let (s, e) = (rec.ns_at(t0), rec.ns_at(t1));
    let req = rec.add("client.request", s, e, None, seq as u64);
    rec.add("serve.submit", s, rec.ns_at(t_submitted), req, seq as u64);
    let queue_end = s + r.timing.queue.as_nanos() as u64;
    rec.add("serve.queue", s, queue_end, req, seq as u64);
    let execute_end = queue_end + r.timing.execute.as_nanos() as u64;
    rec.add("serve.execute", queue_end, execute_end, req, seq as u64);
    match &r.result {
        Ok(pred) => {
            detail.push_timing(&r.timing);
            Outcome::answered(checker.matches(idx, pred), latency_ms, 0.0, LIMIT_MS)
        }
        Err(_) => Outcome::unanswered(Class::Failed, 0.0),
    }
}

pub fn run(ctx: &Ctx) -> RunOutput {
    let pool = frame_pool(ctx.seed, ctx.hw);
    let mut ledger = Ledger::default();
    // Direct single-thread reference for every pool frame.
    let checker =
        Checker::new(&Model::build(ModelSize::M1, ctx.hw, ctx.seed).int8_backend(), &pool);

    let (s, setup_s, steps, shutdowns) = repeat_setup(
        ctx,
        || setup(ctx, &pool),
        |s: Setup| {
            let t0 = Instant::now();
            s.server.shutdown();
            ms_since(t0)
        },
    );
    ledger.set("setup_s", setup_s);
    eprintln!("[stream] set-up {setup_s:.3} s");

    let handle = s.server.handle();

    // In a traced run every other request of this loop carries spans.
    let mut rec = Recorder::new(ctx.trace);
    let before = [s.server.stats()];
    let mut detail = ServeDetail::default();
    let (measured, traced) = closed_loop(ctx.seconds, &mut rec, |seq, rec| {
        vec![request(&handle, &pool, &checker, seq, rec, &mut detail)]
    });
    eprintln!("[stream] measured: {}", measured.summary());
    measured.end_to_end(&mut ledger);
    probes::dpu_sim_end_to_end(&s.model, &mut ledger);
    let attempted = measured.attempted() + traced.attempted();
    let failed = measured.failed() + traced.failed();
    let mut correct = measured.count(Class::Failed) + traced.count(Class::Failed) == 0;

    let mut shutdowns = shutdowns;
    if ctx.trace {
        detail.report(&before, &[s.server.stats()], &mut ledger);
        eprintln!("[stream] traced:   {}", traced.summary());
        traced.client_metrics(&measured, &mut ledger);

        for (name, ms) in steps {
            ledger.set(name, ms);
        }
        let host = Host::Int8(s.backend.clone());
        correct &= probes::probe_host(&s.model, &host, &pool, ctx.nproc, &mut rec, &mut ledger);
        probes::probe_tensor(&s.model, ctx.seed, &mut ledger);
        probes::probe_accelerators(&s.model, &mut ledger);
    }

    let t0 = Instant::now();
    let stats = s.server.shutdown();
    shutdowns.push(ms_since(t0));
    ledger.set("serve.shutdown_ms", median(&shutdowns));
    // Every frame submitted was served (nothing is refused on this workload).
    correct &= stats.served == stats.submitted;

    RunOutput {
        attempted,
        failed,
        correct,
        output_checksum: checker.checksum(),
        ledger,
        recorder: rec,
    }
}
