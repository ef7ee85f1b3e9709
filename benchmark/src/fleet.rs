//! `fleet-roi-open` — open-loop Poisson arrivals of 64x64 ROI frames into
//! `seneca-fleet`: all five Table II INT8 models, three tenants, 64 patient
//! keys.
//!
//! Frames are cheap, so queueing, routing, admission, per-call session set-up
//! and thread spawn dominate; GEMM kernel gains should move little here.

use crate::client::{Class, Mark, Outcome, Phase, WINDOWS};
use crate::ledger::Ledger;
use crate::model::{frame_pool, ms_since, Checker, Model, POOL_FRAMES, WARMUP_FRAMES};
use crate::probes::{self, Host};
use crate::schedule::{poisson_schedule, Arrival, Schedule};
use crate::spans::Recorder;
use crate::stats::median;
use crate::stream::ServeDetail;
use crate::{repeat_setup, Ctx, RunOutput, Steps};
use seneca_backend::{Backend, QuantRefBackend};
use seneca_dpu::perf::frame_cost;
use seneca_fleet::{
    Fleet, FleetBuilder, FleetConfig, FleetError, FleetHandle, FleetStats, FleetTicket, ModelSpec,
    TenantId, TenantSpec,
};
use seneca_nn::unet::ModelSize;
use seneca_serve::{ServeError, ServeStats};
use seneca_tensor::Tensor;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Table IV, INT8 global Dice (%). Routing metadata is this constant and the
/// DPU-modelled frame time — never an in-run measurement, which flipped the
/// 1M/2M order between runs and with it every routed count.
const TABLE4_DICE_INT8: [(ModelSize, f64); 5] = [
    (ModelSize::M1, 93.04),
    (ModelSize::M2, 93.01),
    (ModelSize::M4, 93.49),
    (ModelSize::M8, 93.65),
    (ModelSize::M16, 93.84),
];

/// Share of the arrivals each tenant sends: surgery, clinic, bulk.
const TENANT_MIX: [f64; 3] = [0.50, 0.25, 0.25];
const PATIENT_KEYS: u64 = 64;
/// Deadline of the interactive tenants, and their latency limit.
const INTERACTIVE_LIMIT_MS: f64 = 250.0;
/// The batch tenant has no deadline; a frame later than this misses.
const BATCH_LIMIT_MS: f64 = 1000.0;
/// Phase A: about 60 % of what this mix sustains on 2 cores.
const RATE_PER_S: f64 = 40.0;
/// Phase B (traced runs only): past saturation; feeds `fleet.overload.*`.
const OVERLOAD_RATE_PER_S: f64 = 90.0;
const OVERLOAD_SECONDS_SHARE: f64 = 1.0 / 3.0;

fn tenant_specs() -> [TenantSpec; 3] {
    let deadline = Duration::from_secs_f64(INTERACTIVE_LIMIT_MS * 1e-3);
    [
        TenantSpec::interactive("surgery", deadline, 93.0),
        TenantSpec::interactive("clinic", deadline, 93.4).with_floor(93.0),
        TenantSpec::batch("bulk", 93.6).with_floor(93.0),
    ]
}

fn is_interactive(tenant: usize) -> bool {
    tenant < 2
}

struct Setup {
    models: Vec<Model>,
    backends: Vec<QuantRefBackend>,
    fleet: Fleet,
    tenants: Vec<TenantId>,
}

fn setup(ctx: &Ctx, pool: &[Tensor]) -> (Setup, Steps) {
    let models: Vec<Model> =
        TABLE4_DICE_INT8.iter().map(|&(size, _)| Model::build(size, ctx.hw, ctx.seed)).collect();
    let backends: Vec<QuantRefBackend> = models.iter().map(Model::int8_backend).collect();

    let t0 = Instant::now();
    for b in &backends {
        std::hint::black_box(b.infer_batch(&pool[..WARMUP_FRAMES]));
    }
    let warmup_ms = ms_since(t0);

    let t0 = Instant::now();
    let mut builder = FleetBuilder::new(FleetConfig::default());
    for ((model, backend), (_, dice)) in models.iter().zip(&backends).zip(TABLE4_DICE_INT8) {
        let cost_ms = frame_cost(&model.xmodel, &model.xmodel.arch).serial_ns as f64 * 1e-6;
        builder.model(ModelSpec {
            name: model.size.label().to_string(),
            dice,
            cost_ms,
            backend: Arc::new(backend.clone()),
        });
    }
    let tenants = tenant_specs().into_iter().map(|t| builder.tenant(t)).collect();
    let fleet = builder.start();
    let start_ms = ms_since(t0);

    let sum = |f: fn(&Model) -> f64| models.iter().map(f).sum::<f64>();
    let steps = vec![
        ("nn.build_ms", sum(|m| m.times.nn_build_ms)),
        ("quant.ptq_ms", sum(|m| m.times.ptq_ms)),
        ("dpu.compile_ms", sum(|m| m.times.dpu_compile_ms)),
        ("backend.warmup_ms", warmup_ms),
        ("fleet.start_ms", start_ms),
    ];
    (Setup { models, backends, fleet, tenants }, steps)
}

/// What the submitter hands the collector for every arrival.
struct Sent {
    seq: u64,
    arrival: Arrival,
    send_start: Instant,
    send_end: Instant,
    result: Result<FleetTicket, FleetError>,
}

/// Client-side view of one open-loop phase, beyond the outcomes.
#[derive(Default)]
struct FleetDetail {
    submit_us: Vec<f64>,
    interactive_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    interactive: Vec<Outcome>,
    batch_sent: u64,
    batch_shed: u64,
    batch_refused: u64,
    admitted: u64,
    downgraded: u64,
    routed: [u64; 5],
    serve: ServeDetail,
}

/// Sleeps most of the way to `t`, then yields until it has come.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// One submitter thread sends on the schedule, whatever the fleet does; this
/// thread collects, waiting each ticket while submission goes on (a
/// `FleetTicket` holds its batch-tier slot until waited). Latency counts
/// from the instant the request was due: lateness of the send plus the
/// `Timing.total` the fleet returns. The schedule's `seconds` are cut into
/// [`WINDOWS`] equal slices; the submitter reads the clocks as it crosses
/// into each. Spans: `client.request` from due to answer, with
/// `fleet.submit`, `serve.queue` and `serve.execute` under it.
fn open_loop(
    handle: &FleetHandle,
    tenants: &[TenantId],
    pool: &[Tensor],
    checkers: &[Checker],
    schedule: &Schedule,
    rec: &mut Recorder,
    detail: &mut FleetDetail,
) -> Phase {
    let (tx, rx) = mpsc::channel::<Sent>();
    let slice_ns = (schedule.seconds * 1e9 / WINDOWS as f64) as u64;
    let slice_of = |a: &Arrival| ((a.due_ns / slice_ns) as usize).min(WINDOWS - 1);
    let begin = Mark::now();
    let start = begin.t;
    let mut outcomes = Vec::with_capacity(schedule.arrivals.len());
    let mut marks = vec![begin];
    std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut crossed = Vec::with_capacity(WINDOWS);
            let mut cross_into = |slice: usize| {
                while crossed.len() < slice {
                    wait_until(start + Duration::from_nanos(slice_ns * (crossed.len() as u64 + 1)));
                    crossed.push(Mark::now());
                }
            };
            for (seq, &arrival) in schedule.arrivals.iter().enumerate() {
                let frame = pool[arrival.frame].clone();
                cross_into(slice_of(&arrival));
                wait_until(start + Duration::from_nanos(arrival.due_ns));
                let send_start = Instant::now();
                let result = handle.submit(tenants[arrival.tenant], arrival.patient, frame);
                let send_end = Instant::now();
                let sent = Sent { seq: seq as u64, arrival, send_start, send_end, result };
                if tx.send(sent).is_err() {
                    break;
                }
            }
            cross_into(WINDOWS - 1);
            crossed
        });

        for sent in rx {
            let a = sent.arrival;
            let due = start + Duration::from_nanos(a.due_ns);
            let lateness_ms = (sent.send_start - due).as_secs_f64() * 1e3;
            let interactive = is_interactive(a.tenant);
            let limit_ms = if interactive { INTERACTIVE_LIMIT_MS } else { BATCH_LIMIT_MS };
            detail.submit_us.push((sent.send_end - sent.send_start).as_secs_f64() * 1e6);
            detail.batch_sent += u64::from(!interactive);

            let outcome = match sent.result {
                Err(e) => {
                    if !interactive {
                        detail.batch_refused += 1;
                        detail.batch_shed += u64::from(e == FleetError::BatchShed);
                    }
                    Outcome::unanswered(Class::Refused, lateness_ms)
                }
                Ok(ticket) => {
                    detail.admitted += 1;
                    detail.downgraded += u64::from(ticket.downgraded);
                    detail.routed[ticket.model] += 1;
                    let model = ticket.model;
                    let resp = ticket.wait();
                    let (s, sub) = (rec.ns_at(due), rec.ns_at(sent.send_start));
                    let end = sub + resp.timing.total.as_nanos() as u64;
                    let req = rec.add("client.request", s, end, None, sent.seq);
                    rec.add("fleet.submit", sub, rec.ns_at(sent.send_end), req, sent.seq);
                    let queue_end = sub + resp.timing.queue.as_nanos() as u64;
                    rec.add("serve.queue", sub, queue_end, req, sent.seq);
                    let execute_end = queue_end + resp.timing.execute.as_nanos() as u64;
                    rec.add("serve.execute", queue_end, execute_end, req, sent.seq);
                    match &resp.result {
                        Ok(pred) => {
                            detail.serve.push_timing(&resp.timing);
                            let latency_ms = lateness_ms + resp.timing.total.as_secs_f64() * 1e3;
                            let by_tier = if interactive {
                                &mut detail.interactive_ms
                            } else {
                                &mut detail.batch_ms
                            };
                            by_tier.push(latency_ms);
                            let right = checkers[model].matches(a.frame, pred);
                            Outcome::answered(right, latency_ms, lateness_ms, limit_ms)
                        }
                        Err(ServeError::DeadlineExpired) => {
                            Outcome::unanswered(Class::Refused, lateness_ms)
                        }
                        Err(_) => Outcome::unanswered(Class::Failed, lateness_ms),
                    }
                }
            }
            .in_slice(slice_of(&a))
            .in_group(a.tenant);
            if interactive {
                detail.interactive.push(outcome);
            }
            outcomes.push(outcome);
        }
        marks.extend(submitter.join().expect("submitter thread"));
    });
    // The last slice ends when the last answer is in.
    marks.push(Mark::now());
    let slices = marks.windows(2).map(|m| m[0].until(&m[1])).collect();
    Phase { outcomes, slices, calib_ms: Vec::new(), schedule_s: Some(schedule.seconds) }
}

fn cell_stats(stats: &FleetStats) -> Vec<ServeStats> {
    stats.models.iter().flat_map(|m| m.per_shard.iter().cloned()).collect()
}

fn share(n: u64, of: u64) -> f64 {
    n as f64 / of.max(1) as f64
}

pub fn run(ctx: &Ctx) -> RunOutput {
    let pool = frame_pool(ctx.seed, ctx.hw);
    let mut ledger = Ledger::default();
    // Direct single-thread reference of every pool frame on every model: a
    // request may be routed to any of them.
    let checkers: Vec<Checker> = TABLE4_DICE_INT8
        .iter()
        .map(|&(size, _)| Checker::new(&Model::build(size, ctx.hw, ctx.seed).int8_backend(), &pool))
        .collect();

    let shutdown = |s: Setup| {
        let t0 = Instant::now();
        let stats = s.fleet.shutdown();
        (ms_since(t0), stats)
    };
    let (s, setup_s, steps, torn) = repeat_setup(ctx, || setup(ctx, &pool), shutdown);
    ledger.set("setup_s", setup_s);
    eprintln!("[fleet] set-up {setup_s:.3} s");
    let mut shutdown_ms: Vec<f64> = torn.iter().map(|(ms, _)| *ms).collect();

    let handle = s.fleet.handle();
    let schedule = |salt: u64, rate: f64, seconds: f64| {
        poisson_schedule(ctx.seed ^ salt, rate, seconds, &TENANT_MIX, PATIENT_KEYS, POOL_FRAMES)
    };

    // A traced run sends the schedule twice, spans off then on, each over
    // half the time.
    let phase_s = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut off = Recorder::new(false);
    let arrivals = schedule(0xA, RATE_PER_S, phase_s);
    let measured = open_loop(
        &handle,
        &s.tenants,
        &pool,
        &checkers,
        &arrivals,
        &mut off,
        &mut FleetDetail::default(),
    );
    eprintln!("[fleet] measured: {}", measured.summary());
    measured.end_to_end(&mut ledger);
    // The cheapest model at the ROI geometry: a second operating point of
    // the cycle model, where fixed instruction overhead sets the frame time.
    probes::dpu_sim_end_to_end(&s.models[0], &mut ledger);
    let (mut attempted, mut failed) = (measured.attempted(), measured.failed());
    let mut correct = measured.count(Class::Failed) == 0;

    let mut rec = Recorder::new(ctx.trace);
    if ctx.trace {
        // The same arrivals again, spans on.
        let before = cell_stats(&handle.stats());
        let mut d = FleetDetail::default();
        let traced = open_loop(&handle, &s.tenants, &pool, &checkers, &arrivals, &mut rec, &mut d);
        d.serve.report(&before, &cell_stats(&handle.stats()), &mut ledger);
        eprintln!("[fleet] traced:   {}", traced.summary());
        traced.client_metrics(&measured, &mut ledger);
        attempted += traced.attempted();
        failed += traced.failed();
        correct &= traced.count(Class::Failed) == 0;
        if ledger.get("client.lateness_p90_ms").unwrap_or(0.0) > 5.0 {
            eprintln!("[fleet] WARNING: the generator ran more than 5 ms late (p90); this open-loop run is void");
        }

        ledger.set("fleet.submit_p50_us", median(&d.submit_us));
        ledger.set("fleet.interactive_p50_ms", median(&d.interactive_ms));
        ledger.set("fleet.batch_p50_ms", median(&d.batch_ms));
        ledger.set("fleet.downgraded_share", share(d.downgraded, d.admitted));
        ledger.set("fleet.batch_shed_share", share(d.batch_shed, d.batch_sent));
        for (model, n) in s.models.iter().zip(d.routed) {
            ledger.set(&format!("fleet.routed_share.{}", model.size.label()), share(n, d.admitted));
        }

        let overload_s = (ctx.seconds * OVERLOAD_SECONDS_SHARE).max(1.0);
        let burst = schedule(0xB, OVERLOAD_RATE_PER_S, overload_s);
        let mut o = FleetDetail::default();
        let over = open_loop(&handle, &s.tenants, &pool, &checkers, &burst, &mut off, &mut o);
        correct &= over.count(Class::Failed) == 0;
        let interactive_ok = o.interactive.iter().filter(|x| x.class == Class::Ok).count() as u64;
        ledger.set("fleet.overload.goodput_fps", over.frames_per_s());
        ledger.set("fleet.overload.interactive_p50_ms", median(&o.interactive_ms));
        ledger.set(
            "fleet.overload.interactive_slo_met_share",
            share(interactive_ok, o.interactive.len() as u64),
        );
        ledger.set("fleet.overload.batch_refused_share", share(o.batch_refused, o.batch_sent));

        for (name, ms) in steps {
            ledger.set(name, ms);
        }
        let host = Host::Int8(s.backends[0].clone());
        correct &= probes::probe_host(&s.models[0], &host, &pool, ctx.nproc, &mut rec, &mut ledger);
        probes::probe_tensor(&s.models[0], ctx.seed, &mut ledger);
        probes::probe_accelerators(&s.models[0], &mut ledger);
    }

    let (ms, stats) = shutdown(s);
    shutdown_ms.push(ms);
    ledger.set("fleet.shutdown_ms", median(&shutdown_ms));
    // Every submission the fleet counted must have ended in exactly one of
    // its outcome counters, on this instance and on the torn-down ones.
    let unbalanced: i64 = torn
        .iter()
        .map(|(_, st)| st)
        .chain([&stats])
        .flat_map(|st| st.tenants.iter())
        .map(|t| t.submitted as i64 - (t.served + t.shed + t.rejected + t.failed) as i64)
        .sum();
    ledger.set("fleet.counters_unbalanced", unbalanced as f64);
    correct &= unbalanced == 0;

    let mut checksum = crate::stats::Fnv1a::default();
    for c in &checkers {
        checksum.update(c.checksum().to_le_bytes());
    }
    RunOutput {
        attempted,
        failed,
        correct,
        output_checksum: checksum.finish(),
        ledger,
        recorder: rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seneca_fleet::ModelRegistry;
    use seneca_serve::SyntheticBackend;

    /// The routing the workload's description promises, from the Table IV
    /// constants and a cost that rises with model size.
    #[test]
    fn tenants_route_to_1m_4m_8m_and_downgrade_within_their_floor() {
        let specs: Vec<ModelSpec> = TABLE4_DICE_INT8
            .iter()
            .enumerate()
            .map(|(i, &(size, dice))| ModelSpec {
                name: size.label().to_string(),
                dice,
                cost_ms: 1.0 + i as f64,
                backend: Arc::new(SyntheticBackend::new(Duration::from_micros(10))),
            })
            .collect();
        let registry = ModelRegistry::new(specs);
        let [surgery, clinic, bulk] = tenant_specs();
        assert_eq!(registry.route_chain(&surgery), vec![0]);
        assert_eq!(registry.route_chain(&clinic), vec![2, 0, 1, 3, 4]);
        assert_eq!(registry.route_chain(&bulk), vec![3, 0, 1, 2, 4]);
        assert!(is_interactive(0) && is_interactive(1) && !is_interactive(2));
        assert!((TENANT_MIX.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wait_until_never_returns_early() {
        let t = Instant::now() + Duration::from_millis(3);
        wait_until(t);
        assert!(Instant::now() >= t);
    }
}
