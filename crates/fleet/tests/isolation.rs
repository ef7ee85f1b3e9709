//! Fleet acceptance test: tenant isolation under 2× batch overload.
//!
//! All five Table II models run on two shards (synthetic backends with
//! per-frame costs proportional to the paper's Table IV INT8 FPS, so the
//! test is host-independent). A batch tenant floods the fleet at twice
//! its model's saturation throughput while two interactive tenants keep
//! their normal rates. The fleet must stay up, shed the batch excess
//! explicitly, keep interactive p99 under its deadline with zero deadline
//! misses, and never route any tenant below its Dice floor.

use rand::Rng;
use seneca_fleet::{FleetBuilder, FleetConfig, ModelSpec, TenantSpec};
use seneca_serve::{drive, ArrivalProcess, ServeConfig, SyntheticBackend};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;
use std::time::Duration;

/// Table IV INT8 rows: (label, global Dice %, FPS).
const TABLE_IV: [(&str, f64, f64); 5] = [
    ("1M", 93.04, 335.40),
    ("2M", 93.01, 254.87),
    ("4M", 93.49, 273.17),
    ("8M", 93.65, 127.91),
    ("16M", 93.84, 98.12),
];

/// Synthetic service time: paper-shaped cost, slowed 2x so the test's
/// rates stay well inside one host thread's submission bandwidth.
fn per_frame(fps: f64) -> Duration {
    Duration::from_secs_f64(2.0 / fps)
}

fn frame() -> Tensor {
    let shape = Shape4::new(1, 1, 4, 4);
    Tensor::from_vec(shape, (0..shape.len()).map(|i| i as f32 * 0.05).collect())
}

#[test]
fn batch_overload_cannot_move_interactive_p99() {
    const SHARDS: usize = 2;
    const REPLICAS: usize = 2;
    let mut b = FleetBuilder::new(FleetConfig {
        shards: SHARDS,
        serve: ServeConfig {
            replicas: REPLICAS,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            queue_capacity: 16,
        },
        batch_inflight_cap: 8,
    });
    for (name, dice, fps) in TABLE_IV {
        b.model(ModelSpec::from_fps(
            name,
            dice,
            fps,
            Arc::new(SyntheticBackend::new(per_frame(fps))),
        ));
    }

    // The contended pair: surgery and bulk both qualify for the 1M model.
    let deadline = Duration::from_millis(150);
    let surgery = b.tenant(TenantSpec::interactive("surgery", deadline, 93.0));
    let bulk = b.tenant(TenantSpec::batch("bulk", 93.0));
    // A second interactive tenant on a different Pareto point (4M), with a
    // downgrade floor it must never be routed below.
    let clinic = b.tenant(TenantSpec::interactive("clinic", deadline, 93.4).with_floor(93.0));

    let fleet = b.start();
    let h = fleet.handle();

    // Fleet-wide saturation of the 1M model (both tenants' primary):
    // shards x replicas x the per-replica service rate (1 / per_frame).
    let per_replica_fps = TABLE_IV[0].2 / 2.0;
    let sat_fps = (SHARDS * REPLICAS) as f64 * per_replica_fps;
    let n_bulk = 600;
    let n_inter = 150;

    // One open-loop driver per tenant: (tenant, requests, rate, patients, seed).
    let loads = [
        // 2x saturation: half of this load *must* be turned away.
        (bulk, n_bulk, 2.0 * sat_fps, 64, 0xB01),
        // Interactive tenants at comfortable fractions of capacity.
        (surgery, n_inter, 0.2 * sat_fps, 32, 0x51),
        (clinic, n_inter, 0.1 * sat_fps, 32, 0xC1),
    ];
    let image = frame();
    let reports: Vec<_> = std::thread::scope(|scope| {
        let drivers: Vec<_> = loads
            .map(|(tenant, requests, rate_fps, patients, seed)| {
                let (h, image) = (&h, &image);
                scope.spawn(move || {
                    drive(
                        ArrivalProcess::OpenLoop { rate_fps },
                        requests,
                        seed,
                        |rng| h.submit(tenant, rng.gen_range(0..patients), image.clone()).ok(),
                        |ticket| ticket.wait().result.is_ok(),
                    )
                })
            })
            .into_iter()
            .collect();
        drivers.into_iter().map(|d| d.join().expect("load driver")).collect()
    });
    let stats = fleet.shutdown();

    // Every request resolved: the fleet stayed up through the overload.
    let resolved: u64 = reports.iter().map(|r| r.ok + r.errored).sum();
    assert_eq!(resolved, (n_bulk + 2 * n_inter) as u64, "all requests must resolve");

    // The batch tier was actually driven past capacity and shed explicitly.
    let bulk_stats = stats.tenant("bulk").unwrap();
    assert!(
        bulk_stats.shed + bulk_stats.rejected > 0,
        "2x batch overload must shed or reject: {bulk_stats:?}"
    );

    // Isolation: both interactive tenants served everything, on time.
    for name in ["surgery", "clinic"] {
        let t = stats.tenant(name).unwrap();
        assert_eq!(t.served, n_inter as u64, "{name} must be fully served: {t:?}");
        assert_eq!(t.rejected + t.shed + t.failed, 0, "{name} must see no refusals: {t:?}");
        assert_eq!(t.deadline_misses, 0, "batch overload moved {name}'s deadline: {t:?}");
        assert!(
            t.latency.p99_us < deadline.as_micros() as u64,
            "{name} p99 {}us exceeds the {deadline:?} deadline under batch overload",
            t.latency.p99_us
        );
    }

    // The Dice-floor invariant: no tenant was ever routed below its floor.
    for t in &stats.tenants {
        if let Some(min) = t.min_routed_dice() {
            assert!(
                min >= t.dice_floor,
                "tenant {} routed to dice {:.2} below floor {:.2}",
                t.name,
                min,
                t.dice_floor
            );
        }
    }

    // Sharding: the load actually spread across both shards of the 1M cell.
    let m1 = stats.model("1M").unwrap();
    assert_eq!(m1.per_shard.len(), SHARDS);
    for (s, cell) in m1.per_shard.iter().enumerate() {
        assert!(cell.served > 0, "shard {s} of the 1M model served nothing");
    }

    // Tier accounting (satellite): the overload landed on the batch
    // counters of the cells, never on the interactive ones.
    let shed_interactive: u64 =
        stats.models.iter().flat_map(|m| &m.per_shard).map(|c| c.shed_interactive).sum();
    assert_eq!(shed_interactive, 0, "no interactive request may be shed in any cell");
}
