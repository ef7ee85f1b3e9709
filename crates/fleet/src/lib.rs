//! # seneca-fleet
//!
//! Fleet-scale serving above `seneca-serve`: the layer that turns "one
//! model on one replica pool" into "the whole Table II family for a
//! million users". The paper's headline artifact is an accuracy-vs-FPS
//! Pareto across five U-Nets (1M–16M); this crate *operationalizes* that
//! Pareto — every tenant declares a Dice floor, and the router sends each
//! request to the cheapest registered model that still meets it.
//!
//! The stack, top to bottom:
//!
//! * [`FleetBuilder`] — registers [`ModelSpec`]s (dice/cost coordinates +
//!   backend) and [`TenantSpec`]s (tier, deadline, Dice target/floor),
//!   then starts one `seneca-serve` replica pool per `(shard, model)`;
//! * [`HashRing`] — consistent-hash request routing on a per-patient
//!   affinity key: all of a patient's frames hit the same shard, shard
//!   add/remove moves only `~1/N` of the keyspace;
//! * Dice-floor cost routing ([`ModelRegistry::route_chain`]) — cheapest
//!   model meeting the tenant's target, with overload fallback down to
//!   (never below) its floor for tenants that allow downgrade;
//! * tiered load-shedding — a batch-tier request holds one of a bounded
//!   number of per-cell in-flight slots from admission until its ticket is
//!   waited or dropped, so bulk overload cannot crowd interactive traffic
//!   out of admission (the isolation guarantee the acceptance test pins:
//!   2× batch overload, flat interactive p99);
//! * [`Router`] — the sans-IO core that makes all of the above decisions
//!   and keeps every tenant's counters as plain state; the threaded shell
//!   holds it behind one lock, and `tests/fleet_explorer.rs` steps it
//!   against fake cells on seeded schedules;
//! * [`FleetHandle`] — the admin surface: per-tenant / per-model /
//!   per-shard [`FleetStats`], plus a live [`seneca_trace::TraceReport`]
//!   export, no restart required.

#![deny(unsafe_code)]

mod fleet;
mod registry;
mod ring;
mod router;
mod tenant;

pub use fleet::{
    Fleet, FleetBuilder, FleetConfig, FleetHandle, FleetStats, FleetTicket, ModelStats,
    RoutedCount, TenantStats,
};
pub use registry::{ModelId, ModelRegistry, ModelSpec};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use router::{Admission, FleetError, Resolution, Router, TenantCounts};
pub use tenant::{TenantId, TenantSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use seneca_backend::{Backend, Prediction};
    use seneca_serve::{drive, ArrivalProcess, LoadReport, ServeError, SyntheticBackend};
    use seneca_tensor::{Shape4, Tensor};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;

    fn frame() -> Tensor {
        Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![0.1, 0.2, 0.3, 0.4])
    }

    fn two_model_fleet(shards: usize) -> (FleetBuilder, ModelId, ModelId) {
        let mut b = FleetBuilder::new(FleetConfig { shards, ..FleetConfig::default() });
        let cheap = b.model(ModelSpec::from_fps(
            "cheap",
            93.0,
            2000.0,
            Arc::new(SyntheticBackend::new(Duration::from_micros(100))),
        ));
        let fine = b.model(ModelSpec::from_fps(
            "fine",
            93.8,
            500.0,
            Arc::new(SyntheticBackend::new(Duration::from_micros(400))),
        ));
        (b, cheap, fine)
    }

    #[test]
    fn routes_to_cheapest_model_meeting_target() {
        let (mut b, _, _) = two_model_fleet(1);
        let low = b.tenant(TenantSpec::batch("low", 92.5));
        let high = b.tenant(TenantSpec::batch("high", 93.5));
        let fleet = b.start();
        let h = fleet.handle();
        let r1 = h.submit(low, 7, frame()).expect("admitted");
        assert_eq!(r1.model, 0, "low target routes to the cheap model");
        let r2 = h.submit(high, 7, frame()).expect("admitted");
        assert_eq!(r2.model, 1, "high target requires the fine model");
        r1.wait().result.expect("served");
        r2.wait().result.expect("served");
        let stats = fleet.shutdown();
        assert_eq!(stats.tenant("low").unwrap().served, 1);
        assert_eq!(stats.tenant("high").unwrap().routed[1].count, 1);
        assert_eq!(stats.model("cheap").unwrap().served, 1);
    }

    #[test]
    fn affinity_key_pins_the_shard() {
        let (mut b, _, _) = two_model_fleet(4);
        let t = b.tenant(TenantSpec::batch("t", 92.0));
        let fleet = b.start();
        let h = fleet.handle();
        for key in [3u64, 99, 12345] {
            let expect = h.shard_for(key);
            for _ in 0..3 {
                let ticket = h.submit(t, key, frame()).expect("admitted");
                assert_eq!(ticket.shard, expect, "same key, same shard");
                ticket.wait().result.expect("served");
            }
        }
        fleet.shutdown();
    }

    #[test]
    fn unknown_tenant_is_refused() {
        let (b, _, _) = two_model_fleet(1);
        let fleet = b.start();
        assert_eq!(fleet.handle().submit(42, 0, frame()).unwrap_err(), FleetError::UnknownTenant);
        fleet.shutdown();
    }

    #[test]
    #[should_panic(expected = "no registered model reaches it")]
    fn unreachable_dice_target_fails_at_start() {
        let (mut b, _, _) = two_model_fleet(1);
        b.tenant(TenantSpec::batch("greedy", 99.9));
        b.start();
    }

    #[test]
    fn batch_tier_sheds_at_the_inflight_cap() {
        // One slow model, cap 2: a burst of batch submissions must shed
        // beyond the cap while the queue itself still has room.
        let mut b = FleetBuilder::new(FleetConfig {
            shards: 1,
            serve: seneca_serve::ServeConfig {
                replicas: 1,
                max_batch: 1,
                max_delay: Duration::ZERO,
                queue_capacity: 16,
            },
            batch_inflight_cap: 2,
        });
        b.model(ModelSpec::from_fps(
            "slow",
            93.0,
            20.0,
            Arc::new(SyntheticBackend::new(Duration::from_millis(50))),
        ));
        let t = b.tenant(TenantSpec::batch("bulk", 93.0));
        let fleet = b.start();
        let h = fleet.handle();
        let a = h.submit(t, 0, frame()).expect("slot 1");
        let bt = h.submit(t, 1, frame()).expect("slot 2");
        assert_eq!(h.submit(t, 2, frame()).unwrap_err(), FleetError::BatchShed);
        a.wait().result.expect("served");
        // A freed slot re-admits.
        let c = h.submit(t, 3, frame()).expect("slot freed by resolution");
        bt.wait().result.expect("served");
        c.wait().result.expect("served");
        let stats = fleet.shutdown();
        let ts = stats.tenant("bulk").unwrap();
        assert_eq!(ts.shed, 1, "the capped submission counts as a tier shed");
        assert_eq!(ts.served, 3);
    }

    #[test]
    fn interactive_tier_ignores_the_batch_cap() {
        let mut b = FleetBuilder::new(FleetConfig {
            shards: 1,
            serve: seneca_serve::ServeConfig {
                replicas: 1,
                max_batch: 1,
                max_delay: Duration::ZERO,
                queue_capacity: 8,
            },
            batch_inflight_cap: 1,
        });
        b.model(ModelSpec::from_fps(
            "m",
            93.0,
            100.0,
            Arc::new(SyntheticBackend::new(Duration::from_millis(10))),
        ));
        let bulk = b.tenant(TenantSpec::batch("bulk", 93.0));
        let surg = b.tenant(TenantSpec::interactive("surgery", Duration::from_millis(500), 93.0));
        let fleet = b.start();
        let h = fleet.handle();
        let t1 = h.submit(bulk, 0, frame()).expect("batch slot");
        assert_eq!(h.submit(bulk, 1, frame()).unwrap_err(), FleetError::BatchShed);
        // Interactive admission is untouched by the saturated batch cap.
        let t2 = h.submit(surg, 2, frame()).expect("interactive must admit");
        t1.wait().result.expect("served");
        t2.wait().result.expect("served");
        fleet.shutdown();
    }

    /// A backend that reports each batch as started and then holds it until
    /// the test releases it: the test, not the scheduler, decides how long
    /// the model stays busy.
    struct Gated {
        started: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl Backend for Gated {
        fn name(&self) -> String {
            "gated".into()
        }

        fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
            self.started.lock().expect("gate lock").send(()).expect("test listens");
            self.release.lock().expect("gate lock").recv().expect("test releases");
            SyntheticBackend::new(Duration::ZERO).infer_batch(images)
        }
    }

    #[test]
    fn overload_downgrade_stays_at_or_above_the_floor() {
        // The fine model has one queue slot and a backend held at a gate;
        // the downgrade-tolerant tenant falls back to the cheap model, the
        // pinned tenant is rejected instead.
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let mut b = FleetBuilder::new(FleetConfig {
            shards: 1,
            serve: seneca_serve::ServeConfig {
                replicas: 1,
                max_batch: 1,
                max_delay: Duration::ZERO,
                queue_capacity: 1,
            },
            batch_inflight_cap: 8,
        });
        b.model(ModelSpec::from_fps(
            "cheap",
            93.0,
            1000.0,
            Arc::new(SyntheticBackend::new(Duration::from_micros(200))),
        ));
        let gated = Gated { started: Mutex::new(started_tx), release: Mutex::new(release_rx) };
        b.model(ModelSpec::from_fps("fine", 93.8, 10.0, Arc::new(gated)));
        let flex = b.tenant(TenantSpec::batch("flex", 93.8).with_floor(93.0));
        let pinned = b.tenant(TenantSpec::batch("pinned", 93.8));
        let fleet = b.start();
        let h = fleet.handle();

        // Saturate the fine model: one executing (held at the gate) + one
        // queued; the next flex request has to go elsewhere.
        let executing = h.submit(flex, 0, frame()).expect("admitted");
        started.recv().expect("the fine model runs the first request");
        let queued = h.submit(flex, 1, frame()).expect("admitted to the free queue slot");
        assert!(!executing.downgraded && !queued.downgraded);
        let downgraded = h.submit(flex, 2, frame()).expect("flex tenant must downgrade, not fail");
        assert!(downgraded.downgraded, "fine-model overload must downgrade");
        assert_eq!(downgraded.model, 0, "downgrade lands on the cheap model");
        // The pinned tenant sees the same overload and is refused.
        assert_eq!(
            h.submit(pinned, 99, frame()).unwrap_err(),
            FleetError::Overloaded(ServeError::QueueFull)
        );
        downgraded.wait().result.expect("served on the cheap model");
        for t in [executing, queued] {
            release.send(()).expect("the fine model waits at the gate");
            t.wait().result.expect("served on the fine model");
        }
        let stats = fleet.shutdown();
        let flex_stats = stats.tenant("flex").unwrap();
        assert_eq!(flex_stats.downgraded, 1);
        assert!(flex_stats.min_routed_dice().unwrap() >= flex_stats.dice_floor);
        assert_eq!(stats.tenant("pinned").unwrap().rejected, 1);
    }

    #[test]
    fn stats_serialize_to_json() {
        let (mut b, _, _) = two_model_fleet(2);
        let t = b.tenant(TenantSpec::batch("t", 92.0));
        let fleet = b.start();
        fleet.handle().submit_wait(t, 5, frame()).expect("served").result.expect("ok");
        let stats = fleet.shutdown();
        let json = serde_json::to_string(&stats).expect("serializable");
        assert!(json.contains("\"tenants\""));
        assert!(json.contains("\"per_shard\""));
        assert!(json.contains("\"dice_floor\""));
    }

    #[test]
    fn trace_report_exports_live() {
        let (mut b, _, _) = two_model_fleet(1);
        let t = b.tenant(TenantSpec::batch("t", 92.0));
        let fleet = b.start();
        let h = fleet.handle();
        let enabled = seneca_trace::enabled();
        seneca_trace::set_enabled(true);
        h.submit_wait(t, 1, frame()).expect("served").result.expect("ok");
        let report = h.trace_report();
        seneca_trace::set_enabled(enabled);
        // The live fleet shows up in the serving domain without restart.
        assert!(
            report.get("serve", "replica_exec").is_some_and(|r| r.count >= 1),
            "live trace must include the fleet's replica executions"
        );
        fleet.shutdown();
    }

    #[test]
    fn mixed_load_drives_all_tenants() {
        let (mut b, _, _) = two_model_fleet(2);
        let bulk = b.tenant(TenantSpec::batch("bulk", 92.5));
        let surg = b.tenant(TenantSpec::interactive("surgery", Duration::from_millis(500), 93.5));
        let fleet = b.start();
        let (h, image) = (fleet.handle(), frame());
        let reports: Vec<LoadReport> = std::thread::scope(|scope| {
            let drivers: Vec<_> = [(bulk, 1), (surg, 2)]
                .map(|(tenant, seed)| {
                    let (h, image) = (&h, &image);
                    scope.spawn(move || {
                        drive(
                            ArrivalProcess::ClosedLoop { clients: 2 },
                            20,
                            seed,
                            |rng| h.submit(tenant, rng.gen_range(0..64), image.clone()).ok(),
                            |ticket| ticket.wait().result.is_ok(),
                        )
                    })
                })
                .into_iter()
                .collect();
            drivers.into_iter().map(|d| d.join().expect("load driver")).collect()
        });
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.ok, 20, "closed loop over an uncontended fleet serves all");
        }
        let stats = fleet.shutdown();
        assert_eq!(stats.tenant("bulk").unwrap().served, 20);
        assert_eq!(stats.tenant("surgery").unwrap().served, 20);
        fleet_totals_are_consistent(&stats);
    }

    fn assert_balanced(t: &TenantStats) {
        assert_eq!(t.submitted, t.served + t.shed + t.rejected + t.failed, "{t:?}");
    }

    #[test]
    fn a_dropped_ticket_counts_as_failed_and_frees_its_slot() {
        let mut b = FleetBuilder::new(FleetConfig {
            shards: 1,
            serve: seneca_serve::ServeConfig {
                replicas: 1,
                max_batch: 1,
                max_delay: Duration::ZERO,
                queue_capacity: 4,
            },
            batch_inflight_cap: 1,
        });
        b.model(ModelSpec::from_fps(
            "m",
            93.0,
            100.0,
            Arc::new(SyntheticBackend::new(Duration::from_millis(5))),
        ));
        let t = b.tenant(TenantSpec::batch("bulk", 93.0));
        let fleet = b.start();
        let h = fleet.handle();
        drop(h.submit(t, 0, frame()).expect("admitted"));
        // The dropped ticket gave its only batch slot back.
        h.submit(t, 1, frame()).expect("slot freed by the drop").wait().result.expect("served");
        let stats = fleet.shutdown();
        let ts = stats.tenant("bulk").unwrap();
        assert_eq!((ts.submitted, ts.served, ts.failed), (2, 1, 1), "{ts:?}");
        assert_balanced(ts);
    }

    /// A backend that panics on a frame whose first value is negative.
    struct Fragile;

    impl Backend for Fragile {
        fn name(&self) -> String {
            "fragile".into()
        }

        fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
            assert!(images.iter().all(|x| x.data()[0] >= 0.0), "fragile backend panics");
            SyntheticBackend::new(Duration::ZERO).infer_batch(images)
        }
    }

    #[test]
    fn a_panicking_backend_fails_its_request_not_the_fleet() {
        let (mut b, _, _) = two_model_fleet(1);
        b.model(ModelSpec::from_fps("fragile", 99.0, 10.0, Arc::new(Fragile)));
        let t = b.tenant(TenantSpec::interactive("t", Duration::from_secs(5), 99.0));
        let fleet = b.start();
        let h = fleet.handle();
        let poison = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![-1.0, 0.0, 0.0, 0.0]);
        let resp = h.submit_wait(t, 0, poison).expect("admitted");
        assert_eq!(resp.result.unwrap_err(), ServeError::BackendFailed);
        h.submit_wait(t, 0, frame()).expect("admitted after the panic").result.expect("served");
        let stats = fleet.shutdown();
        let ts = stats.tenant("t").unwrap();
        assert_eq!((ts.submitted, ts.served, ts.failed), (2, 1, 1), "{ts:?}");
        assert_balanced(ts);
    }

    /// Cross-checks tenant-side and model-side accounting.
    fn fleet_totals_are_consistent(stats: &FleetStats) {
        let routed: u64 = stats.tenants.iter().flat_map(|t| t.routed.iter().map(|r| r.count)).sum();
        let submitted_cells: u64 = stats.models.iter().map(|m| m.submitted).sum();
        assert_eq!(routed, submitted_cells, "every admission maps to one cell submission");
    }
}
