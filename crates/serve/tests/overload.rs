//! Acceptance test for the serving layer's overload behaviour: at 2x the
//! measured saturation throughput, with a full queue refusing admission and
//! per-request deadlines, the service must stay up, keep interactive p99
//! under the deadline, and report explicit rejections/sheds.

use seneca_serve::{run_load, LoadSpec, ServeConfig, Server, SyntheticBackend};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;
use std::time::Duration;

fn frame() -> Tensor {
    let shape = Shape4::new(1, 1, 4, 4);
    Tensor::from_vec(shape, (0..shape.len()).map(|i| i as f32 * 0.1).collect())
}

#[test]
fn overload_sheds_but_keeps_interactive_slo() {
    // Deterministic service time: 2 replicas x 4 ms/frame => ~500 fps
    // capacity, independent of host speed.
    let backend = Arc::new(SyntheticBackend::new(Duration::from_millis(4)));
    let config = ServeConfig {
        replicas: 2,
        max_batch: 4,
        max_delay: Duration::from_millis(2),
        queue_capacity: 8,
    };

    // Measure saturation closed-loop.
    let server = Server::start(backend.clone(), config.clone());
    let sat =
        run_load(&server.handle(), &frame(), &LoadSpec::closed(120, 2 * config.replicas, 0xBEEF));
    let sat_fps = server.shutdown().served_fps;
    assert!(sat_fps > 100.0, "synthetic dual replica must exceed 100 fps, got {sat_fps}");
    assert_eq!(sat.ok, 120, "a closed loop with fewer clients than queue slots serves everything");

    // Open-loop Poisson at 2x saturation with a 100 ms deadline.
    let deadline = Duration::from_millis(100);
    let server = Server::start(backend, config);
    let spec = LoadSpec {
        interactive_fraction: 0.5,
        deadline: Some(deadline),
        ..LoadSpec::open(200, 2.0 * sat_fps, 0xCAFE)
    };
    let rep = run_load(&server.handle(), &frame(), &spec);
    let stats = server.shutdown();

    // Every ticket resolved: the service stayed up through the overload.
    assert_eq!(rep.ok + rep.errored, 200, "all requests must resolve");
    assert!(stats.served > 0, "must keep serving under overload");
    // Excess load turns into explicit rejections/sheds, not a hidden backlog.
    assert!(
        stats.rejected + stats.shed_expired > 0,
        "2x offered load must reject or shed: {stats:?}"
    );
    assert_eq!(stats.rejected + stats.shed_expired + stats.served + stats.failed, stats.submitted);
    // Interactive latency stays under the deadline: the bounded queue caps
    // the worst-case wait at (queue + in-flight) / service-rate, far below
    // 100 ms for this configuration.
    let p99 = stats.total_interactive.p99_us;
    assert!(
        p99 < deadline.as_micros() as u64,
        "interactive p99 {p99}us must stay under the {deadline:?} deadline: {stats:?}"
    );
    assert!(stats.total_interactive.count > 0, "some interactive traffic must be served");
}
