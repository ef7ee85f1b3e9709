//! Serving-layer demo: saturate a synthetic dual-core backend, then push it
//! into overload with admission control and deadlines engaged.
//!
//! ```text
//! cargo run --release -p seneca-serve --example serve_demo          # full demo
//! cargo run --release -p seneca-serve --example serve_demo -- smoke # CI smoke
//! ```

use seneca_backend::Backend;
use seneca_serve::{run_load, LoadSpec, ServeConfig, Server, SyntheticBackend};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;
use std::time::Duration;

fn frame() -> Tensor {
    let shape = Shape4::new(1, 3, 8, 8);
    let data = (0..shape.len()).map(|i| ((i * 37) % 255) as f32 / 127.0 - 1.0).collect();
    Tensor::from_vec(shape, data)
}

fn main() {
    let smoke = std::env::args().nth(1).as_deref() == Some("smoke");
    // Per-frame service time and request counts scale down in smoke mode so
    // the demo finishes in well under a second on CI.
    let per_frame = Duration::from_millis(if smoke { 1 } else { 4 });
    let n_sat = if smoke { 60 } else { 400 };
    let n_over = if smoke { 80 } else { 400 };
    let backend = Arc::new(SyntheticBackend::new(per_frame));
    let config = ServeConfig {
        replicas: 2,
        max_batch: 4,
        max_delay: Duration::from_millis(2),
        queue_capacity: 8,
    };

    // Phase 1 — closed-loop saturation: enough always-busy clients that the
    // measured served-FPS is the service capacity.
    println!("== phase 1: closed-loop saturation ==");
    let server = Server::start(backend.clone(), config.clone());
    run_load(&server.handle(), &frame(), &LoadSpec::closed(n_sat, 8, 42));
    let stats = server.shutdown();
    let sat_fps = stats.served_fps;
    println!(
        "backend {} | saturation {:.0} fps | mean batch {:.2} | p50/p99 total {:.1}/{:.1} ms",
        backend.name(),
        sat_fps,
        stats.mean_batch,
        stats.total_interactive.p50_us as f64 / 1000.0,
        stats.total_interactive.p99_us as f64 / 1000.0,
    );

    // Phase 2 — open-loop overload at 2x saturation, with rejection instead
    // of unbounded queueing and a deadline on every request.
    println!("\n== phase 2: open-loop overload at 2x saturation ==");
    let deadline = Duration::from_millis(if smoke { 60 } else { 120 });
    let server = Server::start(backend.clone(), config);
    let spec = LoadSpec {
        deadline: Some(deadline),
        interactive_fraction: 0.5,
        ..LoadSpec::open(n_over, 2.0 * sat_fps, 43)
    };
    let rep = run_load(&server.handle(), &frame(), &spec);
    let stats = server.shutdown();
    println!(
        "offered {:.0} fps | served {:.0} fps | ok {} | rejected {} | shed {} | miss rate {:.1}%",
        rep.offered_fps,
        stats.served_fps,
        rep.ok,
        stats.rejected,
        stats.shed_expired,
        100.0 * stats.miss_rate(),
    );
    println!(
        "interactive p50/p95/p99 {:.1}/{:.1}/{:.1} ms (deadline {} ms) | batch p99 {:.1} ms",
        stats.total_interactive.p50_us as f64 / 1000.0,
        stats.total_interactive.p95_us as f64 / 1000.0,
        stats.total_interactive.p99_us as f64 / 1000.0,
        deadline.as_millis(),
        stats.total_batch.p99_us as f64 / 1000.0,
    );
    assert!(stats.served > 0, "overloaded server must keep serving");
    assert!(stats.rejected + stats.shed_expired > 0, "2x overload must shed load");
}
