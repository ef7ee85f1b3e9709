//! Criterion benchmarks of the IR-lowered executors: the liveness-planned
//! scratch arena (zero steady-state allocation) and the pack-once weight
//! panels (per-frame GEMMs pack activations only), per dtype.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use seneca_ir::{lower, LowerOptions};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{UNet, UNetConfig};
use seneca_quant::{fuse, quantize_post_training, PtqConfig};
use seneca_tensor::{Shape4, Tensor};

fn setup(depth: usize, base_filters: usize) -> (Graph, Tensor) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let cfg = UNetConfig { depth, base_filters, in_channels: 1, num_classes: 6, dropout: 0.0 };
    let net = UNet::new(cfg, &mut rng);
    let graph = Graph::from_unet(&net, format!("d{depth}f{base_filters}"));
    let img = Tensor::he_normal(Shape4::new(1, 1, 64, 64), &mut rng);
    (graph, img)
}

fn bench_fp32_lowered(c: &mut Criterion) {
    let (graph, img) = setup(3, 8);
    let lowered = lower(graph.to_ir(), img.shape(), &LowerOptions::reference());
    let mut scratch = lowered.make_scratch_f32();
    c.bench_function("fp32/lowered/d3f8@64", |b| {
        b.iter(|| lowered.execute_f32_into(&img, &mut scratch).to_tensor())
    });
}

fn bench_int8_lowered(c: &mut Criterion) {
    let (graph, img) = setup(3, 8);
    let fg = fuse(&graph);
    let (qg, _) = quantize_post_training(&fg, std::slice::from_ref(&img), &PtqConfig::default());
    let q = qg.quantize_input(&img);
    let lowered = lower(qg.to_ir(), img.shape(), &LowerOptions::reference());
    let mut scratch = lowered.make_scratch_i8();
    c.bench_function("int8/lowered/d3f8@64", |b| {
        b.iter(|| lowered.execute_i8_into(&q, &mut scratch).to_qtensor())
    });
}

criterion_group!(benches, bench_fp32_lowered, bench_int8_lowered);
criterion_main!(benches);
