//! The headline reproduction test: the *shape* of the paper's performance
//! results must hold on the simulated hardware. Covers Table IV orderings,
//! the abstract's 4.65x / 12.7x claims, Fig. 3 thread scaling and the
//! power envelope — all at the paper's 256x256 DPU geometry.
//!
//! Weights are random (throughput is weight-value independent), so no
//! training is needed and the test runs in seconds.

use rand::SeedableRng;
use seneca::backend::ThroughputStats;
use seneca_dpu::arch::DpuArch;
use seneca_dpu::runtime::{DpuRunner, RuntimeConfig, ThroughputReport};
use seneca_gpu::{GpuModel, GpuRunner};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_quant::{fuse, quantize_post_training, PtqConfig};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;

fn throughputs(size: ModelSize, threads: usize) -> (ThroughputReport, ThroughputReport) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let net = UNet::from_size(size, &mut rng);
    let graph = Graph::from_unet(&net, size.label());
    let fg = fuse(&graph);
    let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)];
    let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
    let input = Shape4::new(1, 1, 256, 256);
    let xm = Arc::new(seneca_dpu::compile(&qg, input, DpuArch::b4096_zcu104()));
    let dpu = DpuRunner::new(xm, RuntimeConfig { threads }).throughput(2000, 3);
    let gpu = GpuRunner::new(graph, GpuModel::rtx2060_mobile(), input).throughput(2000, 3);
    (dpu, gpu)
}

#[test]
fn table4_orderings_and_headline_ratios() {
    let results: Vec<(ThroughputReport, ThroughputReport)> =
        ModelSize::ALL.iter().map(|&s| throughputs(s, 4)).collect();
    let fps_int8: Vec<f64> = results.iter().map(|(d, _)| d.fps).collect();
    let fps_fp32: Vec<f64> = results.iter().map(|(_, g)| g.fps).collect();

    // DPU: 1M > 4M > 2M > 8M > 16M (Table IV INT8 column).
    assert!(fps_int8[0] > fps_int8[2], "1M > 4M: {fps_int8:?}");
    assert!(fps_int8[2] > fps_int8[1], "4M > 2M: {fps_int8:?}");
    assert!(fps_int8[1] > fps_int8[3], "2M > 8M: {fps_int8:?}");
    assert!(fps_int8[3] > fps_int8[4], "8M > 16M: {fps_int8:?}");

    // GPU: 2M > 1M > 4M > 8M > 16M (Table IV FP32 column).
    assert!(fps_fp32[1] > fps_fp32[0], "2M > 1M on GPU: {fps_fp32:?}");
    assert!(fps_fp32[0] > fps_fp32[2] && fps_fp32[2] > fps_fp32[3] && fps_fp32[3] > fps_fp32[4]);

    // Abstract: 1M speedup ≈ 4.65x, EE gain ≈ 12.7x. Accept the band
    // 3.5-6x and 9-16x (shape, not absolute).
    let speedup = fps_int8[0] / fps_fp32[0];
    assert!((3.5..6.0).contains(&speedup), "1M FPS speedup {speedup:.2}");
    let ee_gain = results[0].0.energy_efficiency() / results[0].1.energy_efficiency();
    assert!((9.0..16.0).contains(&ee_gain), "1M EE gain {ee_gain:.2}");

    // EE gain shrinks for bigger models (12.76x @1M vs 6.63x @16M).
    let ee_gain_16m = results[4].0.energy_efficiency() / results[4].1.energy_efficiency();
    assert!(ee_gain_16m < ee_gain * 0.75, "EE gain must shrink: {ee_gain:.1} -> {ee_gain_16m:.1}");

    // Power envelopes: FPGA 24-32 W, GPU ~78 W (Table IV).
    for (d, g) in &results {
        assert!((23.0..33.0).contains(&d.watt), "FPGA power {:.1} W", d.watt);
        assert!((75.0..81.0).contains(&g.watt), "GPU power {:.1} W", g.watt);
    }

    // Energy ratio: FPGA uses < 16% of the GPU joules per frame (paper:
    // 7.8%-15.14%).
    for (d, g) in &results {
        let ratio = (d.watt / d.fps) / (g.watt / g.fps);
        assert!(ratio < 0.20, "energy per frame ratio {ratio:.3}");
    }
}

#[test]
fn fig3_thread_scaling_saturates_at_four() {
    let ee: Vec<f64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            let (d, _) = throughputs(ModelSize::M1, t);
            d.energy_efficiency()
        })
        .collect();
    assert!(ee[1] > ee[0] * 1.2, "2 threads should clearly beat 1: {ee:?}");
    assert!(ee[2] > ee[1], "4 threads beat 2: {ee:?}");
    // §IV-B: "instantiating eight or more threads requires more power
    // without a gain in FPS".
    assert!(ee[3] < ee[2], "8 threads must not improve EE: {ee:?}");
}

#[test]
fn fp32_dpu_equivalent_would_not_fit_the_story() {
    // Sanity on Eq. 3 bookkeeping: EE == FPS/W == frames/J on both targets.
    let (d, g) = throughputs(ModelSize::M1, 4);
    assert!((d.energy_efficiency() - d.fps / d.watt).abs() < 1e-9);
    assert!((g.energy_efficiency() - g.fps / g.watt).abs() < 1e-9);
}

#[test]
fn throughput_sigma_is_paper_small() {
    // Table IV: σ(FPS) ≈ 0.1-0.5% of μ over 10 runs.
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let net = UNet::from_size(ModelSize::M1, &mut rng);
    let fg = fuse(&Graph::from_unet(&net, "1M"));
    let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)];
    let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
    let xm =
        Arc::new(seneca_dpu::compile(&qg, Shape4::new(1, 1, 256, 256), DpuArch::b4096_zcu104()));
    let runner = DpuRunner::new(xm, RuntimeConfig::default());
    let stats =
        ThroughputStats::from_runs((5..15).map(|seed| runner.throughput(2000, seed)).collect())
            .unwrap();
    assert!(stats.fps_std / stats.fps_mean < 0.01, "σ/μ = {}", stats.fps_std / stats.fps_mean);
    assert_eq!(stats.runs.len(), 10);
}
