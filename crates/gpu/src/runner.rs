//! GPU baseline runner: FP32 functional execution plus modelled throughput.

use crate::model::GpuModel;
use rand::{Rng, SeedableRng};
use seneca_backend::{Backend, Prediction, ThroughputReport};
use seneca_ir::{lower, LowerOptions, Lowered};
use seneca_nn::graph::Graph;
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;

/// The GPU runner: owns the FP32 graph and the device model.
#[derive(Clone)]
pub struct GpuRunner {
    /// FP32 inference graph (BN and softmax still explicit, like TF).
    pub graph: Graph,
    /// Device model.
    pub device: GpuModel,
    /// Input geometry.
    pub input_shape: Shape4,
    /// IR lowering of `graph` at `input_shape` (packed weight panels +
    /// liveness plan): the functional path.
    lowered: Arc<Lowered>,
}

impl GpuRunner {
    /// Creates a runner.
    pub fn new(graph: Graph, device: GpuModel, input_shape: Shape4) -> Self {
        let lowered = Arc::new(lower(graph.to_ir(), input_shape, &LowerOptions::reference()));
        Self { graph, device, input_shape, lowered }
    }

    /// One throughput run: modelled frame latency with seeded measurement
    /// jitter (thermals, clocks), matching the paper's σ ≈ 0.5%.
    pub fn run_throughput(&self, n_frames: usize, seed: u64) -> ThroughputReport {
        let base_ns = self.device.frame_time_ns(&self.graph, self.input_shape);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut total_ns = 0.0;
        for _ in 0..n_frames {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            total_ns += base_ns * (1.0 + 0.006 * g).max(0.5);
        }
        let fps = n_frames as f64 / (total_ns * 1e-9);
        // TDP-bound power with a whiff of measurement noise.
        let u: f64 = rng.gen_range(-1.0..1.0);
        let watt = self.device.load_power_w + 0.5 * u;
        let plan = self.lowered.plan();
        ThroughputReport {
            fps,
            watt,
            frames: n_frames,
            // One synchronous host stream; TDP-bound => the device is modelled
            // as fully busy while a frame is resident.
            threads: 1,
            busy_cores: 1.0,
            util: 1.0,
            makespan_s: total_ns * 1e-9,
            peak_arena_bytes: plan.peak_arena_bytes(4),
            total_activation_bytes: plan.total_activation_bytes(4),
        }
    }

    /// FP32 functional inference: class probabilities for one image.
    pub fn infer(&self, image: &Tensor) -> Tensor {
        self.lowered.execute_f32(image)
    }

    /// Per-pixel argmax labels.
    pub fn predict(&self, image: &Tensor) -> Vec<u8> {
        seneca_tensor::activation::argmax_channels(&self.infer(image))
    }
}

impl Backend for GpuRunner {
    fn name(&self) -> String {
        format!("gpu/{}", self.graph.name)
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        // The baseline submits frames on one synchronous stream (like the
        // paper's TF session), so the batch path is a plain sequential loop —
        // with one liveness-planned scratch arena reused across the batch.
        let mut scratch = self.lowered.make_scratch_f32();
        images
            .iter()
            .map(|img| {
                Prediction::from_f32(self.lowered.execute_f32_into(img, &mut scratch).to_tensor())
            })
            .collect()
    }

    fn throughput(&self, n_frames: usize, seed: u64) -> ThroughputReport {
        self.run_throughput(n_frames, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seneca_nn::unet::{UNet, UNetConfig};

    fn runner(seed: u64) -> GpuRunner {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg =
            UNetConfig { depth: 2, base_filters: 4, in_channels: 1, num_classes: 6, dropout: 0.0 };
        let net = UNet::new(cfg, &mut rng);
        GpuRunner::new(
            Graph::from_unet(&net, "t"),
            GpuModel::rtx2060_mobile(),
            Shape4::new(1, 1, 16, 16),
        )
    }

    #[test]
    fn throughput_is_positive_and_deterministic() {
        let r = runner(1);
        let a = r.run_throughput(100, 3);
        let b = r.run_throughput(100, 3);
        assert!(a.fps > 0.0);
        assert_eq!(a.fps, b.fps);
        assert!((a.watt - 78.0).abs() < 2.0);
    }

    #[test]
    fn repeated_runs_small_sigma() {
        let r = runner(2);
        let s = r.throughput_repeated(200, 6, 11);
        assert!(s.fps_std / s.fps_mean < 0.01);
        assert!(s.ee_mean > 0.0);
    }

    #[test]
    fn functional_predict_in_range() {
        let r = runner(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let img = Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng);
        let labels = r.predict(&img);
        assert_eq!(labels.len(), 256);
        assert!(labels.iter().all(|&l| l < 6));
    }

    #[test]
    fn backend_batch_matches_direct_execute() {
        let r = runner(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let img = Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng);
        let b: &dyn Backend = &r;
        let preds = b.infer_batch(std::slice::from_ref(&img));
        assert_eq!(preds[0].as_f32().unwrap().data(), r.infer(&img).data());
        assert_eq!(preds[0].labels, r.predict(&img));
    }
}
