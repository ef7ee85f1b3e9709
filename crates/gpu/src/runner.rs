//! GPU baseline runner: FP32 functional execution plus modelled throughput.

use crate::model::GpuModel;
use rand::{Rng, SeedableRng};
use seneca_backend::{Backend, Fp32RefBackend, Prediction, ThroughputReport};
use seneca_nn::graph::Graph;
use seneca_tensor::{Shape4, Tensor};

/// The GPU runner: the device model plus the FP32 functional path. Clones
/// share the graph and the lowered program.
#[derive(Clone)]
pub struct GpuRunner {
    /// Device model.
    pub device: GpuModel,
    /// Input geometry.
    pub input_shape: Shape4,
    /// The functional path: the host FP32 reference at one thread, since the
    /// baseline submits frames on one synchronous stream (like the paper's
    /// TF session). BN and softmax stay explicit, like TF; each BN rides in
    /// its conv's store, exactly.
    reference: Fp32RefBackend,
}

impl GpuRunner {
    /// Creates a runner.
    pub fn new(graph: Graph, device: GpuModel, input_shape: Shape4) -> Self {
        Self { device, input_shape, reference: Fp32RefBackend::new(graph, input_shape) }
    }

    /// One throughput run: modelled frame latency with seeded measurement
    /// jitter (thermals, clocks), matching the paper's σ ≈ 0.5%.
    pub fn throughput(&self, n_frames: usize, seed: u64) -> ThroughputReport {
        let base_ns = self.device.frame_time_ns(&self.reference.graph, self.input_shape);
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
        // One synchronous host stream; TDP-bound => the device is modelled
        // as fully busy while a frame is resident.
        ThroughputReport { fps, watt, threads: 1, util: 1.0 }
    }
}

impl Backend for GpuRunner {
    fn name(&self) -> String {
        format!("gpu/{}", self.reference.graph.module().name)
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        self.reference.infer_batch(images)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seneca_backend::ThroughputStats;
    use seneca_nn::unet::{UNet, UNetConfig};

    fn runner(seed: u64) -> GpuRunner {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 6, dropout: 0.0 };
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
        let a = r.throughput(100, 3);
        let b = r.throughput(100, 3);
        assert!(a.fps > 0.0);
        assert_eq!(a.fps, b.fps);
        assert!((a.watt - 78.0).abs() < 2.0);
    }

    #[test]
    fn repeated_runs_small_sigma() {
        let r = runner(2);
        let s = ThroughputStats::from_runs((11..17).map(|seed| r.throughput(200, seed)).collect())
            .unwrap();
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
        let direct = seneca_ir::execute_f32(r.reference.graph.module(), &img);
        assert_eq!(preds[0].as_f32().unwrap().data(), direct.data());
        assert_eq!(preds[0].labels, r.predict(&img));
    }
}
