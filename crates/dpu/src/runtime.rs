//! The VART-style asynchronous runtime.
//!
//! VART lets host threads "asynchronously submit and collect jobs to/from
//! the accelerator" (§III-E). Two execution paths are provided:
//!
//! * [`Backend::infer_batch`] — the [`seneca_backend::InferenceSession`]
//!   (worker-side INT8 quantisation, per-worker scratch arenas) running the
//!   bit-exact INT8 executor; used by every accuracy experiment;
//! * [`DpuRunner::throughput`] — a `seneca-hwsim` closed-network
//!   simulation of the same pipeline (ARM pre-process → DPU core → ARM
//!   post-process) with the cost model supplying DPU service times; used by
//!   the FPS / Watt / EE sweeps (Table IV, Fig. 3).
//!
//! Both paths resolve their worker-thread count through the same
//! [`RuntimeConfig::worker_threads`] helper, so the functional pool and the
//! simulated pipeline population can never drift apart.

use crate::executor;
use crate::perf::frame_cost;
use crate::power::{PowerInputs, Zcu104Power};
use crate::xmodel::XModel;
use rand::{Rng, SeedableRng};
use seneca_backend::{Backend, InferenceEngine, InferenceSession, Prediction};
use seneca_hwsim::{simulate_closed_pipeline, Resource, StageSpec};
use seneca_ir::QScratch;
use seneca_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

// The runtime's measurement vocabulary is the workspace-wide one.
pub use seneca_backend::{ThroughputReport, ThroughputStats};

/// Runtime configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Runner threads (the paper sweeps 1, 2, 4 and discusses 8).
    pub threads: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self { threads: 4 }
    }
}

impl RuntimeConfig {
    /// Worker threads for a `jobs`-frame run — the single source of truth
    /// shared by the functional thread pool and the throughput simulation.
    pub fn worker_threads(&self, jobs: usize) -> usize {
        seneca_backend::resolve_worker_threads(self.threads, jobs)
    }
}

/// The runner: owns a compiled xmodel and a runtime configuration.
#[derive(Clone)]
pub struct DpuRunner {
    /// Compiled model.
    pub xmodel: Arc<XModel>,
    /// Runtime configuration.
    pub config: RuntimeConfig,
}

impl DpuRunner {
    /// Creates a runner.
    pub fn new(xmodel: Arc<XModel>, config: RuntimeConfig) -> Self {
        assert!(config.threads >= 1, "need at least one runner thread");
        Self { xmodel, config }
    }

    /// ARM host cores (the ZCU104's Cortex-A53 has 4).
    const ARM_CORES: usize = 4;
    /// Pre-processing time per input pixel on one ARM core (ns): rescale to
    /// the xmodel's input scale + INT8 quantisation.
    const PRE_NS_PER_PIXEL: f64 = 14.0;
    /// Post-processing time per output pixel (ns): 6-channel argmax.
    const POST_NS_PER_PIXEL: f64 = 26.0;
    /// Relative service-time jitter (DDR contention, scheduler noise).
    const JITTER_SIGMA: f64 = 0.004;

    /// Simulated throughput run over `n_frames` frames, on the ZCU104's 4 ARM
    /// cores and the xmodel's DPU cores, with board power from
    /// [`Zcu104Power::default`].
    ///
    /// The seed drives the per-job jitter; the paper's μ±σ over 10 runs maps
    /// to 10 different seeds.
    pub fn throughput(&self, n_frames: usize, seed: u64) -> ThroughputReport {
        let xm = &self.xmodel;
        let threads = self.config.worker_threads(n_frames);
        let cost = frame_cost(xm, &xm.arch);
        let hw = xm.input_shape.hw() as f64;
        let pre_ns = hw * Self::PRE_NS_PER_PIXEL;
        let post_ns = hw * Self::POST_NS_PER_PIXEL;

        // Per-job multiplicative jitter, one factor per (job, stage).
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sigma = Self::JITTER_SIGMA;
        let jitter: Vec<f64> = (0..n_frames * 3)
            .map(|_| {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (1.0 + sigma * g).max(0.5)
            })
            .collect();

        let resources =
            [Resource::new("arm", Self::ARM_CORES), Resource::new("dpu", xm.arch.cores)];
        let stages =
            [StageSpec { resource: 0 }, StageSpec { resource: 1 }, StageSpec { resource: 0 }];
        let base = [pre_ns, cost.serial_ns as f64, post_ns];
        let rep = simulate_closed_pipeline(&resources, &stages, threads, n_frames, |job, stage| {
            (base[stage] * jitter[(job * 3 + stage) % jitter.len()]) as u64
        });

        let fps = rep.throughput_per_s();
        let util = rep.utilisation(1, xm.arch.cores);
        let arm_busy_cores = rep.utilisation(0, Self::ARM_CORES) * Self::ARM_CORES as f64;
        let ddr_gbps = xm.stats.fm_traffic_bytes as f64 * fps / 1e9;
        let watt = Zcu104Power::default().board_power_w(&PowerInputs {
            dpu_busy_cores: util * xm.arch.cores as f64,
            compute_intensity: cost.compute_intensity(),
            arm_busy_cores,
            arm_cores: Self::ARM_CORES,
            ddr_gbps,
            threads,
        });

        ThroughputReport { fps, watt, threads, util }
    }
}

impl InferenceEngine for DpuRunner {
    /// A worker is its scratch pool (per-node activations, GEMM strips).
    type Worker = QScratch;

    fn new_worker(&self) -> QScratch {
        self.xmodel.lowered().make_scratch_i8()
    }

    fn infer(&self, scratch: &mut QScratch, image: &Tensor) -> Prediction {
        // Worker-side quantisation: the FP32 frame is borrowed from the
        // caller's batch, the INT8 copy is created on the thread that runs it.
        let input = {
            let _sp =
                seneca_trace::span_bytes("session", "quantize", image.data().len() as u64 * 4);
            self.xmodel.quantize_input(image)
        };
        Prediction::from_i8(executor::run(&self.xmodel, &input, scratch).to_qtensor())
    }
}

impl Backend for DpuRunner {
    fn name(&self) -> String {
        format!("dpu/{}", self.xmodel.name)
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        InferenceSession::new(self, self.config.threads).run(images)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::DpuArch;
    use crate::compiler::compile;
    use rand::SeedableRng;
    use seneca_nn::graph::Graph;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_quant::{fuse, quantize_post_training, PtqConfig};
    use seneca_tensor::{QTensor, Shape4};

    fn runner(threads: usize) -> (DpuRunner, Vec<Tensor>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 6, dropout: 0.0 };
        let net = UNet::new(cfg, &mut rng);
        let fg = fuse(&Graph::from_unet(&net, "t"));
        let images: Vec<Tensor> = (0..6)
            .map(|_| {
                let mut t = Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng);
                for v in t.data_mut() {
                    *v = v.clamp(-1.0, 1.0);
                }
                t
            })
            .collect();
        let (qg, _) = quantize_post_training(&fg, &images, &PtqConfig::default());
        let xm = compile(&qg, Shape4::new(1, 1, 16, 16), DpuArch::b4096_zcu104());
        let config = RuntimeConfig { threads };
        (DpuRunner::new(Arc::new(xm), config), images)
    }

    /// What the quantized graph computes for `img`, per the naive oracle.
    fn oracle(xm: &XModel, img: &Tensor) -> QTensor {
        let m = xm.qgraph.module();
        seneca_ir::oracle::run_i8(m, &xm.quantize_input(img)).swap_remove(m.output)
    }

    #[test]
    fn throughput_improves_with_threads_then_saturates() {
        let mut fps = vec![];
        for threads in [1usize, 2, 4, 8] {
            let (r, _) = runner(threads);
            fps.push(r.throughput(300, 1).fps);
        }
        assert!(fps[1] > fps[0] * 1.2, "2 threads should beat 1: {fps:?}");
        assert!(fps[2] >= fps[1], "{fps:?}");
        // Saturation: 8 threads buys < 3%.
        assert!(fps[3] < fps[2] * 1.03, "{fps:?}");
    }

    #[test]
    fn more_threads_past_saturation_cost_power() {
        let (r4, _) = runner(4);
        let (r8, _) = runner(8);
        let t4 = r4.throughput(300, 1);
        let t8 = r8.throughput(300, 1);
        assert!(t8.watt > t4.watt, "8 threads must draw more power");
        assert!(t8.energy_efficiency() < t4.energy_efficiency());
    }

    #[test]
    fn repeated_runs_have_small_std() {
        let (r, _) = runner(4);
        let stats =
            ThroughputStats::from_runs((42..47).map(|seed| r.throughput(200, seed)).collect())
                .unwrap();
        assert!(stats.fps_std / stats.fps_mean < 0.02, "σ/μ = {}", stats.fps_std / stats.fps_mean);
        assert_eq!(stats.runs.len(), 5);
    }

    #[test]
    fn functional_run_matches_single_threaded_reference() {
        let (r, images) = runner(3);
        let outs = r.infer_batch(&images);
        assert_eq!(outs.len(), images.len());
        for (img, out) in images.iter().zip(outs) {
            assert_eq!(
                out.into_i8(),
                oracle(&r.xmodel, img),
                "thread pool must not change results"
            );
        }
    }

    #[test]
    fn predict_returns_labels_in_range() {
        let (r, images) = runner(2);
        for img in &images[..2] {
            let l = r.predict(img);
            assert_eq!(l.len(), 256);
            assert!(l.iter().all(|&v| v < 6));
        }
    }

    #[test]
    fn throughput_is_deterministic_per_seed() {
        let (r, _) = runner(4);
        let a = r.throughput(100, 7);
        let b = r.throughput(100, 7);
        assert_eq!(a.fps, b.fps);
        assert_eq!(a.watt, b.watt);
        let c = r.throughput(100, 8);
        assert_ne!(a.fps, c.fps);
    }

    #[test]
    fn backend_trait_object_runs_both_paths() {
        let (r, images) = runner(2);
        let b: Box<dyn Backend> = Box::new(r.clone());
        assert!(b.name().starts_with("dpu/"));
        let preds = b.infer_batch(&images[..2]);
        assert_eq!(preds.len(), 2);
        assert_eq!(*preds[0].as_i8().unwrap(), oracle(&r.xmodel, &images[0]));
        let rep = r.throughput(50, 3);
        assert!(rep.fps > 0.0 && rep.util > 0.0 && rep.threads == 2);
    }

    #[test]
    fn worker_threads_single_source_of_truth() {
        let (r, _) = runner(4);
        assert_eq!(r.config.worker_threads(2), 2);
        assert_eq!(r.config.worker_threads(100), 4);
        // The throughput report carries the resolved count.
        assert_eq!(r.throughput(2, 1).threads, 2);
    }
}
