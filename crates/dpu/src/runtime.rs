//! The VART-style asynchronous runtime.
//!
//! VART lets host threads "asynchronously submit and collect jobs to/from
//! the accelerator" (§III-E). Two execution paths are provided:
//!
//! * [`DpuRunner::run_functional`] — the streaming
//!   [`seneca_backend::InferenceSession`] (bounded job queue, worker-side
//!   INT8 quantisation, per-worker scratch pools) running the bit-exact
//!   INT8 executor; used by every accuracy experiment;
//! * [`DpuRunner::run_throughput`] — a `seneca-hwsim` closed-network
//!   simulation of the same pipeline (ARM pre-process → DPU core → ARM
//!   post-process) with the cost model supplying DPU service times; used by
//!   the FPS / Watt / EE sweeps (Table IV, Fig. 3).
//!
//! Both paths resolve their worker-thread count through the same
//! [`RuntimeConfig::worker_threads`] helper, so the functional pool and the
//! simulated pipeline population can never drift apart.

use crate::executor::{DpuCore, ExecMode};
use crate::perf::frame_cost;
use crate::power::{PowerInputs, Zcu104Power};
use crate::xmodel::XModel;
use rand::{Rng, SeedableRng};
use seneca_backend::{Backend, InferenceEngine, InferenceSession, Prediction, SessionConfig};
use seneca_hwsim::{simulate_closed_pipeline, Resource, StageSpec};
use seneca_ir::QScratch;
use seneca_tensor::{QTensor, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

// The runtime's measurement vocabulary is the workspace-wide one.
pub use seneca_backend::{ThroughputReport, ThroughputStats};

/// Runtime configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Runner threads (the paper sweeps 1, 2, 4 and discusses 8).
    pub threads: usize,
    /// ARM host cores (the ZCU104's Cortex-A53 has 4).
    pub arm_cores: usize,
    /// Pre-processing time per input pixel on one ARM core (ns): rescale to
    /// the xmodel's input scale + INT8 quantisation.
    pub pre_ns_per_pixel: f64,
    /// Post-processing time per output pixel (ns): 6-channel argmax.
    pub post_ns_per_pixel: f64,
    /// Relative service-time jitter (DDR contention, scheduler noise).
    pub jitter_sigma: f64,
    /// Board power model.
    pub power: Zcu104Power,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            arm_cores: 4,
            pre_ns_per_pixel: 14.0,
            post_ns_per_pixel: 26.0,
            jitter_sigma: 0.004,
            power: Zcu104Power::default(),
        }
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

/// Per-worker state of the functional path: one simulated core plus its
/// scratch pool (per-node activations, im2col columns, GEMM accumulators).
pub struct DpuWorker {
    core: DpuCore,
    scratch: QScratch,
}

impl DpuRunner {
    /// Creates a runner.
    pub fn new(xmodel: Arc<XModel>, config: RuntimeConfig) -> Self {
        assert!(config.threads >= 1, "need at least one runner thread");
        assert!(config.arm_cores >= 1);
        Self { xmodel, config }
    }

    /// Simulated throughput run over `n_frames` frames.
    ///
    /// The seed drives the per-job jitter; the paper's μ±σ over 10 runs maps
    /// to 10 different seeds.
    pub fn run_throughput(&self, n_frames: usize, seed: u64) -> ThroughputReport {
        let xm = &self.xmodel;
        let threads = self.config.worker_threads(n_frames);
        let cost = frame_cost(xm, &xm.arch);
        let hw = xm.input_shape.hw() as f64;
        let pre_ns = hw * self.config.pre_ns_per_pixel;
        let post_ns = hw * self.config.post_ns_per_pixel;

        // Per-job multiplicative jitter, one factor per (job, stage).
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sigma = self.config.jitter_sigma;
        let jitter: Vec<f64> = (0..n_frames * 3)
            .map(|_| {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (1.0 + sigma * g).max(0.5)
            })
            .collect();

        let resources =
            [Resource::new("arm", self.config.arm_cores), Resource::new("dpu", xm.arch.cores)];
        let stages =
            [StageSpec { resource: 0 }, StageSpec { resource: 1 }, StageSpec { resource: 0 }];
        let base = [pre_ns, cost.serial_ns as f64, post_ns];
        let rep = simulate_closed_pipeline(&resources, &stages, threads, n_frames, |job, stage| {
            (base[stage] * jitter[(job * 3 + stage) % jitter.len()]) as u64
        });

        let makespan_s = rep.makespan_ns as f64 * 1e-9;
        let fps = rep.throughput_per_s();
        let util = rep.utilisation(1, xm.arch.cores);
        let busy_cores = util * xm.arch.cores as f64;
        let arm_busy_cores =
            rep.utilisation(0, self.config.arm_cores) * self.config.arm_cores as f64;
        let ddr_gbps = xm.stats.fm_traffic_bytes as f64 * fps / 1e9;
        let watt = self.config.power.board_power_w(&PowerInputs {
            dpu_busy_cores: busy_cores,
            compute_intensity: cost.compute_intensity(),
            arm_busy_cores,
            arm_cores: self.config.arm_cores,
            ddr_gbps,
            threads,
        });

        ThroughputReport {
            fps,
            watt,
            frames: rep.completed,
            threads,
            busy_cores,
            util,
            makespan_s,
            peak_arena_bytes: xm.stats.peak_arena_bytes,
            total_activation_bytes: xm.stats.total_activation_bytes,
        }
    }

    /// Functional execution of a batch of preprocessed FP32 images through
    /// the streaming session. Outputs are returned in input order.
    pub fn run_functional(&self, images: &[Tensor]) -> Vec<QTensor> {
        self.session().run(images).into_iter().map(Prediction::into_i8).collect()
    }

    /// Per-pixel argmax labels for a batch (functional path + host argmax).
    pub fn predict(&self, images: &[Tensor]) -> Vec<Vec<u8>> {
        self.session().run(images).into_iter().map(|p| p.labels).collect()
    }

    /// The streaming session over this runner's worker pool.
    fn session(&self) -> InferenceSession<'_, Self> {
        InferenceSession::new(self, SessionConfig::new(self.config.threads))
    }
}

impl InferenceEngine for DpuRunner {
    type Worker = DpuWorker;

    fn new_worker(&self) -> DpuWorker {
        DpuWorker {
            core: DpuCore::new(ExecMode::Functional),
            scratch: DpuCore::make_scratch(&self.xmodel),
        }
    }

    fn infer(&self, worker: &mut DpuWorker, image: &Tensor) -> Prediction {
        // Worker-side quantisation: the FP32 frame crosses the queue, the
        // INT8 copy is created on the thread that consumes it.
        let input = {
            let _sp =
                seneca_trace::span_bytes("session", "quantize", image.data().len() as u64 * 4);
            self.xmodel.quantize_input(image)
        };
        let out = worker
            .core
            .run_with_scratch(&self.xmodel, &input, &mut worker.scratch)
            .output
            .expect("functional mode");
        Prediction::from_i8(out)
    }
}

impl Backend for DpuRunner {
    fn name(&self) -> String {
        format!("dpu/{}", self.xmodel.name)
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        self.session().run(images)
    }

    fn throughput(&self, n_frames: usize, seed: u64) -> ThroughputReport {
        self.run_throughput(n_frames, seed)
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
    use seneca_tensor::Shape4;

    fn runner(threads: usize) -> (DpuRunner, Vec<Tensor>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let cfg =
            UNetConfig { depth: 2, base_filters: 4, in_channels: 1, num_classes: 6, dropout: 0.0 };
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
        let config = RuntimeConfig { threads, ..Default::default() };
        (DpuRunner::new(Arc::new(xm), config), images)
    }

    /// What the quantized graph computes for `img`, per the naive oracle.
    fn oracle(xm: &XModel, img: &Tensor) -> QTensor {
        seneca_ir::oracle::run_i8(&xm.qgraph.to_ir(), &xm.quantize_input(img))
            .swap_remove(xm.qgraph.output)
    }

    #[test]
    fn throughput_improves_with_threads_then_saturates() {
        let mut fps = vec![];
        for threads in [1usize, 2, 4, 8] {
            let (r, _) = runner(threads);
            fps.push(r.run_throughput(300, 1).fps);
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
        let t4 = r4.run_throughput(300, 1);
        let t8 = r8.run_throughput(300, 1);
        assert!(t8.watt > t4.watt, "8 threads must draw more power");
        assert!(t8.energy_efficiency() < t4.energy_efficiency());
    }

    #[test]
    fn repeated_runs_have_small_std() {
        let (r, _) = runner(4);
        let stats = r.throughput_repeated(200, 5, 42);
        assert!(stats.fps_std / stats.fps_mean < 0.02, "σ/μ = {}", stats.fps_std / stats.fps_mean);
        assert_eq!(stats.runs.len(), 5);
    }

    #[test]
    fn functional_run_matches_single_threaded_reference() {
        let (r, images) = runner(3);
        let outs = r.run_functional(&images);
        assert_eq!(outs.len(), images.len());
        for (img, out) in images.iter().zip(&outs) {
            assert_eq!(*out, oracle(&r.xmodel, img), "thread pool must not change results");
        }
    }

    #[test]
    fn predict_returns_labels_in_range() {
        let (r, images) = runner(2);
        let labels = r.predict(&images[..2]);
        assert_eq!(labels.len(), 2);
        for l in &labels {
            assert_eq!(l.len(), 256);
            assert!(l.iter().all(|&v| v < 6));
        }
    }

    #[test]
    fn throughput_is_deterministic_per_seed() {
        let (r, _) = runner(4);
        let a = r.run_throughput(100, 7);
        let b = r.run_throughput(100, 7);
        assert_eq!(a.fps, b.fps);
        assert_eq!(a.watt, b.watt);
        let c = r.run_throughput(100, 8);
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
        let rep = b.throughput(50, 3);
        assert!(rep.fps > 0.0 && rep.util > 0.0 && rep.threads == 2);
    }

    #[test]
    fn worker_threads_single_source_of_truth() {
        let (r, _) = runner(4);
        assert_eq!(r.config.worker_threads(2), 2);
        assert_eq!(r.config.worker_threads(100), 4);
        // The throughput report carries the resolved count.
        assert_eq!(r.run_throughput(2, 1).threads, 2);
    }
}
