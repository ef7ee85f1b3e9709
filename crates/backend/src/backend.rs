//! The [`Backend`] trait and the two host reference backends.

use crate::prediction::Prediction;
use crate::report::{MemoryFootprint, ThroughputReport, ThroughputStats};
use crate::session::{resolve_worker_threads, InferenceEngine, InferenceSession, SessionConfig};
use seneca_ir::{lower, FpScratch, LowerOptions, Lowered, QScratch};
use seneca_nn::graph::Graph;
use seneca_quant::QuantizedGraph;
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution timing of one [`Backend::infer_batch_timed`] call.
#[derive(Debug, Clone)]
pub struct BatchTiming {
    /// Wall clock of the whole batch.
    pub wall: Duration,
    /// Per-frame execution time, in input order. Backends without per-frame
    /// visibility amortise `wall` evenly; session-backed backends report
    /// each frame's actual time on its worker.
    pub per_frame: Vec<Duration>,
}

/// A deployable inference target: every path through the SENECA pipeline —
/// FP32 reference, GPU baseline, bit-exact INT8 reference, DPU runtime —
/// implements this one vocabulary, so evaluation and benchmarking code can
/// iterate `Box<dyn Backend>` instead of hard-coding runner pairs.
pub trait Backend: Send + Sync {
    /// Human-readable backend identifier (used as the row/series key in
    /// experiment outputs).
    fn name(&self) -> String;

    /// One-time preparation: weight upload, buffer allocation, sanity
    /// checks. Backends with nothing to do inherit the no-op.
    fn prepare(&mut self) {}

    /// Runs a batch of preprocessed FP32 images; outputs are in input order.
    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction>;

    /// [`Backend::infer_batch`] plus execution timing — the hook the serving
    /// layer uses for per-request latency accounting. The default times the
    /// whole batch and amortises it evenly across frames; backends with
    /// per-frame visibility override it.
    fn infer_batch_timed(&self, images: &[Tensor]) -> (Vec<Prediction>, BatchTiming) {
        let t0 = Instant::now();
        let preds = self.infer_batch(images);
        let wall = t0.elapsed();
        let n = images.len() as u32;
        let per_frame = if n == 0 { Vec::new() } else { vec![wall / n; images.len()] };
        (preds, BatchTiming { wall, per_frame })
    }

    /// One throughput run over `n_frames` frames. Device-modelled backends
    /// use `seed` for measurement jitter; host-measured backends ignore it.
    fn throughput(&self, n_frames: usize, seed: u64) -> ThroughputReport;

    /// Per-pixel argmax labels for one image.
    fn predict(&self, image: &Tensor) -> Vec<u8> {
        let mut out = self.infer_batch(std::slice::from_ref(image));
        assert_eq!(out.len(), 1);
        out.pop().expect("one prediction").labels
    }

    /// μ±σ over `n_runs` seeded throughput runs (the Table IV aggregation),
    /// shared across all backends.
    fn throughput_repeated(&self, n_frames: usize, n_runs: usize, seed0: u64) -> ThroughputStats {
        assert!(n_runs >= 1);
        ThroughputStats::from_runs(
            (0..n_runs).map(|r| self.throughput(n_frames, seed0 + r as u64)).collect(),
        )
        .expect("n_runs >= 1")
    }
}

/// Deterministic synthetic frame for host-measured throughput runs: a ramp
/// in `[-1, 1]` so no kernel gets an all-zero fast path.
fn synthetic_frame(shape: Shape4) -> Tensor {
    let data = (0..shape.len()).map(|i| ((i * 37) % 255) as f32 / 127.0 - 1.0).collect();
    Tensor::from_vec(shape, data)
}

/// Measures host wall-clock throughput of an engine. Reference backends have
/// no power model, so `watt` (and thus energy efficiency) is reported as 0.
fn measured_throughput<E: InferenceEngine>(
    engine: &E,
    shape: Shape4,
    threads: usize,
    n_frames: usize,
    mem: MemoryFootprint,
) -> ThroughputReport {
    // Cap the measured frames: host execution of a 256x256 UNet is orders of
    // magnitude slower than the device models, and FPS converges quickly.
    let frames = n_frames.clamp(1, 16);
    let batch: Vec<Tensor> = (0..frames).map(|_| synthetic_frame(shape)).collect();
    let session = InferenceSession::new(engine, SessionConfig::new(threads));
    session.run(&batch[..1]); // warm-up (page-in weights, fill caches)
    let t0 = std::time::Instant::now();
    session.run(&batch);
    let makespan_s = t0.elapsed().as_secs_f64().max(1e-9);
    ThroughputReport {
        fps: frames as f64 / makespan_s,
        watt: 0.0,
        frames,
        threads: resolve_worker_threads(threads, frames),
        busy_cores: 0.0,
        util: 0.0,
        makespan_s,
        peak_arena_bytes: mem.peak_arena_bytes,
        total_activation_bytes: mem.total_activation_bytes,
    }
}

/// Host FP32 reference backend: executes the inference [`Graph`] (BN and
/// softmax still explicit) on the CPU. This is the bit-for-bit twin of the
/// GPU baseline's functional path.
#[derive(Clone)]
pub struct Fp32RefBackend {
    /// FP32 inference graph.
    pub graph: Graph,
    /// Input geometry.
    pub input_shape: Shape4,
    /// Host worker threads for batch inference.
    pub threads: usize,
    /// IR lowering of `graph` at `input_shape` (packed weight panels +
    /// liveness plan), shared by every worker.
    lowered: Arc<Lowered>,
}

impl Fp32RefBackend {
    /// Creates a single-threaded reference backend.
    pub fn new(graph: Graph, input_shape: Shape4) -> Self {
        let lowered = Arc::new(lower(graph.to_ir(), input_shape, &LowerOptions::reference()));
        Self { graph, input_shape, threads: 1, lowered }
    }

    /// Sets the host thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Planned per-worker activation memory (4 bytes per FP32 element).
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let plan = self.lowered.plan();
        MemoryFootprint {
            peak_arena_bytes: plan.peak_arena_bytes(4),
            total_activation_bytes: plan.total_activation_bytes(4),
        }
    }
}

/// Per-worker state of [`Fp32RefBackend`]: a liveness-planned scratch arena,
/// reused across frames so the steady-state hot path never allocates.
pub struct FpWorker {
    scratch: FpScratch,
}

impl InferenceEngine for Fp32RefBackend {
    type Worker = FpWorker;

    fn new_worker(&self) -> FpWorker {
        FpWorker { scratch: self.lowered.make_scratch_f32() }
    }

    fn infer(&self, worker: &mut FpWorker, image: &Tensor) -> Prediction {
        Prediction::from_f32(self.lowered.execute_f32_into(image, &mut worker.scratch).to_tensor())
    }
}

impl Backend for Fp32RefBackend {
    fn name(&self) -> String {
        format!("fp32-ref/{}", self.graph.name)
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        InferenceSession::new(self, SessionConfig::new(self.threads)).run(images)
    }

    fn infer_batch_timed(&self, images: &[Tensor]) -> (Vec<Prediction>, BatchTiming) {
        session_timed(self, self.threads, images)
    }

    fn throughput(&self, n_frames: usize, _seed: u64) -> ThroughputReport {
        measured_throughput(self, self.input_shape, self.threads, n_frames, self.memory_footprint())
    }
}

/// Shared [`Backend::infer_batch_timed`] override for session-backed
/// backends: per-frame worker timings from [`InferenceSession::run_timed`].
fn session_timed<E: InferenceEngine>(
    engine: &E,
    threads: usize,
    images: &[Tensor],
) -> (Vec<Prediction>, BatchTiming) {
    let t0 = Instant::now();
    let (preds, per_frame) =
        InferenceSession::new(engine, SessionConfig::new(threads)).run_timed(images);
    (preds, BatchTiming { wall: t0.elapsed(), per_frame })
}

/// Host INT8 reference backend: executes the [`QuantizedGraph`] bit-exactly,
/// with worker-side input quantisation and a per-worker scratch pool (zero
/// per-frame allocation in the im2col/GEMM hot path). This is the bit-for-bit
/// twin of the DPU runtime's functional path.
#[derive(Clone)]
pub struct QuantRefBackend {
    /// The quantized graph.
    pub qgraph: QuantizedGraph,
    /// Input geometry.
    pub input_shape: Shape4,
    /// Host worker threads for batch inference.
    pub threads: usize,
    /// IR lowering of `qgraph` at `input_shape` (packed weight panels +
    /// liveness plan), shared by every worker.
    lowered: Arc<Lowered>,
}

impl QuantRefBackend {
    /// Creates a single-threaded reference backend.
    pub fn new(qgraph: QuantizedGraph, input_shape: Shape4) -> Self {
        let lowered = Arc::new(lower(qgraph.to_ir(), input_shape, &LowerOptions::reference()));
        Self { qgraph, input_shape, threads: 1, lowered }
    }

    /// Sets the host thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Planned per-worker activation memory (1 byte per INT8 element).
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let plan = self.lowered.plan();
        MemoryFootprint {
            peak_arena_bytes: plan.peak_arena_bytes(1),
            total_activation_bytes: plan.total_activation_bytes(1),
        }
    }
}

impl InferenceEngine for QuantRefBackend {
    type Worker = QScratch;

    fn new_worker(&self) -> Self::Worker {
        self.lowered.make_scratch_i8()
    }

    fn infer(&self, scratch: &mut Self::Worker, image: &Tensor) -> Prediction {
        let q = {
            let _sp =
                seneca_trace::span_bytes("session", "quantize", image.data().len() as u64 * 4);
            self.qgraph.quantize_input(image)
        };
        let out = self.lowered.execute_i8_into(&q, scratch).to_qtensor();
        Prediction::from_i8(out)
    }
}

impl Backend for QuantRefBackend {
    fn name(&self) -> String {
        format!("int8-ref/{}", self.qgraph.name)
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        InferenceSession::new(self, SessionConfig::new(self.threads)).run(images)
    }

    fn infer_batch_timed(&self, images: &[Tensor]) -> (Vec<Prediction>, BatchTiming) {
        session_timed(self, self.threads, images)
    }

    fn throughput(&self, n_frames: usize, _seed: u64) -> ThroughputReport {
        measured_throughput(self, self.input_shape, self.threads, n_frames, self.memory_footprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_quant::{fuse, quantize_post_training, PtqConfig};

    /// One odd-sized frame must not take the batch down: the INT8 backend
    /// re-plans its arena like its FP32 twin, and goes back afterwards.
    #[test]
    fn int8_backend_serves_a_frame_of_another_geometry() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let cfg =
            UNetConfig { depth: 2, base_filters: 4, in_channels: 1, num_classes: 6, dropout: 0.0 };
        let fg = fuse(&Graph::from_unet(&UNet::new(cfg, &mut rng), "t"));
        let frame = |side: usize, rng: &mut rand::rngs::StdRng| {
            let mut t = Tensor::he_normal(Shape4::new(1, 1, side, side), rng);
            t.data_mut().iter_mut().for_each(|v| *v = v.clamp(-1.0, 1.0));
            t
        };
        let (big, small, big2) = (frame(32, &mut rng), frame(16, &mut rng), frame(32, &mut rng));
        let (qg, _) =
            quantize_post_training(&fg, std::slice::from_ref(&big), &PtqConfig::default());

        let at32 = QuantRefBackend::new(qg.clone(), big.shape());
        let at16 = QuantRefBackend::new(qg, small.shape());
        // One worker, three frames: 32 -> 16 -> 32 through the same scratch.
        let got = at32.infer_batch(&[big.clone(), small.clone(), big2.clone()]);
        let want = [
            at32.infer_batch(std::slice::from_ref(&big)).remove(0),
            at16.infer_batch(std::slice::from_ref(&small)).remove(0),
            at32.infer_batch(std::slice::from_ref(&big2)).remove(0),
        ];
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_i8().unwrap(), w.as_i8().unwrap());
            assert_eq!(g.labels, w.labels);
        }
    }
}
