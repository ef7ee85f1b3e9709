//! The [`Backend`] trait and the two host reference backends.

use crate::prediction::Prediction;
use crate::session::{InferenceEngine, InferenceSession};
use seneca_ir::{lower, FpScratch, LowerOptions, Lowered, QScratch};
use seneca_nn::graph::Graph;
use seneca_quant::QuantizedGraph;
use seneca_tensor::{QTensor, Shape4, Tensor};
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
/// turns preprocessed frames into [`Prediction`]s through this one
/// vocabulary, so evaluation and serving take any `dyn Backend`. It is
/// inference only: the two device models report throughput through their
/// own inherent `throughput(n_frames, seed)`.
pub trait Backend: Send + Sync {
    /// Human-readable backend identifier (used as the row/series key in
    /// experiment outputs).
    fn name(&self) -> String;

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

    /// Per-pixel argmax labels for one image.
    fn predict(&self, image: &Tensor) -> Vec<u8> {
        let mut out = self.infer_batch(std::slice::from_ref(image));
        assert_eq!(out.len(), 1);
        out.pop().expect("one prediction").labels
    }
}

/// Host FP32 reference backend: executes the inference [`Graph`] on the CPU
/// in its own arithmetic — each conv's BatchNorm and ReLU ride in its GEMM
/// store (an exact rewrite, not a fold), softmax stays explicit. It is the
/// GPU baseline's functional path (`GpuRunner` holds one). Clones share the
/// graph and the lowered program; its weights are held once (the lowering
/// shares the graph's weight tensors) next to their packed panels.
#[derive(Clone)]
pub struct Fp32RefBackend {
    /// FP32 inference graph.
    pub graph: Arc<Graph>,
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
        Self { graph: Arc::new(graph), input_shape, threads: 1, lowered }
    }

    /// Sets the host thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl InferenceEngine for Fp32RefBackend {
    type Worker = FpScratch;

    fn new_worker(&self) -> Self::Worker {
        self.lowered.make_scratch_f32()
    }

    fn infer(&self, scratch: &mut Self::Worker, image: &Tensor) -> Prediction {
        Prediction::from_f32(self.lowered.execute_f32_into(image, scratch).to_tensor())
    }
}

impl Backend for Fp32RefBackend {
    fn name(&self) -> String {
        format!("fp32-ref/{}", self.graph.module().name)
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        InferenceSession::new(self, self.threads).run(images)
    }

    fn infer_batch_timed(&self, images: &[Tensor]) -> (Vec<Prediction>, BatchTiming) {
        session_timed(self, self.threads, images)
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
    let (preds, per_frame) = InferenceSession::new(engine, threads).run_timed(images);
    (preds, BatchTiming { wall: t0.elapsed(), per_frame })
}

/// Host INT8 reference backend: executes a [`QuantizedGraph`] bit-exactly,
/// with worker-side input quantisation and a per-worker scratch arena (no
/// allocation inside the graph walk; [`crate::InferenceSession`] says when
/// arenas are built). It is the DPU runtime's functional path (`DpuRunner`
/// builds one over its xmodel's quantized graph on first inference). It
/// holds the graph's lowering alone: the module (its weights once, its name
/// and input fix position) next to the packed panels.
#[derive(Clone)]
pub struct QuantRefBackend {
    /// Input geometry.
    pub input_shape: Shape4,
    /// Host worker threads for batch inference.
    pub threads: usize,
    /// IR lowering of the graph at `input_shape` (packed weight panels +
    /// liveness plan), shared by every worker.
    lowered: Arc<Lowered>,
}

impl QuantRefBackend {
    /// Creates a single-threaded reference backend, lowering `qgraph`'s
    /// module itself (no copy is kept).
    pub fn new(qgraph: QuantizedGraph, input_shape: Shape4) -> Self {
        let lowered = Arc::new(lower(qgraph.into_ir(), input_shape, &LowerOptions::reference()));
        Self { input_shape, threads: 1, lowered }
    }

    /// Sets the host thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
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
            QTensor::quantize(image, self.lowered.module().input_fp)
        };
        let out = self.lowered.execute_i8_into(&q, scratch).to_qtensor();
        Prediction::from_i8(out)
    }
}

impl Backend for QuantRefBackend {
    fn name(&self) -> String {
        format!("int8-ref/{}", self.lowered.module().name)
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        InferenceSession::new(self, self.threads).run(images)
    }

    fn infer_batch_timed(&self, images: &[Tensor]) -> (Vec<Prediction>, BatchTiming) {
        session_timed(self, self.threads, images)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seneca_ir::{IrNode, PackedKernel};
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_quant::{fuse, quantize_post_training, PtqConfig};
    use seneca_tensor::igemm::reads_map;

    /// FP32 results do not depend on the thread count, bit for bit: two
    /// session workers against one, at a size where the GEMM driver forks
    /// (each element is one ascending-`k` FMA chain whatever the split). The
    /// benchmark's FP32 output check (1e-4 against a single-thread
    /// reference) stands on this.
    #[test]
    fn fp32_backend_is_thread_count_invariant_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let cfg = UNetConfig { depth: 2, base_filters: 8, num_classes: 6, dropout: 0.0 };
        let graph = Graph::from_unet(&UNet::new(cfg, &mut rng), "t");
        let shape = Shape4::new(1, 1, 64, 48);
        let frames: Vec<Tensor> = (0..3).map(|_| Tensor::he_normal(shape, &mut rng)).collect();
        let single = Fp32RefBackend::new(graph, shape);
        let pooled = single.clone().with_threads(2);
        assert!(Arc::ptr_eq(&single.graph, &pooled.graph), "clones share the graph");
        let bits = |p: &Prediction| -> Vec<u32> {
            p.as_f32().unwrap().data().iter().map(|v| v.to_bits()).collect()
        };
        for (s, p) in single.infer_batch(&frames).iter().zip(&pooled.infer_batch(&frames)) {
            assert_eq!(bits(s), bits(p));
        }
    }

    /// The INT8 backend keeps no graph beside its lowering: its name, input
    /// quantisation, logits and labels are the graph's, as the oracle runs
    /// the graph the backend was built from.
    #[test]
    fn int8_backend_answers_from_its_lowering_alone() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 6, dropout: 0.0 };
        let fg = fuse(&Graph::from_unet(&UNet::new(cfg, &mut rng), "held"));
        let shape = Shape4::new(1, 1, 16, 16);
        let frames: Vec<Tensor> = (0..2).map(|_| Tensor::he_normal(shape, &mut rng)).collect();
        let (qg, _) = quantize_post_training(&fg, &frames, &PtqConfig::default());
        let backend = QuantRefBackend::new(qg.clone(), shape).with_threads(2);
        assert_eq!(backend.name(), "int8-ref/held-int8");
        let m = qg.module();
        for (img, pred) in frames.iter().zip(backend.infer_batch(&frames)) {
            let want = seneca_ir::oracle::run_i8(m, &qg.quantize_input(img)).swap_remove(m.output);
            let got = pred.as_i8().expect("INT8 logits");
            assert_eq!((got.fix_pos(), got.data()), (want.fix_pos(), want.data()));
            let labels = seneca_tensor::activation::argmax_channels_i8(want.shape(), want.data());
            assert_eq!(pred.labels, labels);
        }
    }

    /// One odd-sized frame must not take the batch down: the INT8 backend
    /// re-plans its arena like its FP32 twin, and goes back afterwards. The
    /// panels stay the ones packed at 32x32, so the 20x20 frame gathers for a
    /// conv that reads its map in place at 32x32 (its bottom map is 5x5, an
    /// odd width), and still gets the bits of the program lowered for it.
    #[test]
    fn int8_backend_serves_a_frame_of_another_geometry() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 6, dropout: 0.0 };
        let fg = fuse(&Graph::from_unet(&UNet::new(cfg, &mut rng), "t"));
        let frame = |side: usize, rng: &mut rand::rngs::StdRng| {
            let mut t = Tensor::he_normal(Shape4::new(1, 1, side, side), rng);
            t.data_mut().iter_mut().for_each(|v| *v = v.clamp(-1.0, 1.0));
            t
        };
        let (big, small, big2) = (frame(32, &mut rng), frame(20, &mut rng), frame(32, &mut rng));
        let (qg, _) =
            quantize_post_training(&fg, std::slice::from_ref(&big), &PtqConfig::default());

        let at32 = QuantRefBackend::new(qg.clone(), big.shape());
        let at20 = QuantRefBackend::new(qg, small.shape());
        let in_place = |b: &QuantRefBackend| {
            let (nodes, shapes) = (&b.lowered.module().nodes, b.lowered.shapes());
            let reads = |(node, pack): (&IrNode, &Option<PackedKernel>)| match pack {
                Some(PackedKernel::ConvI8(_)) => reads_map(shapes[node.inputs[0]].w),
                _ => false,
            };
            nodes.iter().zip(b.lowered.packs()).filter(|&p| reads(p)).count()
        };
        assert!(in_place(&at32) > in_place(&at20), "the 20x20 frame gathers for a conv");
        // One worker, three frames: 32 -> 20 -> 32 through the same scratch.
        let got = at32.infer_batch(&[big.clone(), small.clone(), big2.clone()]);
        let want = [
            at32.infer_batch(std::slice::from_ref(&big)).remove(0),
            at20.infer_batch(std::slice::from_ref(&small)).remove(0),
            at32.infer_batch(std::slice::from_ref(&big2)).remove(0),
        ];
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_i8().unwrap(), w.as_i8().unwrap());
            assert_eq!(g.labels, w.labels);
        }
    }
}
