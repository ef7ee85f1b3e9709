//! Models, frames and the output check shared by the workloads.

use crate::stats::{hash_f32, hash_i8, Fnv1a};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seneca_backend::{Backend, Fp32RefBackend, Logits, Prediction, QuantRefBackend};
use seneca_dpu::arch::DpuArch;
use seneca_dpu::XModel;
use seneca_nn::graph::Graph;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_quant::{fuse, quantize_post_training, PtqConfig, QuantizedGraph};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// Distinct frames per workload: requests cycle through (or draw from) this
/// pool, so no two consecutive requests carry the same tensor.
pub const POOL_FRAMES: usize = 32;
/// Frames every backend is sent during set-up, before anything is timed.
pub const WARMUP_FRAMES: usize = 3;
/// PTQ calibration set: 4 seeded images. Calibrated at 64x64 on every
/// workload — activation ranges of a random-init conv net do not depend on
/// the crop size, and set-up runs three times per run.
const CALIB_IMAGES: usize = 4;
const CALIB_HW: usize = 64;
/// FP32 logits may differ from the single-thread reference by this much.
pub const FP32_TOLERANCE: f32 = 1e-4;

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn uniform_frames(rng: &mut StdRng, shape: Shape4, n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|_| {
            Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        })
        .collect()
}

/// `POOL_FRAMES` distinct seeded frames in `[-1, 1)`.
pub fn frame_pool(seed: u64, hw: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00F4_A3E5);
    uniform_frames(&mut rng, Shape4::new(1, 1, hw, hw), POOL_FRAMES)
}

/// One Table II model taken through stages B-D: seeded random-init U-Net
/// (timing does not depend on weight values), PTQ, DPU compile.
pub struct Model {
    pub size: ModelSize,
    pub input: Shape4,
    pub graph: Graph,
    pub qgraph: QuantizedGraph,
    pub xmodel: Arc<XModel>,
    pub times: BuildTimes,
}

/// Host time of each build step, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub nn_build_ms: f64,
    pub ptq_ms: f64,
    pub dpu_compile_ms: f64,
}

impl Model {
    pub fn build(size: ModelSize, hw: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x005E_4ECA);
        let input = Shape4::new(1, 1, hw, hw);

        let t0 = Instant::now();
        let net = UNet::from_size(size, &mut rng);
        let graph = Graph::from_unet(&net, size.label());
        let nn_build_ms = ms_since(t0);

        let calib = uniform_frames(&mut rng, Shape4::new(1, 1, CALIB_HW, CALIB_HW), CALIB_IMAGES);
        let t0 = Instant::now();
        let (qgraph, _) = quantize_post_training(&fuse(&graph), &calib, &PtqConfig::default());
        let ptq_ms = ms_since(t0);

        let t0 = Instant::now();
        let xmodel = Arc::new(seneca_dpu::compile(&qgraph, input, DpuArch::b4096_zcu104()));
        let dpu_compile_ms = ms_since(t0);

        Self {
            size,
            input,
            graph,
            qgraph,
            xmodel,
            times: BuildTimes { nn_build_ms, ptq_ms, dpu_compile_ms },
        }
    }

    /// Single-thread INT8 host backend of this model.
    pub fn int8_backend(&self) -> QuantRefBackend {
        QuantRefBackend::new(self.qgraph.clone(), self.input)
    }

    /// Single-thread FP32 host backend of this model.
    pub fn fp32_backend(&self) -> Fp32RefBackend {
        Fp32RefBackend::new(self.graph.clone(), self.input)
    }
}

/// What a frame's logits must look like: the FNV-1a of the INT8 reference
/// (bit-identical or wrong), or the FP32 reference itself (tolerance).
enum Reference {
    I8(u64),
    F32(Tensor),
}

/// Reference outputs of the first `n` pool frames, computed by a direct
/// single-thread `Backend::infer_batch`, and the check against them.
///
/// Workloads compute it before set-up, on a model built apart from the same
/// seed: a single-thread pass between the warm-up and the measured phase
/// left the first threaded batch of the FP32 workload taking 3.2-5.3 s in
/// place of 2 s (past its limit, in three runs of eight).
pub struct Checker {
    refs: Vec<Reference>,
    checksum: Fnv1a,
}

impl Checker {
    /// `backend` must be the single-thread arm of the workload's backend.
    pub fn new(backend: &dyn Backend, frames: &[Tensor]) -> Self {
        let mut checksum = Fnv1a::default();
        let refs = frames
            .iter()
            .map(|f| {
                let pred = backend.infer_batch(std::slice::from_ref(f)).pop().expect("one frame");
                let (hash, reference) = match pred.logits {
                    Logits::I8(q) => {
                        let h = hash_i8(q.data());
                        (h, Reference::I8(h))
                    }
                    Logits::F32(t) => (hash_f32(t.data()), Reference::F32(t)),
                };
                checksum.update(hash.to_le_bytes());
                reference
            })
            .collect();
        Self { refs, checksum }
    }

    /// FNV-1a over the reference logits, in pool order.
    pub fn checksum(&self) -> u64 {
        self.checksum.finish()
    }

    /// Whether `pred` is the right answer for pool frame `frame`. Frames
    /// beyond the checked prefix pass on shape alone.
    pub fn matches(&self, frame: usize, pred: &Prediction) -> bool {
        match (self.refs.get(frame), &pred.logits) {
            (None, _) => !pred.labels.is_empty(),
            (Some(Reference::I8(h)), Logits::I8(q)) => hash_i8(q.data()) == *h,
            (Some(Reference::F32(r)), Logits::F32(t)) => {
                r.shape() == t.shape()
                    && r.data().iter().zip(t.data()).all(|(a, b)| (a - b).abs() <= FP32_TOLERANCE)
            }
            _ => false,
        }
    }
}
