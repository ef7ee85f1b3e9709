//! Lowering: IR module → executable program.
//!
//! [`lower`] runs the exact rewrite passes (BN carry → ReLU fusion, switched
//! by [`LowerOptions`]; then the dropout strip), then materialises everything
//! the executors need per model — shapes, fix positions, the liveness
//! [`ExecPlan`] (which lays every concat out by address) and the
//! **pre-packed weight panels**, one [`PackedKernel`] per conv/tconv node,
//! indexed by node id. Weights are immutable at inference, so their GEMM
//! A-operand panels are packed exactly once here; each frame then only packs
//! the activation (B) panels, which is where the per-frame pack share of the
//! 16M model drops measurably. An INT8 conv's weights are packed in channel
//! quads ([`seneca_tensor::gemm::PackedA::pack_conv`]), so that a 3x3 conv
//! on a width of whole 16-column halves reads its activations from a row
//! band in place; the plan's GEMM work memory is sized from the packed
//! kernels. W8 and W4 kernels pack into the same INT8 panels; a W4 kernel's
//! weights are checked to lie in `[-8, 7]` as they are packed.

use crate::exec::{FpScratch, QScratch, Scratch};
use crate::module::{ConvKernel, DType, IrOp, Module};
use crate::passes::{fuse_batchnorm, fuse_relu, strip_identities, PassStats};
use crate::plan::ExecPlan;
use seneca_tensor::gemm::{strip_scratch_len, PackElem, PackedA};
use seneca_tensor::igemm::{igemm_conv_scratch, igemm_tconv_scratch, sgemm_conv_scratch};
use seneca_tensor::im2col::ConvGeom;
use seneca_tensor::quantized::Bitwidth;
use seneca_tensor::tconv::repack_tconv_weights;
use seneca_tensor::Shape4;

/// How a lowering runs. A lowering keeps the graph's own arithmetic: it
/// makes no semantic rewrite (the BN fold and the softmax strip of the
/// deployment front end are `seneca_quant::fuse`'s), strips the dropout
/// nodes (the identity at inference), and packs weight panels once:
/// weights are immutable at inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// The exact epilogue fusions: carry every exclusive BatchNorm into its
    /// conv's GEMM store ([`crate::passes::fuse_batchnorm`]), then fuse
    /// exclusive standalone ReLUs into the conv/tconv store. Bit for bit
    /// what the separate passes compute; off only for the tests that prove
    /// it.
    pub fuse_relu: bool,
}

impl LowerOptions {
    /// The lowering every executor runs: the exact epilogue fusions on. The
    /// FP32/INT8 host backends (the GPU baseline's and the DPU runtime's
    /// functional paths) and the quantizer's calibration all use this (the
    /// quantizer's modules are already fused, so for it the lowering keeps
    /// every node id).
    pub fn reference() -> Self {
        Self { fuse_relu: true }
    }
}

/// Pre-packed GEMM panels of one conv/tconv weight tensor.
#[derive(Debug, Clone)]
pub enum PackedKernel {
    /// FP32 conv: `[C_out, C_in*K*K]` panels plus, for a conv carrying a
    /// BatchNorm, its per-channel `(scale, shift)` (empty otherwise).
    ConvF32 {
        /// Packed weights.
        pa: PackedA<f32>,
        /// The carried BN's [`seneca_tensor::norm::BnState::affine`] per
        /// output channel, or empty.
        bn: Vec<(f32, f32)>,
    },
    /// INT8 (W8 or W4) conv: `[C_out, C_in*K*K]` panels in channel quads.
    ConvI8(PackedA<i8>),
    /// FP32 transpose conv: co-major `[4*C_out, C_in]` panels (row
    /// `co*4 + kidx`) plus the per-row-replicated bias (empty when the conv
    /// has no bias).
    TConvF32 {
        /// Packed repacked weights.
        pa: PackedA<f32>,
        /// Bias replicated per kernel position (`4*C_out`, or empty).
        bias4: Vec<f32>,
    },
    /// INT8 (W8 or W4) transpose conv: co-major `[4*C_out, C_in]` panels
    /// plus the per-row-replicated accumulator-scale bias.
    TConvI8 {
        /// Packed repacked weights.
        pa: PackedA<i8>,
        /// Bias replicated per kernel position (`4*C_out`).
        bias4: Vec<i32>,
    },
}

impl PackedKernel {
    /// Bytes held by the packed panels (memory accounting).
    pub fn bytes(&self) -> u64 {
        match self {
            PackedKernel::ConvF32 { pa, bn } => (pa.bytes() + size_of_val(&bn[..])) as u64,
            PackedKernel::ConvI8(pa) => pa.bytes() as u64,
            PackedKernel::TConvF32 { pa, bias4 } => (pa.bytes() + size_of_val(&bias4[..])) as u64,
            PackedKernel::TConvI8 { pa, bias4 } => (pa.bytes() + size_of_val(&bias4[..])) as u64,
        }
    }
}

/// A lowered program: the rewritten module plus everything the executors
/// derive from it once per model — shapes, fix positions, the liveness plan
/// and the pre-packed weight panels.
#[derive(Debug, Clone)]
pub struct Lowered {
    module: Module,
    input: Shape4,
    shapes: Vec<Shape4>,
    fps: Vec<i32>,
    plan: ExecPlan,
    /// Per node: its packed panels (`Some` exactly for conv/tconv nodes).
    packs: Vec<Option<PackedKernel>>,
    stats: PassStats,
}

/// Runs the pass pipeline on `module` and materialises the lowered program
/// for the given input geometry.
pub fn lower(mut module: Module, input: Shape4, opts: &LowerOptions) -> Lowered {
    let mut stats = PassStats::default();
    if opts.fuse_relu {
        stats.bn_fused = fuse_batchnorm(&mut module);
        stats.relu_fused = fuse_relu(&mut module);
    }
    stats.identities_removed = strip_identities(&mut module, false);
    let shapes = module.shapes(input);
    let fps = module.fix_positions();
    let nodes = module.nodes.iter().enumerate();
    let packs: Vec<_> = nodes.map(|(id, node)| pack(id, &node.op)).collect();
    let mut plan = module.plan(input);
    plan.set_work(gemm_work(&module, &packs, &shapes));
    Lowered { module, input, shapes, fps, plan, packs, stats }
}

/// Packs the weight tensor of node `id`, if it is a conv/tconv, once (model
/// load time); the panels serve every input geometry. A W4 kernel packs into
/// the same panels as a W8 one, so its weights must lie in `[-8, 7]`: wider
/// values would compute a layer the DPU's 4-bit weights cannot hold.
fn pack(id: usize, op: &IrOp) -> Option<PackedKernel> {
    let (kernel, transpose) = match op {
        IrOp::Conv(a) => (&a.kernel, false),
        IrOp::TConv(a) => (&a.kernel, true),
        _ => return None,
    };
    if let ConvKernel::I8 { w, wbits: Bitwidth::W4, .. } = kernel {
        assert!(
            w.data().iter().all(|v| (-8..=7).contains(v)),
            "W4 weights of node {id} outside [-8, 7]"
        );
    }
    let packed = if transpose {
        let c_in = kernel.c_in(true);
        let c_out = kernel.c_out(true);
        match kernel {
            ConvKernel::F32 { w, b, bn } => {
                assert!(bn.is_none(), "BatchNorm carried by an FP32 tconv is unsupported");
                let mut wk = vec![0.0f32; 4 * c_out * c_in];
                repack_tconv_weights(c_in, c_out, w.data(), &mut wk);
                // Row `co*4 + kidx` of the co-major repack belongs to
                // output channel `co`, so the replicated bias indexes by
                // `row / 4`.
                let bias4: Vec<f32> = if b.is_empty() {
                    Vec::new()
                } else {
                    (0..4 * c_out).map(|i| b[i / 4]).collect()
                };
                PackedKernel::TConvF32 { pa: PackedA::pack(4 * c_out, c_in, &wk), bias4 }
            }
            ConvKernel::I8 { w, bias, .. } => {
                let mut wk = vec![0i8; 4 * c_out * c_in];
                repack_tconv_weights(c_in, c_out, w.data(), &mut wk);
                let bias4: Vec<i32> =
                    (0..4 * c_out).map(|i| bias.get(i / 4).copied().unwrap_or(0)).collect();
                PackedKernel::TConvI8 { pa: PackedA::pack(4 * c_out, c_in, &wk), bias4 }
            }
        }
    } else {
        match kernel {
            ConvKernel::F32 { w, bn, .. } => {
                let ws = w.shape();
                PackedKernel::ConvF32 {
                    pa: PackedA::pack(ws.n, ws.c * ws.h * ws.w, w.data()),
                    bn: bn
                        .iter()
                        .flat_map(|bn| {
                            assert_eq!(bn.channels(), ws.n, "BN channel count");
                            (0..ws.n).map(|c| bn.affine(c))
                        })
                        .collect(),
                }
            }
            ConvKernel::I8 { w, .. } => {
                let ws = w.shape();
                PackedKernel::ConvI8(PackedA::pack_conv(ws.n, ws.c, ws.h * ws.w, w.data()))
            }
        }
    };
    Some(packed)
}

/// Peak per-frame GEMM work memory of the packed convs at `shapes`: for each
/// conv/tconv node, the strip buffers the driver's parallel parts pack
/// activations into (`parts x strip`, a few hundred KB — there is no whole
/// packed `B`; the weight panels are packed once and are not per-frame
/// work), or a band conv's row bands, and the `u32` k-step offsets the
/// micro-kernel reads them through. Each buffer is reused node to node, so
/// each figure is a max over nodes, not a sum; both are the work memory of
/// the executor's worker arena ([`crate::exec::Scratch`]). Mirrors what the
/// kernels allocate via [`seneca_tensor::gemm::strip_scratch_len`],
/// [`seneca_tensor::igemm::sgemm_conv_scratch`] and
/// [`seneca_tensor::igemm::igemm_conv_scratch`]. Returns `(strip elements,
/// offsets, strip element bytes)`.
fn gemm_work(
    m: &Module,
    packs: &[Option<PackedKernel>],
    shapes: &[Shape4],
) -> (usize, usize, usize) {
    let (mut strips, mut offsets) = (0, 0);
    for ((node, pack), out) in m.nodes.iter().zip(packs).zip(shapes) {
        let Some(pack) = pack else { continue };
        let s = shapes[node.inputs[0]];
        // The implicit im2col GEMM is [C_out x C_in*9 x H*W]; a tconv's is
        // [4*C_out x C_in x H*W], its column parts cut on input rows.
        let (st, off) = match pack {
            PackedKernel::ConvF32 { .. } => sgemm_conv_scratch(out.c, &ConvGeom::same_3x3(s)),
            PackedKernel::ConvI8(pa) => igemm_conv_scratch(pa, &ConvGeom::same_3x3(s)),
            PackedKernel::TConvF32 { .. } => (strip_scratch_len(4 * out.c, s.c, s.hw(), s.w, 4), 0),
            PackedKernel::TConvI8 { pa, .. } => igemm_tconv_scratch(pa, s.h, s.w),
        };
        (strips, offsets) = (strips.max(st), offsets.max(off));
    }
    let es = match m.dtype {
        DType::F32 => size_of::<<f32 as PackElem>::Strip>(),
        DType::I8 => size_of::<<i8 as PackElem>::Strip>(),
    };
    (strips, offsets, es)
}

impl Lowered {
    /// The rewritten module this program executes.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The input geometry the program was lowered for.
    pub fn input_shape(&self) -> Shape4 {
        self.input
    }

    /// Per-node output shapes at the lowered input geometry.
    pub fn shapes(&self) -> &[Shape4] {
        &self.shapes
    }

    /// Per-node output fix positions (all zero for FP32 modules).
    pub fn fix_positions(&self) -> &[i32] {
        &self.fps
    }

    /// The liveness plan for one image of the lowered input geometry.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// What the pass pipeline did.
    pub fn stats(&self) -> PassStats {
        self.stats
    }

    /// The pre-packed weight panels, indexed by node id: `Some` exactly for
    /// the conv/tconv nodes, whose variant is the route their step runs.
    pub fn packs(&self) -> &[Option<PackedKernel>] {
        &self.packs
    }

    /// Bytes held by all pre-packed weight panels.
    pub fn packed_weight_bytes(&self) -> u64 {
        self.packs.iter().flatten().map(PackedKernel::bytes).sum()
    }

    /// Allocates the per-worker FP32 arena at the lowered input geometry (an
    /// arena holds one image of it).
    pub fn make_scratch_f32(&self) -> FpScratch {
        self.make_scratch(self.input)
    }

    /// Allocates an FP32 arena for a different input geometry (replans; the
    /// packed weights are shape-independent and stay shared).
    pub fn make_scratch_for(&self, input: Shape4) -> FpScratch {
        self.make_scratch(input)
    }

    /// Allocates the per-worker INT8 arena at the lowered input geometry.
    pub fn make_scratch_i8(&self) -> QScratch {
        self.make_scratch(self.input)
    }

    /// Allocates an INT8 arena for a different input geometry.
    pub fn make_scratch_i8_for(&self, input: Shape4) -> QScratch {
        self.make_scratch(input)
    }

    fn make_scratch<T: PackElem>(&self, input: Shape4) -> Scratch<T> {
        let image = input.with_n(1);
        let shapes = self.module.shapes(image);
        let mut plan = self.module.plan(image);
        plan.set_work(gemm_work(&self.module, &self.packs, &shapes));
        Scratch::new(plan, shapes, self.fps.clone())
    }

    /// Re-plans `scratch` when it was built for another geometry than
    /// `image`: one odd-sized frame costs its worker a re-plan, not a panic.
    pub(crate) fn fit<T: PackElem>(&self, scratch: &mut Scratch<T>, image: Shape4) {
        assert_eq!(image.n, 1, "an arena holds one image: step a batch image by image");
        if scratch.input_shape() != image {
            *scratch = self.make_scratch(image);
        }
    }
}
