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
//! 16M model drops measurably. An INT8 program keeps every value as a
//! bordered quad map ([`seneca_tensor::quad`]), so its conv weights are
//! packed in channel quads over the input map's channels
//! ([`seneca_tensor::gemm::PackedA::pack_conv`], zero rows for the lanes a
//! concat half off the quad grid leaves unused) and its tconv weights in
//! output quads; the plan's GEMM work memory is sized from the packed
//! kernels. W8 and W4 kernels pack into the same INT8 panels; a W4 kernel's
//! weights are checked to lie in `[-8, 7]` as they are packed.

use crate::exec::{FpScratch, QScratch, Scratch};
use crate::module::{ConvKernel, DType, IrNode, IrOp, Module};
use crate::passes::{fuse_batchnorm, fuse_relu, strip_identities, PassStats};
use crate::plan::ExecPlan;
use seneca_tensor::gemm::{strip_scratch_len, PackElem, PackedA, QUAD};
use seneca_tensor::igemm::{igemm_map_scratch, sgemm_conv_scratch};
use seneca_tensor::im2col::ConvGeom;
use seneca_tensor::quad::QuadMap;
use seneca_tensor::quantized::Bitwidth;
use seneca_tensor::tconv::{repack_tconv_quads, repack_tconv_weights};
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
    /// INT8 (W8 or W4) conv: `[C_out, C*9]` panels in channel quads over
    /// the `C` channels of its input's quad map.
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
    /// INT8 (W8 or W4) transpose conv: `[16 ⌈C_out/4⌉, C]` panels in
    /// output quads over the `C` channels of its input's quad map
    /// ([`seneca_tensor::tconv::repack_tconv_quads`]) plus the accumulator-
    /// scale bias in the same row order.
    TConvI8 {
        /// Packed repacked weights.
        pa: PackedA<i8>,
        /// Bias per GEMM row (zero for the lanes past `C_out`).
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
    quads: QuadLayout,
    stats: PassStats,
}

/// Where an INT8 program keeps its values: each as a bordered quad map
/// ([`seneca_tensor::quad`]), but the graph's output, when it is a conv no
/// node reads, as an NCHW `i8` image. Geometry-free: the channels of a node
/// are the same at every input size. Empty for FP32.
#[derive(Debug, Clone, Default)]
pub(crate) struct QuadLayout {
    /// Per node: the padded channel (slot) of each of its channels.
    pub(crate) slots: Vec<Vec<usize>>,
    /// Per node: its map's channels (whole quads).
    pub(crate) chans: Vec<usize>,
    /// The output conv, stored NCHW.
    pub(crate) nchw: Option<usize>,
}

impl QuadLayout {
    /// The layout of `m`'s values, their channel counts read off `shapes`: a
    /// conv or tconv fills the first lanes of its own quads, a concat is its
    /// inputs' planes one after the other, and any other op keeps its
    /// input's lanes.
    fn new(m: &Module, shapes: &[Shape4]) -> Self {
        let mut q = Self::default();
        for (node, s) in m.nodes.iter().zip(shapes) {
            let (slots, chans) = match (&node.op, &node.inputs[..]) {
                (IrOp::Input | IrOp::Conv(_) | IrOp::TConv(_), _) => {
                    ((0..s.c).collect(), s.c.next_multiple_of(QUAD))
                }
                (IrOp::Concat {}, &[a, b]) => {
                    let b_slots = q.slots[b].iter().map(|&t| q.chans[a] + t);
                    (q.slots[a].iter().copied().chain(b_slots).collect(), q.chans[a] + q.chans[b])
                }
                (_, ins) => (q.slots[ins[0]].clone(), q.chans[ins[0]]),
            };
            q.slots.push(slots);
            q.chans.push(chans);
        }
        let out = m.output;
        let read = m.nodes.iter().any(|n| n.inputs.contains(&out));
        q.nchw = (matches!(m.nodes[out].op, IrOp::Conv(_)) && !read).then_some(out);
        q
    }

    /// The quad map of node `id` at one-image shape `s`.
    pub(crate) fn map(&self, id: usize, s: Shape4) -> QuadMap {
        QuadMap { c: self.chans[id], h: s.h, w: s.w }
    }
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
    let quads = match module.dtype {
        DType::F32 => QuadLayout::default(),
        DType::I8 => QuadLayout::new(&module, &shapes),
    };
    let nodes = module.nodes.iter().enumerate();
    let packs: Vec<_> = nodes.map(|(id, node)| pack(id, node, &quads)).collect();
    let plan = plan(&module, &quads, &packs, input);
    Lowered { module, input, shapes, fps, plan, packs, quads, stats }
}

/// The liveness plan of one image of `input` with its GEMM work memory: over
/// NCHW values in FP32, over bordered quad maps in INT8 (but an NCHW output
/// conv).
fn plan(m: &Module, quads: &QuadLayout, packs: &[Option<PackedKernel>], input: Shape4) -> ExecPlan {
    let image = input.with_n(1);
    let shapes = m.shapes(image);
    let mut plan = match m.dtype {
        DType::F32 => m.plan(image),
        DType::I8 => m.plan_padded(image, |id, s| {
            if quads.nchw == Some(id) {
                s.len()
            } else {
                quads.map(id, s).len()
            }
        }),
    };
    plan.set_work(gemm_work(m, packs, &shapes, quads));
    plan
}

/// Packs the weight tensor of node `id`, if it is a conv/tconv, once (model
/// load time); the panels serve every input geometry. An INT8 kernel packs
/// over the channels of its input's quad map (`quads`), its weights at their
/// channels' slots. A W4 kernel packs into the same panels as a W8 one, so
/// its weights must lie in `[-8, 7]`: wider values would compute a layer the
/// DPU's 4-bit weights cannot hold.
fn pack(id: usize, node: &IrNode, quads: &QuadLayout) -> Option<PackedKernel> {
    let op = &node.op;
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
                let x = node.inputs[0];
                let (slots, c_map) = (&quads.slots[x], quads.chans[x]);
                let wk = repack_tconv_quads(c_out, slots, c_map, w.data());
                let rows = wk.len() / c_map.max(1);
                // Row `16q + 8ky + 4kx + l` is output channel `4q + l`.
                let bias4: Vec<i32> =
                    (0..rows).map(|r| bias.get(r / 16 * 4 + r % 4).copied().unwrap_or(0)).collect();
                PackedKernel::TConvI8 { pa: PackedA::pack(rows, c_map, &wk), bias4 }
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
                let (ws, x) = (w.shape(), node.inputs[0]);
                let (slots, c_map, taps) = (&quads.slots[x], quads.chans[x], ws.h * ws.w);
                let mut wk = vec![0i8; ws.n * c_map * taps];
                for (src, dst) in
                    w.data().chunks_exact(ws.c * taps).zip(wk.chunks_exact_mut(c_map * taps))
                {
                    for (&s, tap) in slots.iter().zip(src.chunks_exact(taps)) {
                        dst[s * taps..][..taps].copy_from_slice(tap);
                    }
                }
                PackedKernel::ConvI8(PackedA::pack_conv(ws.n, c_map, taps, &wk))
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
/// [`seneca_tensor::igemm::igemm_map_scratch`]. Returns `(strip elements,
/// offsets, strip element bytes)`.
fn gemm_work(
    m: &Module,
    packs: &[Option<PackedKernel>],
    shapes: &[Shape4],
    quads: &QuadLayout,
) -> (usize, usize, usize) {
    let (mut strips, mut offsets) = (0, 0);
    for ((node, pack), out) in m.nodes.iter().zip(packs).zip(shapes) {
        let Some(pack) = pack else { continue };
        let (x, s) = (node.inputs[0], shapes[node.inputs[0]]);
        // The implicit im2col GEMM is [C_out x C_in*9 x H*W]; a tconv's is
        // [4*C_out x C_in x H*W], its column parts cut on input rows.
        let (st, off) = match pack {
            PackedKernel::ConvF32 { .. } => sgemm_conv_scratch(out.c, &ConvGeom::same_3x3(s)),
            PackedKernel::TConvF32 { .. } => (strip_scratch_len(4 * out.c, s.c, s.hw(), s.w, 4), 0),
            PackedKernel::ConvI8(pa) | PackedKernel::TConvI8 { pa, .. } => {
                igemm_map_scratch(pa, quads.map(x, s))
            }
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

    /// Where this INT8 program keeps its values.
    pub(crate) fn quads(&self) -> &QuadLayout {
        &self.quads
    }

    fn make_scratch<T: PackElem>(&self, input: Shape4) -> Scratch<T> {
        let image = input.with_n(1);
        let (plan, shapes) =
            (plan(&self.module, &self.quads, &self.packs, image), self.module.shapes(image));
        // The NCHW view of an INT8 quad map: room for the largest value.
        let view = match self.module.dtype {
            DType::F32 => 0,
            DType::I8 => shapes.iter().map(Shape4::len).max().unwrap_or(0),
        };
        Scratch::new(plan, shapes, self.fps.clone(), view)
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
