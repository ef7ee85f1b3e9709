//! Lowering: IR module → executable program.
//!
//! [`lower`] runs the rewrite passes selected by [`LowerOptions`] (BN fold →
//! ReLU fusion → identity strip), assigns every weight a pack slot, then
//! materialises everything the executors need per model — shapes, fix
//! positions, the liveness [`ExecPlan`] and the **pre-packed weight
//! panels**. Weights are immutable at inference, so their GEMM A-operand
//! panels are packed exactly once here; each frame then only packs the
//! activation (B) panels, which is where the per-frame pack share of the
//! 16M model drops measurably.

use crate::exec::{FpScratch, QScratch, Scratch};
use crate::module::{ConvKernel, IrOp, Module, PackFormat};
use crate::passes::{assign_pack_slots, fold_batchnorm, fuse_relu, strip_identities, PassStats};
use crate::plan::ExecPlan;
use seneca_tensor::gemm::{PackedA, PackedA4};
use seneca_tensor::quantized::Bitwidth;
use seneca_tensor::tconv::repack_tconv_weights;
use seneca_tensor::Shape4;

/// Which rewrite passes a lowering runs. Weight panels are always packed
/// once here: weights are immutable at inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// Fold inference BatchNorm into the preceding conv's weights.
    pub fold_bn: bool,
    /// Fuse exclusive standalone ReLUs into the conv/tconv epilogue.
    pub fuse_relu: bool,
    /// Strip softmax too (DPU-bound / quantizer-bound lowerings; dropout is
    /// always stripped — it is the identity at inference).
    pub strip_softmax: bool,
}

impl LowerOptions {
    /// Lowering of the graph as given: no semantic rewrites. The FP32/INT8
    /// host executors, the DPU runtime and the quantizer's calibration all
    /// use this.
    pub fn reference() -> Self {
        Self { fold_bn: false, fuse_relu: false, strip_softmax: false }
    }

    /// The quantizer/compiler frontend pipeline: BN fold + ReLU fusion +
    /// identity strip (softmax included), mirroring what Vitis AI does
    /// before calibration.
    pub fn frontend() -> Self {
        Self { fold_bn: true, fuse_relu: true, strip_softmax: true }
    }
}

/// Pre-packed GEMM panels of one conv/tconv weight tensor, indexed by the
/// node's pack slot.
#[derive(Debug, Clone)]
pub enum PackedKernel {
    /// FP32 conv: `[C_out, C_in*K*K]` panels.
    ConvF32(PackedA<f32>),
    /// INT8 conv: `[C_out, C_in*K*K]` panels.
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
    /// INT8 transpose conv: co-major `[4*C_out, C_in]` panels plus the
    /// per-row-replicated accumulator-scale bias.
    TConvI8 {
        /// Packed repacked weights.
        pa: PackedA<i8>,
        /// Bias replicated per kernel position (`4*C_out`).
        bias4: Vec<i32>,
    },
    /// INT4 (W4A8) conv: nibble-packed `[C_out, C_in*K*K]` panels — half
    /// the panel bytes of `ConvI8`.
    ConvI4(PackedA4),
    /// INT4 (W4A8) transpose conv: nibble-packed co-major `[4*C_out, C_in]`
    /// panels plus the per-row-replicated accumulator-scale bias.
    TConvI4 {
        /// Packed repacked weights (nibble-packed).
        pa: PackedA4,
        /// Bias replicated per kernel position (`4*C_out`).
        bias4: Vec<i32>,
    },
}

impl PackedKernel {
    /// Bytes held by the packed panels (memory accounting).
    pub fn bytes(&self) -> u64 {
        match self {
            PackedKernel::ConvF32(pa) => (pa.panel_len() * 4) as u64,
            PackedKernel::ConvI8(pa) => pa.panel_len() as u64,
            PackedKernel::TConvF32 { pa, bias4 } => ((pa.panel_len() + bias4.len()) * 4) as u64,
            PackedKernel::TConvI8 { pa, bias4 } => (pa.panel_len() + bias4.len() * 4) as u64,
            PackedKernel::ConvI4(pa) => pa.panel_len() as u64,
            PackedKernel::TConvI4 { pa, bias4 } => (pa.panel_len() + bias4.len() * 4) as u64,
        }
    }

    /// The panel format this kernel was materialized in.
    pub fn format(&self) -> PackFormat {
        match self {
            PackedKernel::ConvF32(_) | PackedKernel::TConvF32 { .. } => PackFormat::F32,
            PackedKernel::ConvI8(_) | PackedKernel::TConvI8 { .. } => PackFormat::I8,
            PackedKernel::ConvI4(_) | PackedKernel::TConvI4 { .. } => PackFormat::I4,
        }
    }
}

/// A lowered program: the rewritten module plus everything the executors
/// derive from it once per model — shapes, fix positions, the liveness
/// plan and the pre-packed weight panels.
#[derive(Debug, Clone)]
pub struct Lowered {
    module: Module,
    input: Shape4,
    shapes: Vec<Shape4>,
    fps: Vec<i32>,
    plan: ExecPlan,
    packs: Vec<PackedKernel>,
    stats: PassStats,
}

/// Runs the pass pipeline on `module` and materialises the lowered program
/// for the given input geometry.
pub fn lower(mut module: Module, input: Shape4, opts: &LowerOptions) -> Lowered {
    let mut stats = PassStats::default();
    if opts.fold_bn {
        stats.bn_folded = fold_batchnorm(&mut module);
    }
    if opts.fuse_relu {
        stats.relu_fused = fuse_relu(&mut module);
    }
    stats.identities_removed = strip_identities(&mut module, opts.strip_softmax);
    stats.pack_slots = assign_pack_slots(&mut module);
    stats.pack_slots_i4 = module
        .nodes
        .iter()
        .filter(|n| match &n.op {
            IrOp::Conv(a) | IrOp::TConv(a) => a.pack.is_some_and(|p| p.format == PackFormat::I4),
            _ => false,
        })
        .count();
    let shapes = module.shapes(input);
    let fps = module.fix_positions();
    let plan = module.plan(input);
    let packs = build_packs(&module);
    Lowered { module, input, shapes, fps, plan, packs, stats }
}

/// Packs every pack-slotted weight tensor once (model load time).
fn build_packs(m: &Module) -> Vec<PackedKernel> {
    let mut packs: Vec<Option<PackedKernel>> = Vec::new();
    for node in &m.nodes {
        let (attrs, transpose) = match &node.op {
            IrOp::Conv(a) => (a, false),
            IrOp::TConv(a) => (a, true),
            _ => continue,
        };
        let Some(ps) = attrs.pack else { continue };
        let packed = if transpose {
            let c_in = attrs.kernel.c_in(true);
            let c_out = attrs.kernel.c_out(true);
            match &attrs.kernel {
                ConvKernel::F32 { w, b } => {
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
                ConvKernel::I8 { w, bias, wbits, .. } => {
                    let mut wk = vec![0i8; 4 * c_out * c_in];
                    repack_tconv_weights(c_in, c_out, w.data(), &mut wk);
                    let bias4: Vec<i32> =
                        (0..4 * c_out).map(|i| bias.get(i / 4).copied().unwrap_or(0)).collect();
                    match wbits {
                        Bitwidth::W8 => {
                            PackedKernel::TConvI8 { pa: PackedA::pack(4 * c_out, c_in, &wk), bias4 }
                        }
                        Bitwidth::W4 => PackedKernel::TConvI4 {
                            pa: PackedA4::pack(4 * c_out, c_in, &wk),
                            bias4,
                        },
                    }
                }
            }
        } else {
            match &attrs.kernel {
                ConvKernel::F32 { w, .. } => {
                    let ws = w.shape();
                    PackedKernel::ConvF32(PackedA::pack(ws.n, ws.c * ws.h * ws.w, w.data()))
                }
                ConvKernel::I8 { w, wbits, .. } => {
                    let ws = w.shape();
                    match wbits {
                        Bitwidth::W8 => {
                            PackedKernel::ConvI8(PackedA::pack(ws.n, ws.c * ws.h * ws.w, w.data()))
                        }
                        Bitwidth::W4 => {
                            PackedKernel::ConvI4(PackedA4::pack(ws.n, ws.c * ws.h * ws.w, w.data()))
                        }
                    }
                }
            }
        };
        assert_eq!(
            packed.format(),
            ps.format,
            "pack slot {} format drifted from assignment",
            ps.slot
        );
        let slot = ps.slot;
        if packs.len() <= slot {
            packs.resize_with(slot + 1, || None);
        }
        assert!(packs[slot].is_none(), "pack slot {slot} assigned twice");
        packs[slot] = Some(packed);
    }
    packs.into_iter().map(|p| p.expect("pack slot without kernel")).collect()
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

    /// The liveness plan at the lowered input geometry.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// What the pass pipeline did.
    pub fn stats(&self) -> PassStats {
        self.stats
    }

    /// The pre-packed weight panels, indexed by pack slot.
    pub fn packs(&self) -> &[PackedKernel] {
        &self.packs
    }

    /// Bytes held by all pre-packed weight panels.
    pub fn packed_weight_bytes(&self) -> u64 {
        self.packs.iter().map(|p| p.bytes()).sum()
    }

    /// Allocates the per-worker FP32 arena at the lowered input geometry.
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

    fn make_scratch<T: Copy + Default>(&self, input: Shape4) -> Scratch<T> {
        Scratch::new(self.module.plan(input), self.module.shapes(input), self.fps.clone())
    }

    /// Re-plans `scratch` when it was built for another geometry than
    /// `input`: one odd-sized frame costs its worker a re-plan, not a panic.
    pub(crate) fn fit<T: Copy + Default>(&self, scratch: &mut Scratch<T>, input: Shape4) {
        if scratch.input_shape() != input {
            *scratch = self.make_scratch(input);
        }
    }
}
