//! IR pass-pipeline and activation-memory smoke check over the five
//! Table II model sizes at 256x256. Used as a CI gate: on every model the
//! deployment front end (`seneca_quant::fuse`) must fold all BN nodes, fuse
//! all standalone ReLUs, strip all inference identities, and its lowering
//! pack one kernel per conv/tconv node and none for any other; the reference lowering must
//! carry every BN and ReLU in a conv store; every concat must have both
//! inputs placed at their channel offsets of its value and copy nothing, in
//! both the FP32 and INT8 lowerings; the planned arena must equal the
//! peak-live footprint, equal the pinned arena of that model (INT8: of
//! bordered quad maps), and beat the
//! naive sum-of-all-activations pool in both; and the implicit-GEMM route's
//! reported peak (arena + strip buffers) must beat the materialized route's
//! footprint (arena + im2col column / pre-scatter buffer + the same strip
//! buffers).

use rand::SeedableRng;
use seneca_ir::{lower, ExecPlan, IrOp, LowerOptions, Lowered, Module};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_quant::{fuse, quantize_post_training, PtqConfig};
use seneca_tensor::gemm::{strip_scratch_len, NR};
use seneca_tensor::{Shape4, Tensor};

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Peak per-frame auxiliary bytes of the *materialized* lowering route the
/// implicit-GEMM rewrite removed: the `[C*9, H*W]` im2col column matrix
/// (conv) or the `[4*C_out, H*W]` pre-scatter buffer (tconv), which
/// coexisted with the GEMM driver's strip buffers per node; max over nodes,
/// per image (the executors reuse one buffer across the per-image loop).
fn materialized_aux_bytes(m: &Module, input: Shape4, bytes_per_elem: usize) -> u64 {
    let shapes = m.shapes(input);
    let mut peak = 0u64;
    for (node, out) in m.nodes.iter().zip(&shapes) {
        let s = shapes[node.inputs.first().copied().unwrap_or(0)];
        let elems = match &node.op {
            IrOp::Conv(_) => {
                let k = s.c * 9;
                k * s.hw() + strip_scratch_len(out.c, k, s.hw(), NR, bytes_per_elem)
            }
            IrOp::TConv(_) => {
                let m4 = 4 * out.c;
                m4 * s.hw() + strip_scratch_len(m4, s.c, s.hw(), s.w, bytes_per_elem)
            }
            _ => continue,
        };
        peak = peak.max((elems * bytes_per_elem) as u64);
    }
    peak
}

/// Panics unless `lowered` packs exactly one kernel per conv/tconv node and
/// none for any other node. Returns how many it packs.
fn assert_one_pack_per_conv(lowered: &Lowered, what: &str) -> usize {
    let m = lowered.module();
    for (i, (node, pack)) in m.nodes.iter().zip(lowered.packs()).enumerate() {
        let conv = matches!(node.op, IrOp::Conv(_) | IrOp::TConv(_));
        assert_eq!(pack.is_some(), conv, "{what}: node {i} packed {}", pack.is_some());
    }
    lowered.packs().iter().flatten().count()
}

/// FP32 activation arena elements of each Table II model at 256x256, in
/// `ModelSize::ALL` order: what the greedy-by-size placement reached when
/// each concat was still folded into its conv's gather. Laying concats out
/// by address must not grow any of them.
const ARENA_ELEMS_256: [usize; 5] = [3_145_728, 2_359_296, 3_145_728, 4_325_376, 6_291_456];

/// The INT8 arenas at 256x256, in bytes: the same placement over bordered
/// quad maps (channels padded to quads, a one-pixel border), the output
/// conv's NCHW image held beside the arena.
const INT8_ARENA_BYTES_256: [usize; 5] = [3_195_072, 2_396_304, 3_195_072, 4_792_608, 6_390_144];

/// Panics unless every concat of `m` has both inputs placed side by side as
/// its value under `plan` and copies nothing. Returns how many there are.
fn assert_concats_placed(m: &Module, plan: &ExecPlan, what: &str) -> usize {
    let mut placed = 0;
    for (i, node) in m.nodes.iter().enumerate() {
        let (IrOp::Concat { .. }, &[a, b]) = (&node.op, &node.inputs[..]) else { continue };
        let (r, half) = (plan.range_of(i), plan.elems_of(a));
        let slots = (r.start..r.start + half, r.start + half..r.end);
        assert_eq!((plan.range_of(a), plan.range_of(b)), slots, "{what}: concat {i} not placed");
        assert!(plan.writes(i).is_empty(), "{what}: concat {i} copies");
        placed += 1;
    }
    placed
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let input = Shape4::new(1, 1, 256, 256);
    let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)];
    println!(
        "{:>4} {:>5} {:>5} | {:>3} {:>4} {:>3} {:>4} {:>3} | {:>11} {:>11} {:>6} {:>11} | {:>11} {:>6} {:>11} | {:>6} {:>6}",
        "cfg",
        "nodes",
        "low",
        "bn",
        "relu",
        "id",
        "pack",
        "cat",
        "fp32_arena",
        "fp32_total",
        "ratio",
        "fp32_full",
        "int8_arena",
        "ratio",
        "int8_full",
        "fpdrop",
        "i8drop"
    );
    let arenas = ARENA_ELEMS_256.into_iter().zip(INT8_ARENA_BYTES_256);
    for (size, (arena, q_arena)) in ModelSize::ALL.into_iter().zip(arenas) {
        let net = UNet::from_size(size, &mut rng);
        let g = Graph::from_unet(&net, size.label());
        let hist = g.module().op_histogram();
        let count = |op: &str| hist.get(op).copied().unwrap_or(0);
        let n_conv = count("conv3x3") + count("tconv2x2");

        // Deployment front end: every BN folds, every ReLU fuses, every
        // inference identity (dropout + softmax) strips, and the convs are
        // all kept, so every weight tensor is packed exactly once.
        let fused = fuse(&g);
        let fused_hist = fused.op_histogram();
        let left = |op: &str| fused_hist.get(op).copied().unwrap_or(0);
        assert_eq!(left("batchnorm"), 0, "{}: unfolded BN", size.label());
        let relu_fused = fused
            .nodes
            .iter()
            .filter(|n| matches!(&n.op, IrOp::Conv(a) | IrOp::TConv(a) if a.relu))
            .count();
        assert_eq!(
            (left("relu"), relu_fused),
            (0, count("relu")),
            "{}: unfused ReLU",
            size.label()
        );
        assert_eq!(
            left("dropout") + left("softmax"),
            0,
            "{}: identity left in the program",
            size.label()
        );
        assert_eq!(left("conv3x3") + left("tconv2x2"), n_conv, "{}: conv lost", size.label());
        let fp = lower(fused.clone(), input, &LowerOptions::reference());
        let packed = assert_one_pack_per_conv(&fp, size.label());
        assert_eq!(packed, n_conv, "{}: one packed kernel per weight tensor", size.label());
        fp.plan().assert_valid();

        // Arena accounting on the reference lowerings (what the host
        // executors actually run): the liveness plan must beat the naive
        // per-node activation pool.
        let fp_ref = lower(g.to_ir(), input, &LowerOptions::reference());
        // The reference lowering runs the exact fusions: every BN and ReLU
        // rides in its conv's GEMM store, none is left as a pass.
        let ref_stats = fp_ref.stats();
        assert_eq!(
            (ref_stats.bn_fused, ref_stats.relu_fused),
            (count("batchnorm"), count("relu")),
            "{}: BN or ReLU left as a pass in the FP32 reference lowering",
            size.label()
        );
        let plan = fp_ref.plan();
        let (qg, _) = quantize_post_training(&fused, &calib, &PtqConfig::default());
        let q_ref = lower(qg.to_ir(), input, &LowerOptions::reference());
        let q_packed = assert_one_pack_per_conv(&q_ref, size.label());
        assert_eq!(q_packed, n_conv, "{}: one INT8 packed kernel per weight tensor", size.label());
        let qplan = q_ref.plan();
        let cats = assert_concats_placed(fp_ref.module(), plan, size.label());
        assert_eq!(cats, assert_concats_placed(q_ref.module(), qplan, size.label()));
        // Greedy-by-size offsets reach the lower bound of any placement, and
        // the pinned arena.
        for (p, what, arena) in [(plan, "FP32", arena), (qplan, "INT8", q_arena)] {
            assert_eq!(
                (p.peak_arena_elems(), p.peak_live_elems()),
                (arena, arena),
                "{} {what}: arena vs pinned and peak-live footprint",
                size.label()
            );
        }
        // Arena vs naive pool: an activations-only comparison, so it uses
        // the arena bytes, not the full footprint with GEMM strips.
        let (fp_slots, fp_total) =
            ((plan.peak_arena_elems() * 4) as u64, plan.total_activation_bytes(4));
        let (q_slots, q_total) = (qplan.peak_arena_elems() as u64, qplan.total_activation_bytes(1));
        assert!(
            fp_slots < fp_total && q_slots < q_total,
            "{}: liveness plan must beat the naive activation pool",
            size.label()
        );

        // Full reported footprint (arena + the GEMM strip buffers) vs the
        // materialized route, which carried the im2col column / pre-scatter
        // buffer alongside the same arena and strips. The peak must drop.
        let (fp_peak, q_peak) = (plan.peak_arena_bytes(4), qplan.peak_arena_bytes(1));
        let fp_mat = fp_slots + materialized_aux_bytes(fp_ref.module(), input, 4);
        let q_mat = q_slots + materialized_aux_bytes(q_ref.module(), input, 1);
        assert!(
            fp_peak < fp_mat && q_peak < q_mat,
            "{}: implicit-GEMM peak must beat the materialized route \
             (fp32 {fp_peak} vs {fp_mat}; int8 {q_peak} vs {q_mat})",
            size.label()
        );
        println!(
            "{:>4} {:>5} {:>5} | {:>3} {:>4} {:>3} {:>4} {:>3} | {:>10.2}M {:>10.2}M {:>5.2}x {:>10.2}M | {:>10.2}M {:>5.2}x {:>10.2}M | {:>5.1}% {:>5.1}%",
            size.label(),
            g.module().nodes.len(),
            fused.nodes.len(),
            count("batchnorm"),
            relu_fused,
            count("dropout") + count("softmax"),
            packed,
            cats,
            mib(fp_slots),
            mib(fp_total),
            fp_total as f64 / fp_slots as f64,
            mib(fp_peak),
            mib(q_slots),
            q_total as f64 / q_slots as f64,
            mib(q_peak),
            100.0 * (1.0 - fp_peak as f64 / fp_mat as f64),
            100.0 * (1.0 - q_peak as f64 / q_mat as f64),
        );
    }
    println!(
        "ok: pass pipeline clean, every concat placed and copying nothing, arena = pinned = \
         peak live < total activations, and implicit-GEMM peak < materialized-route peak for \
         all model sizes"
    );
}
