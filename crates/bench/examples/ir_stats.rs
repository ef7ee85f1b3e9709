//! IR pass-pipeline and activation-memory smoke check over the five
//! Table II model sizes at 256x256. Used as a CI gate: on every model the
//! frontend pipeline must fold all BN nodes, fuse all standalone ReLUs,
//! strip all inference identities, give every conv/tconv weight a pack
//! slot — the planned arena must beat the naive sum-of-all-activations
//! pool on both the FP32 and INT8 lowerings — and the implicit-GEMM
//! route's reported peak (slots + strip buffers) must beat the materialized
//! route's footprint (slots + im2col column / pre-scatter buffer + the
//! same strip buffers).

use rand::SeedableRng;
use seneca_ir::{lower, IrOp, LowerOptions, Module};
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

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let input = Shape4::new(1, 1, 256, 256);
    let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)];
    println!(
        "{:>4} {:>5} {:>5} | {:>3} {:>4} {:>3} {:>4} | {:>11} {:>11} {:>6} | {:>11} {:>6} | {:>6} {:>6}",
        "cfg",
        "nodes",
        "low",
        "bn",
        "relu",
        "id",
        "pack",
        "fp32_peak",
        "fp32_total",
        "ratio",
        "int8_peak",
        "ratio",
        "fpdrop",
        "i8drop"
    );
    for size in ModelSize::ALL {
        let net = UNet::from_size(size, &mut rng);
        let g = Graph::from_unet(&net, size.label());
        let hist = g.op_histogram();
        let count = |op: &str| hist.get(op).copied().unwrap_or(0);
        let n_conv = count("conv3x3") + count("tconv2x2");

        // Frontend pipeline: every BN folds, every ReLU fuses, every
        // inference identity (dropout + softmax) strips, every weight
        // tensor gets exactly one pack slot.
        let fp = lower(g.to_ir(), input, &LowerOptions::frontend());
        let stats = fp.stats();
        assert_eq!(stats.bn_folded, count("batchnorm"), "{}: unfolded BN", size.label());
        assert_eq!(stats.relu_fused, count("relu"), "{}: unfused ReLU", size.label());
        assert_eq!(
            stats.identities_removed,
            count("dropout") + count("softmax"),
            "{}: identity left in the program",
            size.label()
        );
        assert_eq!(stats.pack_slots, n_conv, "{}: pack slot per weight tensor", size.label());
        fp.plan().assert_valid();

        // Arena accounting on the reference lowerings (what the host
        // executors actually run): the liveness plan must beat the naive
        // per-node activation pool.
        let fp_ref = lower(g.to_ir(), input, &LowerOptions::reference());
        let plan = fp_ref.plan();
        let (qg, _) = quantize_post_training(&fuse(&g), &calib, &PtqConfig::default());
        let q_ref = lower(qg.to_ir(), input, &LowerOptions::reference());
        assert_eq!(
            q_ref.stats().pack_slots,
            n_conv,
            "{}: INT8 pack slot per weight tensor",
            size.label()
        );
        let qplan = q_ref.plan();
        // Slot arena vs naive pool: an activations-only comparison, so it
        // uses the slot bytes, not the full footprint with GEMM strips.
        let (fp_slots, fp_total) =
            ((plan.peak_arena_elems() * 4) as u64, plan.total_activation_bytes(4));
        let (q_slots, q_total) = (qplan.peak_arena_elems() as u64, qplan.total_activation_bytes(1));
        assert!(
            fp_slots < fp_total && q_slots < q_total,
            "{}: liveness plan must beat the naive activation pool",
            size.label()
        );

        // Full reported footprint (slots + the GEMM strip buffers) vs the
        // materialized route, which carried the im2col column / pre-scatter
        // buffer alongside the same slots and strips. The peak must drop.
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
            "{:>4} {:>5} {:>5} | {:>3} {:>4} {:>3} {:>4} | {:>10.2}M {:>10.2}M {:>5.2}x | {:>10.2}M {:>5.2}x | {:>5.1}% {:>5.1}%",
            size.label(),
            g.nodes.len(),
            fp.module().nodes.len(),
            stats.bn_folded,
            stats.relu_fused,
            stats.identities_removed,
            stats.pack_slots,
            mib(fp_slots),
            mib(fp_total),
            fp_total as f64 / fp_slots as f64,
            mib(q_slots),
            q_total as f64 / q_slots as f64,
            100.0 * (1.0 - fp_peak as f64 / fp_mat as f64),
            100.0 * (1.0 - q_peak as f64 / q_mat as f64),
        );
    }
    println!(
        "ok: pass pipeline clean, peak arena < total activations, and implicit-GEMM \
         peak < materialized-route peak for all model sizes"
    );
}
