//! Property tests for the IR executor: for random U-Net configurations,
//! bitwidth plans and input shapes, every node output of the lowered FP32 and
//! INT8 programs must equal the naive oracle's (`seneca_ir::oracle`: INT8 bit
//! for bit, FP32 within `F32_TOLERANCE`), across repeated frames through the
//! same scratch arena (stale slot contents must never leak into a frame).

mod common;

use common::{random_frame, random_graph, random_net, randomize_bn};
use proptest::prelude::*;
use rand::SeedableRng;
use seneca_ir::oracle::{self, assert_close_f32};
use seneca_ir::{
    assign_pack_slots, lower, select_winograd, IrOp, LowerOptions, Lowered, PackFormat,
};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_quant::{
    calibrate, fuse, mixed::quantizable_nodes, quantize_from_calibration, quantize_post_training,
    Bitwidth, PtqConfig, QuantizedGraph,
};
use seneca_tensor::{Shape4, Tensor};

/// Checks every node of `lowered` against the oracle over two frames through
/// one reused arena.
fn assert_f32_matches_oracle(lowered: &Lowered, shape: Shape4, seed: u64) {
    let mut scratch = lowered.make_scratch_f32();
    for frame in 0..2u64 {
        oracle::check_f32(lowered, &mut scratch, &random_frame(shape, seed.wrapping_add(frame)));
    }
}

/// The INT8 twin of [`assert_f32_matches_oracle`]: bit for bit.
fn assert_i8_matches_oracle(qg: &QuantizedGraph, shape: Shape4, seed: u64) {
    let lowered = lower(qg.to_ir(), shape, &LowerOptions::reference());
    let mut scratch = lowered.make_scratch_i8();
    for frame in 0..2u64 {
        let q = qg.quantize_input(&random_frame(shape, seed.wrapping_add(frame)));
        oracle::check_i8(&lowered, &mut scratch, &q);
    }
}

/// Every Table II model, lowered the way `Fp32RefBackend` runs it (FMA
/// GEMMs, BN and ReLU carried in the conv stores), stays within
/// `F32_TOLERANCE` of the oracle on every node. 32x32: the smallest input
/// the depth-5 models take.
#[test]
fn every_table_ii_model_fp32_matches_the_oracle() {
    let shape = Shape4::new(1, 1, 32, 32);
    for (seed, size) in ModelSize::ALL.into_iter().enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
        let graph = randomize_bn(Graph::from_unet(&UNet::from_size(size, &mut rng), "t2"), 7);
        let lowered = lower(graph.to_ir(), shape, &LowerOptions::reference());
        let x = random_frame(shape, seed as u64);
        oracle::check_f32(&lowered, &mut lowered.make_scratch_f32(), &x);
    }
}

/// The Winograd rule at paper geometry picks exactly the expected convs: on
/// 16M every conv but the `C_in = 1` first layer and the two 8x8 bottleneck
/// convs (16 tiles), on 1M every conv but the first layer (its bottleneck is
/// 16x16, 64 tiles).
#[test]
fn winograd_rule_picks_the_expected_convs_at_256() {
    let input = Shape4::new(1, 1, 256, 256);
    for (size, direct) in [
        (ModelSize::M16, vec![(1, 16, 256), (512, 512, 8), (512, 512, 8)]),
        (ModelSize::M1, vec![(1, 8, 256)]),
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let fg = fuse(&Graph::from_unet(&UNet::from_size(size, &mut rng), "rule"));
        let calib = vec![random_frame(Shape4::new(1, 1, 32, 32), 5)];
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        let mut m = qg.to_ir();
        let n_conv = assign_pack_slots(&mut m) - m.op_histogram()["qtconv"];
        let shapes = m.shapes(input);
        let picked = select_winograd(&mut m, &shapes);
        let kept: Vec<(usize, usize, usize)> = m
            .nodes
            .iter()
            .zip(&shapes)
            .filter_map(|(n, s)| match &n.op {
                IrOp::Conv(a) if a.pack.unwrap().format != PackFormat::Winograd => {
                    Some((a.kernel.c_in(false), a.kernel.c_out(false), s.h))
                }
                _ => None,
            })
            .collect();
        assert_eq!(kept, direct, "{}", size.label());
        assert_eq!(picked + direct.len(), n_conv, "{}", size.label());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// FP32: the IR-lowered executor (pack-once panels + liveness-planned
    /// arena, BN and ReLU carried in the conv stores) == oracle on every
    /// node, over several frames through one reused scratch arena.
    #[test]
    fn lowered_fp32_matches_naive(
        depth in 1usize..=3,
        base_filters in 2usize..6,
        scale in 1usize..3,
        seed in 0u64..1000,
    ) {
        let graph = random_graph(depth, base_filters, seed);
        let side = (1 << depth) * scale.max(1);
        let shape = Shape4::new(1, 1, side, side);
        let lowered = lower(graph.to_ir(), shape, &LowerOptions::reference());
        assert_f32_matches_oracle(&lowered, shape, seed.wrapping_mul(31));
    }

    /// The exact epilogue fusions: the reference lowering carries every
    /// conv's BatchNorm and ReLU in its GEMM store, which is bit for bit the
    /// unfused conv → BN → ReLU walk on the same kernel, and within
    /// tolerance of the oracle on every node. Batch of two, non-square.
    #[test]
    fn fused_fp32_equals_unfused_bit_for_bit(
        depth in 1usize..=3,
        base_filters in 2usize..6,
        wider in 1usize..3,
        seed in 0u64..1000,
    ) {
        let module = random_graph(depth, base_filters, seed).to_ir();
        let n_bn = module.op_histogram()["batchnorm"];
        let shape = Shape4::new(2, 1, 2 << depth, (2 + wider) << depth);
        let fused = lower(module.clone(), shape, &LowerOptions::reference());
        let unfused = lower(module, shape, &LowerOptions { fuse_relu: false });
        prop_assert_eq!((fused.stats().bn_fused, fused.stats().relu_fused), (n_bn, n_bn));
        prop_assert_eq!(fused.module().nodes.len() + 2 * n_bn, unfused.module().nodes.len());
        let x = random_frame(shape, seed.wrapping_mul(7));
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(fused.execute_f32(&x)), bits(unfused.execute_f32(&x)));
        assert_f32_matches_oracle(&fused, shape, seed.wrapping_mul(7));
    }

    /// INT8: the IR-lowered executor runs the exact integer arithmetic of
    /// the oracle — outputs and fix positions are identical on every node.
    #[test]
    fn lowered_int8_matches_naive(
        depth in 1usize..=3,
        base_filters in 2usize..6,
        seed in 0u64..1000,
    ) {
        let net = random_net(depth, base_filters, seed);
        let fg = fuse(&Graph::from_unet(&net, "prop"));
        let side = 1 << (depth + 1);
        let shape = Shape4::new(1, 1, side, side);
        let calib = vec![random_frame(shape, seed ^ 0xABCD)];
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        assert_i8_matches_oracle(&qg, shape, seed.wrapping_mul(17));
    }

    /// Mixed W4/W8: for a random per-layer bitwidth assignment, the
    /// IR-lowered executor (nibble-packed panels where assigned) matches the
    /// oracle, which sees a W4 layer as plain `i8` weights in `[-8, 7]`.
    #[test]
    fn lowered_mixed_w4_matches_naive(
        depth in 1usize..=3,
        base_filters in 2usize..6,
        mask in 0u64..u64::MAX,
        seed in 0u64..1000,
    ) {
        let net = random_net(depth, base_filters, seed);
        let fg = fuse(&Graph::from_unet(&net, "prop"));
        let side = 1 << (depth + 1);
        let shape = Shape4::new(1, 1, side, side);
        let calib = vec![random_frame(shape, seed ^ 0xBEEF)];
        let report = calibrate(&fg, &calib, &PtqConfig::default());
        // Random subset of conv/tconv layers goes W4.
        let mut wbits = vec![Bitwidth::W8; fg.nodes.len()];
        for (bit, node) in quantizable_nodes(&fg).into_iter().enumerate() {
            if mask >> (bit % 64) & 1 == 1 {
                wbits[node] = Bitwidth::W4;
            }
        }
        let qg = quantize_from_calibration(&fg, &report, &wbits);
        assert_i8_matches_oracle(&qg, shape, seed.wrapping_mul(23));
    }

    /// The plan never maps two simultaneously-live values to one slot, and
    /// its arena never exceeds the naive per-node total.
    #[test]
    fn plan_is_valid_and_never_larger_than_naive(
        depth in 1usize..=3,
        base_filters in 2usize..6,
        seed in 0u64..1000,
    ) {
        let net = random_net(depth, base_filters, seed);
        let graph = Graph::from_unet(&net, "prop");
        let shape = Shape4::new(1, 1, 1 << depth, 1 << depth);
        let plan = graph.to_ir().plan(shape);
        plan.assert_valid();
        prop_assert!(plan.peak_arena_elems() <= plan.total_activation_elems());
        prop_assert!(plan.n_slots() <= plan.n_nodes());
    }

    /// The deployment front end ([`fuse`]: BN fold + ReLU fuse + identity
    /// strip, softmax included) is a semantic rewrite — folded weights
    /// round-trip through f32 multiplies — so the rewritten program matches
    /// the oracle on its own nodes, and its output (the logits) matches the
    /// oracle's evaluation of the *unrewritten* module at the softmax input.
    #[test]
    fn frontend_fp32_matches_naive_within_tolerance(
        depth in 1usize..=2,
        base_filters in 2usize..5,
        seed in 0u64..1000,
    ) {
        let graph = Graph::from_unet(&random_net(depth, base_filters, seed), "prop");
        let module = graph.module();
        let side = 1 << (depth + 1);
        let shape = Shape4::new(1, 1, side, side);
        let lowered = lower(fuse(&graph), shape, &LowerOptions::reference());
        assert_f32_matches_oracle(&lowered, shape, seed.wrapping_mul(13));
        let img = random_frame(shape, seed.wrapping_mul(13));
        let out = &module.nodes[module.output];
        prop_assert!(matches!(out.op, IrOp::Softmax));
        let naive = oracle::run_f32(module, &img).swap_remove(out.inputs[0]);
        let fused = lowered.execute_f32(&img);
        prop_assert_eq!(fused.shape(), naive.shape());
        assert_close_f32(fused.data(), naive.data(), "rewritten vs original logits");
    }
}
