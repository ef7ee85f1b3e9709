//! Property tests for the IR executor: for random U-Net configurations,
//! bitwidth plans and input shapes, every node output of the lowered FP32 and
//! INT8 programs must equal the naive oracle's (`seneca_ir::oracle`: INT8 bit
//! for bit, FP32 within `F32_TOLERANCE`), across repeated frames through the
//! same scratch arena (stale slot contents must never leak into a frame).

use proptest::prelude::*;
use rand::SeedableRng;
use seneca_ir::oracle::{self, assert_close_f32};
use seneca_ir::{lower, LowerOptions, Lowered};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{UNet, UNetConfig};
use seneca_quant::{
    calibrate, fuse, mixed::quantizable_nodes, quantize_from_calibration, quantize_post_training,
    Bitwidth, PtqConfig, QuantizedGraph,
};
use seneca_tensor::{Shape4, Tensor};

fn random_net(depth: usize, base_filters: usize, seed: u64) -> UNet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cfg = UNetConfig { depth, base_filters, in_channels: 1, num_classes: 6, dropout: 0.0 };
    UNet::new(cfg, &mut rng)
}

fn random_frame(shape: Shape4, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut img = Tensor::he_normal(shape, &mut rng);
    for v in img.data_mut() {
        *v = v.clamp(-1.0, 1.0);
    }
    img
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// FP32: the IR-lowered executor (pack-once panels + liveness-planned
    /// arena) == oracle on every node (BN, ReLU, dropout and softmax still
    /// explicit), over several frames through one reused scratch arena.
    #[test]
    fn lowered_fp32_matches_naive(
        depth in 1usize..=3,
        base_filters in 2usize..6,
        scale in 1usize..3,
        seed in 0u64..1000,
    ) {
        let net = random_net(depth, base_filters, seed);
        let graph = Graph::from_unet(&net, "prop");
        let side = (1 << depth) * scale.max(1);
        let shape = Shape4::new(1, 1, side, side);
        let lowered = lower(graph.to_ir(), shape, &LowerOptions::reference());
        assert_f32_matches_oracle(&lowered, shape, seed.wrapping_mul(31));
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

    /// The frontend pipeline (BN fold + ReLU fuse + identity strip) is a
    /// semantic rewrite — folded weights round-trip through f32 multiplies —
    /// so the rewritten program matches the oracle on its own nodes, and its
    /// output matches the oracle's evaluation of the *unrewritten* module.
    #[test]
    fn frontend_fp32_matches_naive_within_tolerance(
        depth in 1usize..=2,
        base_filters in 2usize..5,
        seed in 0u64..1000,
    ) {
        let net = random_net(depth, base_filters, seed);
        let module = Graph::from_unet(&net, "prop").to_ir();
        let side = 1 << (depth + 1);
        let shape = Shape4::new(1, 1, side, side);
        // strip_softmax stays false so both programs end in softmax.
        let opts = LowerOptions { strip_softmax: false, ..LowerOptions::frontend() };
        let lowered = lower(module.clone(), shape, &opts);
        assert_f32_matches_oracle(&lowered, shape, seed.wrapping_mul(13));
        let img = random_frame(shape, seed.wrapping_mul(13));
        let naive = oracle::run_f32(&module, &img).swap_remove(module.output);
        let fused = lowered.execute_f32(&img);
        prop_assert_eq!(fused.shape(), naive.shape());
        assert_close_f32(fused.data(), naive.data(), "rewritten vs original output");
    }
}
