//! Property tests for the IR executor: for random U-Net configurations,
//! bitwidth plans and input shapes, every node output of the lowered FP32 and
//! INT8 programs must equal the naive oracle's (`seneca_ir::oracle`: INT8 bit
//! for bit, FP32 within `F32_TOLERANCE`), across repeated frames through the
//! same scratch arena (stale arena contents must never leak into a frame).

mod common;

use common::{random_frame, random_graph, random_net, randomize_bn};
use proptest::prelude::*;
use rand::SeedableRng;
use seneca_ir::oracle::{self, assert_close_f32};
use seneca_ir::{
    lower, ConvAttrs, ConvKernel, DType, IrOp, LowerOptions, Lowered, Module, PackedKernel,
};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_quant::{
    calibrate, fuse, mixed::quantizable_nodes, quantize_from_calibration, quantize_post_training,
    Bitwidth, PtqConfig, QuantizedGraph,
};
use seneca_tensor::igemm::quad_band;
use seneca_tensor::im2col::ConvGeom;
use seneca_tensor::{QTensor, Shape4, Tensor};

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

/// The route the INT8 conv `id` of `lowered` runs at its lowered input,
/// from its packed panels and its input width: `"band"` or `"gather"`.
fn route(lowered: &Lowered, id: usize) -> &'static str {
    let Some(PackedKernel::ConvI8(pa)) = &lowered.packs()[id] else {
        panic!("node {id} is not packed as an INT8 conv")
    };
    let input = lowered.shapes()[lowered.module().nodes[id].inputs[0]];
    if quad_band(pa, &ConvGeom::same_3x3(input)).is_some() {
        "band"
    } else {
        "gather"
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

/// At paper geometry exactly the expected convs read row bands: on 16M
/// every conv but the two 8x8 bottleneck convs (8 is not a whole 16-column
/// half), the `C_in = 1` first layer included; on 1M every conv (its
/// bottleneck is 16x16).
#[test]
fn int8_convs_read_row_bands_where_expected_at_256() {
    let input = Shape4::new(1, 1, 256, 256);
    for (size, gather) in
        [(ModelSize::M16, vec![(512, 512, 8), (512, 512, 8)]), (ModelSize::M1, vec![])]
    {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let fg = fuse(&Graph::from_unet(&UNet::from_size(size, &mut rng), "rule"));
        let calib = vec![random_frame(Shape4::new(1, 1, 32, 32), 5)];
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        let lowered = lower(qg.to_ir(), input, &LowerOptions::reference());
        let (m, shapes) = (lowered.module(), lowered.shapes());
        let (mut band, mut kept) = (0, Vec::new());
        for (id, (n, s)) in m.nodes.iter().zip(shapes).enumerate() {
            let IrOp::Conv(a) = &n.op else { continue };
            match route(&lowered, id) {
                "band" => band += 1,
                _ => kept.push((a.kernel.c_in(false), a.kernel.c_out(false), s.h)),
            }
        }
        assert_eq!(kept, gather, "{}", size.label());
        assert_eq!(band + gather.len(), m.op_histogram()["qconv"], "{}", size.label());
    }
}

/// A hand-built FP32 skip net with no pooling (any width works), relu convs
/// of `c[k]` channels: `x3 = concat(x1, x2)` feeds only conv `x4`,
/// `x5 = concat(x4, x2)` feeds two convs and `x8 = concat(x6, x7)` is the
/// output.
fn concat_net(c: [usize; 4], seed: u64) -> Module {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = Module::new("concats", DType::F32);
    let mut conv = |m: &mut Module, c_in: usize, c_out: usize, x: usize| {
        let w = Tensor::he_normal(Shape4::new(c_out, c_in, 3, 3), &mut rng);
        let b = (0..c_out).map(|i| 0.01 * i as f32 - 0.02).collect();
        let kernel = ConvKernel::F32 { w: w.into(), b, bn: None };
        m.push(IrOp::Conv(ConvAttrs { relu: true, ..ConvAttrs::new(kernel) }), vec![x])
    };
    let cat = |m: &mut Module, a: usize, b: usize| m.push(IrOp::Concat {}, vec![a, b]);
    let x1 = conv(&mut m, c[0], c[1], 0);
    let x2 = conv(&mut m, c[1], c[2], x1);
    let x3 = cat(&mut m, x1, x2);
    let x4 = conv(&mut m, c[1] + c[2], c[3], x3);
    let x5 = cat(&mut m, x4, x2);
    let x6 = conv(&mut m, c[3] + c[2], c[1], x5);
    let x7 = conv(&mut m, c[3] + c[2], c[2], x5);
    cat(&mut m, x6, x7);
    m
}

/// Per input of concat `id` under the plan of `lowered`: whether it is
/// placed at its channel offset of the concat's value (else the concat's
/// step copies it there); panics unless the concat writes exactly the
/// copied slots.
fn placed_inputs(lowered: &Lowered, id: usize) -> Vec<bool> {
    let plan = lowered.plan();
    let mut at = plan.range_of(id).start;
    let mut copied = 0;
    let placed = lowered.module().nodes[id]
        .inputs
        .iter()
        .map(|&x| {
            let slot = at..at + plan.elems_of(x);
            at = slot.end;
            let placed = plan.range_of(x) == slot;
            copied += if placed { 0 } else { slot.len() };
            placed
        })
        .collect();
    assert_eq!(plan.writes(id).len(), copied, "concat {id} writes its copied slots");
    placed
}

/// The differential test of concat placement, batch of two: a conv over a
/// placed concat gathers one contiguous map in every gather — the FP32 row
/// band (`W % 32 == 0`) and strips (`W` = 16, 8, odd), the INT8 row band
/// (`W % 16 == 0`) and gathered strips, W8 and W4 on each (both on the INT8
/// panels) — INT8 bit for bit and FP32 within tolerance of the oracle. `x3` places both inputs and
/// copies nothing; `x5` places `x4` and copies `x2`, which `x3` holds; the
/// output concat `x8` places both.
#[test]
fn placed_concats_match_the_oracle_in_every_gather() {
    let (cat, twice, output) = (3, 5, 8);
    // (channels, h, w, the conv over `x3`: its bitwidth and INT8 route)
    let cases = [
        ([2, 4, 6, 5], 6, 64, Bitwidth::W8, "band"),
        ([1, 3, 2, 4], 5, 32, Bitwidth::W4, "band"),
        ([2, 5, 4, 3], 16, 16, Bitwidth::W8, "band"),
        ([3, 4, 5, 4], 8, 8, Bitwidth::W4, "gather"),
        ([1, 6, 3, 2], 9, 13, Bitwidth::W8, "gather"),
    ];
    let placements = |lowered: &Lowered| [cat, twice, output].map(|id| placed_inputs(lowered, id));
    let want = [vec![true, true], vec![true, false], vec![true, true]];
    for (k, &(c, h, w, bits, want_route)) in cases.iter().enumerate() {
        let seed = 40 + k as u64;
        let fg = concat_net(c, seed);
        let shape = Shape4::new(2, c[0], h, w);
        let what = format!("{c:?} at {h}x{w}");

        let lowered = lower(fg.clone(), shape, &LowerOptions::reference());
        assert_eq!(placements(&lowered), want, "{what}");
        assert_f32_matches_oracle(&lowered, shape, seed);

        let calib = [random_frame(shape, seed ^ 0xCA7)];
        let report = calibrate(&fg, &calib, &PtqConfig::default());
        let mut wbits = vec![Bitwidth::W8; fg.nodes.len()];
        wbits[cat + 1] = bits;
        let m = quantize_from_calibration(&fg, &report, &wbits).to_ir();
        let lowered = lower(m, shape, &LowerOptions::reference());
        let IrOp::Conv(a) = &lowered.module().nodes[cat + 1].op else { unreachable!() };
        assert_eq!(route(&lowered, cat + 1), want_route, "{what}");
        assert_eq!(a.kernel.wbits(), bits, "{what}");
        assert_eq!(placements(&lowered), want, "{what}");
        let mut scratch = lowered.make_scratch_i8();
        for frame in 0..2u64 {
            let x = random_frame(shape, seed.wrapping_add(frame));
            let q = QTensor::quantize(&x, lowered.module().input_fp);
            oracle::check_i8(&lowered, &mut scratch, &q);
        }
    }
}

/// The same on random U-Nets, batch of two: every decoder concat places
/// both inputs and copies nothing, at levels whose widths take the FP32 band
/// (64) and strips (40, 20, 16, 10, 8) and the INT8 band (64, 16) and
/// gathered strips (40, 20, 10, 8), each W8 and W4.
#[test]
fn placed_decoder_concats_match_the_oracle_on_random_unets() {
    let mut routes = Vec::new();
    for (k, &(depth, filters, side)) in [(1, 4, 64), (2, 2, 16), (3, 3, 40)].iter().enumerate() {
        let seed = 60 + k as u64;
        let graph = random_graph(depth, filters, seed);
        let shape = Shape4::new(2, 1, side, side);
        let lowered = lower(graph.to_ir(), shape, &LowerOptions::reference());
        let concats = |lowered: &Lowered| {
            let m = lowered.module();
            let ids: Vec<usize> = (0..m.nodes.len())
                .filter(|&i| matches!(m.nodes[i].op, IrOp::Concat { .. }))
                .collect();
            for &i in &ids {
                assert_eq!(placed_inputs(lowered, i), [true, true], "concat {i}");
            }
            ids.len()
        };
        assert_eq!(concats(&lowered), depth);
        assert_f32_matches_oracle(&lowered, shape, seed);

        let fg = fuse(&graph);
        let report = calibrate(&fg, &[random_frame(shape, seed ^ 0xCA7)], &PtqConfig::default());
        let bits = if k == 1 { Bitwidth::W4 } else { Bitwidth::W8 };
        let m = quantize_from_calibration(&fg, &report, &vec![bits; fg.nodes.len()]).to_ir();
        let lowered = lower(m, shape, &LowerOptions::reference());
        assert_eq!(concats(&lowered), depth);
        let m = lowered.module();
        for (id, node) in m.nodes.iter().enumerate() {
            if let IrOp::Conv(a) = &node.op {
                if matches!(m.nodes[node.inputs[0]].op, IrOp::Concat { .. }) {
                    routes.push((route(&lowered, id), a.kernel.wbits()));
                }
            }
        }
        let mut scratch = lowered.make_scratch_i8();
        for frame in 0..2u64 {
            let x = random_frame(shape, seed.wrapping_add(frame));
            let q = QTensor::quantize(&x, lowered.module().input_fp);
            oracle::check_i8(&lowered, &mut scratch, &q);
        }
    }
    for route in ["band", "gather"] {
        for bits in [Bitwidth::W8, Bitwidth::W4] {
            let what = format!("no placed concat feeds a {bits:?} {route} conv");
            assert!(routes.contains(&(route, bits)), "{what}");
        }
    }
}

/// `ExecPlan::assert_valid` holds on every Table II model's FP32 and INT8
/// plans at 256² and 64², and on the DPU's channel-padded plan; and the
/// 256² activation arenas of 1M and 16M are pinned to the byte, so that a
/// materialized concat or a fragmenting placement fails here.
#[test]
fn table_ii_plans_are_valid_and_the_arenas_pinned() {
    let arch = seneca_dpu::arch::DpuArch::b4096_zcu104();
    let calib = vec![random_frame(Shape4::new(1, 1, 32, 32), 9)];
    for (seed, size) in ModelSize::ALL.into_iter().enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
        let graph = Graph::from_unet(&UNet::from_size(size, &mut rng), "pin");
        let (qg, _) = quantize_post_training(&fuse(&graph), &calib, &PtqConfig::default());
        let side = |s: usize| Shape4::new(1, 1, s, s);
        let fp = lower(graph.to_ir(), side(256), &LowerOptions::reference());
        let q = lower(qg.to_ir(), side(256), &LowerOptions::reference());
        for m in [fp.module(), q.module()] {
            for s in [256, 64] {
                m.plan(side(s)).assert_valid();
            }
        }
        for s in [256, 64] {
            qg.module().plan_padded(side(s), |c| arch.pad_channels(c)).assert_valid();
        }
        let arenas = (fp.plan().peak_arena_elems() * 4, q.plan().peak_arena_elems());
        let pinned = match size {
            ModelSize::M1 => (12_582_912, 3_145_728),
            ModelSize::M16 => (25_165_824, 6_291_456),
            _ => continue,
        };
        assert_eq!(arenas, pinned, "{} arena bytes (FP32, INT8) at 256²", size.label());
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
    /// IR-lowered executor (the INT8 panels for either bitwidth) matches the
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

    /// The plan never places two simultaneously-live values on the same
    /// bytes, its arena lies between the peak-live footprint and the naive
    /// per-node total, and every concat has both inputs placed in its value
    /// and writes nothing.
    #[test]
    fn plan_is_valid_and_never_larger_than_naive(
        depth in 1usize..=3,
        base_filters in 2usize..6,
        seed in 0u64..1000,
    ) {
        let net = random_net(depth, base_filters, seed);
        let graph = Graph::from_unet(&net, "prop");
        let shape = Shape4::new(1, 1, 1 << depth, 1 << depth);
        let module = graph.to_ir();
        let plan = module.plan(shape);
        plan.assert_valid();
        prop_assert!(plan.peak_arena_elems() <= plan.total_activation_elems());
        prop_assert!(plan.peak_live_elems() <= plan.peak_arena_elems());
        for (i, node) in module.nodes.iter().enumerate() {
            if let (IrOp::Concat { .. }, &[a, b]) = (&node.op, &node.inputs[..]) {
                let r = plan.range_of(i);
                prop_assert_eq!(plan.range_of(a).start, r.start, "concat {} skip", i);
                prop_assert_eq!(plan.range_of(b).end, r.end, "concat {} upsample", i);
                prop_assert!(plan.writes(i).is_empty(), "concat {} copies", i);
            }
        }
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
