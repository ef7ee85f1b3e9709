//! The executor against the naive oracle at a geometry where the GEMM driver
//! under it really cuts strips and forks: batch of two, non-square,
//! non-power-of-two width (a transpose-conv column part must cover whole input
//! rows whatever `w` is), W8 and two W4 masks, both dtypes. The unit tests in
//! `exec.rs` cover every op on 8x8 frames, which the driver runs inline under
//! one strip; this file covers what they cannot reach.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seneca_ir::oracle;
use seneca_ir::{
    lower, Bitwidth, ConvAttrs, ConvKernel, DType, IrOp, LowerOptions, Module, PackedKernel,
};
use seneca_tensor::gemm::{FORK_MIN_MACS, STRIP_BYTES};
use seneca_tensor::quantized::choose_fix_pos_bits;
use seneca_tensor::{QTensor, Shape4, Tensor};

/// Input geometry: 38 x 150 = 5700 columns per image.
const INPUT: Shape4 = Shape4 { n: 2, c: 8, h: 38, w: 150 };
/// conv 8 -> 24, conv 24 -> 64, tconv 64 -> 8.
const CHANNELS: [usize; 4] = [8, 24, 64, 8];

fn rand_tensor(shape: Shape4, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
}

fn op(i: usize, kernel: ConvKernel) -> IrOp {
    let attrs = ConvAttrs { kernel, relu: i < 2, pack: None };
    if i < 2 {
        IrOp::Conv(attrs)
    } else {
        IrOp::TConv(attrs)
    }
}

fn weight_shape(i: usize) -> Shape4 {
    let (c_in, c_out) = (CHANNELS[i], CHANNELS[i + 1]);
    if i < 2 {
        Shape4::new(c_out, c_in, 3, 3)
    } else {
        Shape4::new(c_in, c_out, 2, 2)
    }
}

/// The sizes above are chosen so that every layer forks and cuts at least two
/// strips in INT8 (hence more in FP32); if the driver's constants move, this
/// says so instead of silently testing the inline path.
#[test]
fn the_geometry_reaches_the_seams() {
    let n = INPUT.h * INPUT.w;
    for (i, k_per_c) in [9, 9, 1].into_iter().enumerate() {
        let (k, m) = (CHANNELS[i] * k_per_c, CHANNELS[i + 1] * if i < 2 { 1 } else { 4 });
        assert!(m * k * n >= FORK_MIN_MACS, "layer {i} would run inline");
        assert!(k * n > STRIP_BYTES, "layer {i} is a single INT8 strip");
    }
}

#[test]
fn fp32_layers_match_the_oracle_across_strips_and_parts() {
    let mut rng = StdRng::seed_from_u64(41);
    let mut m = Module::new("seams-f32", DType::F32);
    for i in 0..3 {
        let w = rand_tensor(weight_shape(i), &mut rng);
        let b = (0..CHANNELS[i + 1]).map(|_| rng.gen_range(-0.2f32..0.2)).collect();
        m.output = m.push(op(i, ConvKernel::F32 { w: w.into(), b }), vec![i]);
    }
    let lowered = lower(m, INPUT, &LowerOptions::reference());
    let mut scratch = lowered.make_scratch_f32();
    oracle::check_f32(&lowered, &mut scratch, &rand_tensor(INPUT, &mut rng));
}

#[test]
fn int8_layers_match_the_oracle_across_strips_and_parts_w8_and_w4() {
    use Bitwidth::{W4, W8};
    for (case, mask) in [[W8, W8, W8], [W4, W8, W4], [W8, W4, W8]].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(42 + case as u64);
        let mut m = Module::new("seams-i8", DType::I8);
        // Fix positions that keep the requantised activations spread over the
        // i8 range layer after layer (sums of 72 / 216 / 64 products).
        let fps = [6, 4, 3, 3];
        m.input_fp = fps[0];
        for (i, &wbits) in mask.iter().enumerate() {
            let w = rand_tensor(weight_shape(i), &mut rng);
            let w_fp = choose_fix_pos_bits(w.abs_max(), wbits);
            let acc_scale = ((fps[i] + w_fp) as f32).exp2();
            let bias = (0..CHANNELS[i + 1])
                .map(|_| (rng.gen_range(-0.3f32..0.3) * acc_scale).round() as i32)
                .collect();
            let kernel = ConvKernel::I8 {
                w: QTensor::quantize_bits(&w, w_fp, wbits),
                bias,
                in_fp: fps[i],
                out_fp: fps[i + 1],
                wbits,
            };
            m.output = m.push(op(i, kernel), vec![i]);
        }
        m.output_fp = fps[3];
        let lowered = lower(m, INPUT, &LowerOptions::reference());
        let nibble_slots = lowered
            .packs()
            .iter()
            .filter(|p| matches!(p, PackedKernel::ConvI4(_) | PackedKernel::TConvI4 { .. }))
            .count();
        assert_eq!(nibble_slots, mask.iter().filter(|&&b| b == W4).count(), "mask {case}");
        let mut scratch = lowered.make_scratch_i8();
        let x = QTensor::quantize(&rand_tensor(INPUT, &mut rng), fps[0]);
        oracle::check_i8(&lowered, &mut scratch, &x);
        let out = lowered.execute_i8(&x);
        let spread = out.data().iter().filter(|&&v| v != 0 && (-126..=126).contains(&v)).count();
        assert!(spread > out.data().len() / 4, "mask {case}: output saturated or dead");
    }
}
