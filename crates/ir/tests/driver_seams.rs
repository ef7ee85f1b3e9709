//! The executor against the naive oracle at geometries where the GEMM driver
//! under it really cuts strips and forks: batch of two, non-square,
//! non-power-of-two widths (a transpose-conv or row-band column part must
//! cover whole input or output rows whatever `w` is), W8 and two W4 masks,
//! both dtypes. The INT8 program runs every conv kind: at a width of whole
//! 16-column halves its two convs read row bands (which straddle output rows
//! at 144 = 4.5 x 32), at any other width they gather panels, and a
//! transpose conv. The unit tests in `exec.rs` cover every op on 8x8 frames,
//! which the driver runs inline under one strip; this file covers what they
//! cannot reach.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seneca_ir::oracle;
use seneca_ir::{
    lower, Bitwidth, ConvAttrs, ConvKernel, DType, IrNode, IrOp, LowerOptions, Lowered, Module,
    PackedKernel,
};
use seneca_tensor::gemm::{FORK_MIN_MACS, NR, QUAD, STRIP_BYTES};
use seneca_tensor::igemm::quad_band;
use seneca_tensor::im2col::ConvGeom;
use seneca_tensor::quantized::choose_fix_pos_bits;
use seneca_tensor::{QTensor, Shape4, Tensor};

/// Input geometry: 38 x 150 = 5700 columns per image; INT8 convs gather.
const INPUT: Shape4 = Shape4 { n: 2, c: 6, h: 38, w: 150 };
/// 38 x 144 = 5472 columns per image; INT8 convs read row bands.
const BAND_INPUT: Shape4 = Shape4 { w: 144, ..INPUT };
/// conv 6 -> 32, conv 32 -> 64, tconv 64 -> 8.
const CHANNELS: [usize; 4] = [6, 32, 64, 8];

fn rand_tensor(shape: Shape4, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
}

fn op(i: usize, kernel: ConvKernel) -> IrOp {
    let attrs = ConvAttrs { kernel, relu: i < 2 };
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

/// The sizes above are chosen so that every layer forks at both widths and
/// cuts at least two strips in INT8 (hence more in FP32), `k` padded to
/// whole quads, and that the convs read row bands at [`BAND_INPUT`]'s width,
/// whose 16-column halves straddle output rows, and gather at [`INPUT`]'s;
/// if the driver's constants or the band rule move, this says so instead of
/// silently testing another path.
#[test]
fn the_geometry_reaches_the_seams() {
    let quads = |c: usize| c.next_multiple_of(QUAD);
    for input in [INPUT, BAND_INPUT] {
        let n = input.h * input.w;
        // (k, m) of each layer's GEMM.
        let gemms = [
            (quads(CHANNELS[0]) * 9, CHANNELS[1]),
            (quads(CHANNELS[1]) * 9, CHANNELS[2]),
            (quads(CHANNELS[2]), 4 * CHANNELS[3]),
        ];
        for (i, (k, m)) in gemms.into_iter().enumerate() {
            assert!(m * k * n >= FORK_MIN_MACS, "layer {i} at {input:?} would run inline");
            assert!(k * n > STRIP_BYTES, "layer {i} at {input:?} is a single INT8 strip");
        }
    }
    const {
        assert!(!INPUT.w.is_multiple_of(NR / 2));
        assert!(BAND_INPUT.w.is_multiple_of(NR / 2) && !BAND_INPUT.w.is_multiple_of(NR));
    }
}

/// The route each node of `lowered` runs: `"band"` or `"gather"` for an
/// INT8 conv, `"i8"` for an INT8 tconv, `"f32"` or `"none"` otherwise.
fn routes(lowered: &Lowered) -> Vec<&'static str> {
    let (nodes, shapes) = (&lowered.module().nodes, lowered.shapes());
    let route = |(node, pack): (&IrNode, &Option<PackedKernel>)| match pack {
        None => "none",
        Some(PackedKernel::ConvI8(pa)) => {
            let geom = ConvGeom::same_3x3(shapes[node.inputs[0]]);
            if quad_band(pa, &geom).is_some() {
                "band"
            } else {
                "gather"
            }
        }
        Some(PackedKernel::TConvI8 { .. }) => "i8",
        Some(_) => "f32",
    };
    nodes.iter().zip(lowered.packs()).map(route).collect()
}

#[test]
fn fp32_layers_match_the_oracle_across_strips_and_parts() {
    let mut rng = StdRng::seed_from_u64(41);
    let mut m = Module::new("seams-f32", DType::F32);
    for i in 0..3 {
        let w = rand_tensor(weight_shape(i), &mut rng);
        let b = (0..CHANNELS[i + 1]).map(|_| rng.gen_range(-0.2f32..0.2)).collect();
        m.output = m.push(op(i, ConvKernel::F32 { w: w.into(), b, bn: None }), vec![i]);
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
        // i8 range layer after layer (sums of 54 / 288 / 64 products).
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
        // Both convs read row bands or both gather, whatever their bitwidth:
        // W4 and W8 run the same INT8 panels.
        for (input, conv) in [(INPUT, "gather"), (BAND_INPUT, "band")] {
            let lowered = lower(m.clone(), input, &LowerOptions::reference());
            assert_eq!(routes(&lowered), ["none", conv, conv, "i8"], "mask {case}");
            let mut scratch = lowered.make_scratch_i8();
            let x = QTensor::quantize(&rand_tensor(input, &mut rng), fps[0]);
            oracle::check_i8(&lowered, &mut scratch, &x);
            let out = lowered.execute_i8(&x);
            let spread =
                out.data().iter().filter(|&&v| v != 0 && (-126..=126).contains(&v)).count();
            assert!(spread > out.data().len() / 4, "mask {case}: output saturated or dead");
        }
    }
}
