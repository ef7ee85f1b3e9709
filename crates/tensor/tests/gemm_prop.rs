//! Property tests for the packed GEMM engine's remainder handling.
//!
//! The micro-kernel only ever sees full `MR x NR` tiles — edge handling lives
//! entirely in the zero-padded packing and the clipped store. These tests
//! hammer exactly that seam: random `(m, k, n)` drawn to be deliberately NOT
//! multiples of the tile sizes (odd sizes, primes, 1xKx1 slivers), checked
//! against the naive reference kernels — bit for bit in both dtypes.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use seneca_tensor::gemm::{
    igemm, igemm_fused, igemm_reference, sgemm, sgemm_reference, strip_cols, PackElem, PackedA,
    FORK_MIN_MACS, MR, NR,
};
use seneca_tensor::quantized::requantize_i32;

fn rand_f32(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn rand_i8(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-128i32..128) as i8).collect()
}

/// Primes around and above the tile sizes (MR = 8, NR = 16), so every draw
/// exercises partial tiles in both dimensions.
const PRIMES: [usize; 8] = [1, 3, 7, 13, 17, 23, 31, 53];

/// Bit equality: the packed kernel and [`sgemm_reference`] both run one
/// ascending-`k` FMA chain per element.
fn same_bits(a: &[f32], b: &[f32]) -> Result<(), (usize, f32, f32)> {
    match a.iter().zip(b).position(|(x, y)| x.to_bits() != y.to_bits()) {
        Some(i) => Err((i, a[i], b[i])),
        None => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed sgemm == reference for sizes that straddle tile boundaries.
    #[test]
    fn sgemm_remainder_tiles_match_reference(
        mi in 0usize..8, ki in 0usize..8, ni in 0usize..8, seed in 0u64..1000
    ) {
        let (m, k, n) = (PRIMES[mi], PRIMES[ki], PRIMES[ni]);
        // Primes are never multiples of MR/NR (except 1 trivially dividing).
        prop_assert!(m == 1 || m % MR != 0);
        prop_assert!(n == 1 || n % NR != 0);
        let a = rand_f32(m * k, seed);
        let b = rand_f32(k * n, seed + 1);
        let mut c = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        sgemm(m, k, n, &a, &b, &mut c);
        sgemm_reference(m, k, n, &a, &b, &mut c_ref);
        if let Err((i, x, y)) = same_bits(&c, &c_ref) {
            prop_assert!(false, "{m}x{k}x{n} idx {i}: {x} vs {y}");
        }
    }

    /// The degenerate 1xKx1 sliver (single row, single column) for any K.
    #[test]
    fn sgemm_one_by_k_by_one(k in 1usize..600, seed in 0u64..1000) {
        let a = rand_f32(k, seed);
        let b = rand_f32(k, seed + 1);
        let mut c = vec![0.0; 1];
        let mut c_ref = vec![0.0; 1];
        sgemm(1, k, 1, &a, &b, &mut c);
        sgemm_reference(1, k, 1, &a, &b, &mut c_ref);
        prop_assert_eq!(c[0].to_bits(), c_ref[0].to_bits(), "{} vs {}", c[0], c_ref[0]);
    }

    /// Packed igemm is BIT-EXACT against the naive kernel for arbitrary
    /// off-tile sizes — i32 addition is associative, so no tolerance.
    #[test]
    fn igemm_packed_is_bit_exact(
        m in 1usize..40, k in 1usize..80, n in 1usize..40, seed in 0u64..1000
    ) {
        let a = rand_i8(m * k, seed);
        let b = rand_i8(k * n, seed + 1);
        let mut c = vec![0i32; m * n];
        let mut c_ref = vec![0i32; m * n];
        igemm(m, k, n, &a, &b, &mut c);
        igemm_reference(m, k, n, &a, &b, &mut c_ref);
        prop_assert_eq!(c, c_ref, "{}x{}x{}", m, k, n);
    }

    /// The fused requantise epilogue is bit-exact against the unfused
    /// accumulate-then-requantise sequence for arbitrary shifts and sizes.
    #[test]
    fn igemm_fused_is_bit_exact(
        m in 1usize..24, k in 1usize..60, n in 1usize..24,
        shift in -2i32..10, relu_bit in 0u32..2, seed in 0u64..1000
    ) {
        let relu = relu_bit == 1;
        let a = rand_i8(m * k, seed);
        let b = rand_i8(k * n, seed + 1);
        let bias: Vec<i32> = (0..m as i32).map(|i| i * 91 - 777).collect();
        let mut acc = vec![0i32; m * n];
        igemm_reference(m, k, n, &a, &b, &mut acc);
        let expect: Vec<i8> = acc
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let q = requantize_i32(v + bias[i / n], shift);
                if relu { q.max(0) } else { q }
            })
            .collect();
        let mut fused = vec![0i8; m * n];
        igemm_fused(m, k, n, &a, &b, &bias, shift, relu, &mut fused);
        prop_assert_eq!(fused, expect, "{}x{}x{} shift {} relu {}", m, k, n, shift, relu);
    }
}

/// Smallest row count that puts an `? x k x n` GEMM over the fork threshold.
fn rows_to_fork(k: usize, n: usize) -> usize {
    FORK_MIN_MACS.div_ceil(k * n)
}

/// The seams of the strip-mined driver on plain matrices, against the naive
/// triple loops (which share no code with it): one column short of a strip,
/// exactly one strip, one column into the second, many strips under a single
/// row tile, and `k = 1`. Every case is big enough to fork where the machine
/// has the threads; `f32` is compared for equality too — the driver runs one
/// ascending-`k` FMA chain per element like the reference does, whatever the
/// split.
#[test]
fn driver_seams_match_the_naive_reference() {
    let nc = strip_cols(576, 1);
    let mut cases: Vec<(usize, usize, usize)> =
        [nc - 1, nc, nc + 1].iter().map(|&n| (rows_to_fork(576, n) + 1, 576, n)).collect();
    cases.push((3, 576, rows_to_fork(576, 3) + 5)); // m < MR, a dozen strips
    cases.push((MR + 1, 1, FORK_MIN_MACS / MR + 7)); // k = 1
    let n = 3 * strip_cols(27, 4) + 17;
    cases.push((rows_to_fork(27, n) | 1, 27, n)); // odd k, odd m
    for (m, k, n) in cases {
        assert!(m * k * n >= FORK_MIN_MACS, "{m}x{k}x{n} would run inline");
        let (a, b) = (rand_i8(m * k, 1), rand_i8(k * n, 2));
        let (mut c, mut c_ref) = (vec![0i32; m * n], vec![0i32; m * n]);
        igemm(m, k, n, &a, &b, &mut c);
        igemm_reference(m, k, n, &a, &b, &mut c_ref);
        assert_eq!(c, c_ref, "igemm {m}x{k}x{n}");

        let (a, b) = (rand_f32(m * k, 3), rand_f32(k * n, 4));
        let (mut c, mut c_ref) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        sgemm(m, k, n, &a, &b, &mut c);
        sgemm_reference(m, k, n, &a, &b, &mut c_ref);
        assert!(c.iter().zip(&c_ref).all(|(x, y)| x.to_bits() == y.to_bits()), "sgemm {m}x{k}x{n}");
    }
}

/// All-extreme operands at the largest Table II `k`: the unsigned-weight
/// kernel's intermediate `Σ (a+128)·b` peaks here (`255·128·k`), and its
/// column-sum correction must land back on the exact signed sum.
#[test]
fn extreme_operands_are_bit_exact_at_k_9216() {
    let (m, k, n) = (MR + 1, 9216, NR + 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let mut pick = |len: usize, lo: i8, hi: i8| -> Vec<i8> {
        (0..len).map(|_| if rng.gen_range(0..2) == 0 { lo } else { hi }).collect()
    };
    let fills: [(Vec<i8>, Vec<i8>); 4] = [
        (vec![-128; m * k], vec![-128; k * n]),
        (vec![127; m * k], vec![-128; k * n]),
        (vec![-128; m * k], vec![127; k * n]),
        (pick(m * k, -128, 127), pick(k * n, -128, 127)),
    ];
    for (a, b) in &fills {
        let (mut c, mut c_ref) = (vec![0i32; m * n], vec![0i32; m * n]);
        igemm(m, k, n, a, b, &mut c);
        igemm_reference(m, k, n, a, b, &mut c_ref);
        assert_eq!(c, c_ref, "a[0] = {}, b[0] = {}", a[0], b[0]);
    }
}

/// Beyond `k = 32 768` the offset accumulator could overflow `i32`; packing
/// such an INT8 operand is refused outright.
#[test]
#[should_panic(expected = "accumulator-safe extent")]
fn int8_panels_refuse_k_beyond_the_overflow_bound() {
    let k = <i8 as PackElem>::MAX_K + 1;
    PackedA::pack(1, k, &vec![0i8; k]);
}
