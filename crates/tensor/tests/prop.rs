//! Property tests on kernel-level algebraic invariants.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use seneca_tensor::conv::conv2d;
use seneca_tensor::norm::{batchnorm_inference_into, fold_bn_into_conv, BnState};
use seneca_tensor::tconv::{tconv2x2, tconv2x2_backward};
use seneca_tensor::{Shape4, Tensor};

fn rand_tensor(shape: Shape4, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Convolution is linear in its input: conv(ax + by) == a conv(x) + b conv(y)
    /// (bias-free).
    #[test]
    fn conv_is_linear(
        c_in in 1usize..4, c_out in 1usize..4, hw in 3usize..8,
        a in -2.0f32..2.0, b in -2.0f32..2.0, seed in 0u64..500
    ) {
        let x = rand_tensor(Shape4::new(1, c_in, hw, hw), seed);
        let y = rand_tensor(Shape4::new(1, c_in, hw, hw), seed + 1);
        let w = rand_tensor(Shape4::new(c_out, c_in, 3, 3), seed + 2);
        let mut combo = x.clone();
        combo.scale(a);
        combo.axpy(b, &y);
        let lhs = conv2d(&combo, &w, &[]);
        let mut rhs = conv2d(&x, &w, &[]);
        rhs.scale(a);
        rhs.axpy(b, &conv2d(&y, &w, &[]));
        for (u, v) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((u - v).abs() < 1e-3 * (1.0 + u.abs()));
        }
    }

    /// The transpose convolution is the adjoint of the downsampling conv it
    /// mirrors: <tconv(x), y> == <x, tconv_backward_dx-like pairing>.
    #[test]
    fn tconv_forward_backward_adjoint(
        c_in in 1usize..4, c_out in 1usize..4, hw in 2usize..6, seed in 0u64..500
    ) {
        let x = rand_tensor(Shape4::new(1, c_in, hw, hw), seed);
        let w = rand_tensor(Shape4::new(c_in, c_out, 2, 2), seed + 1);
        let y = rand_tensor(Shape4::new(1, c_out, hw * 2, hw * 2), seed + 2);
        // <tconv(x), y> == <x, dX(y)> where dX is the backward data pass.
        let fx = tconv2x2(&x, &w, &[]);
        let grads = tconv2x2_backward(&x, &w, &y);
        let lhs: f64 = fx.data().iter().zip(y.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let rhs: f64 = x.data().iter().zip(grads.dx.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// BN folding is exact at inference for arbitrary BN statistics.
    #[test]
    fn bn_folding_exact(
        c_out in 1usize..5, seed in 0u64..500,
        mean in -2.0f32..2.0, var in 0.1f32..4.0, gamma in -2.0f32..2.0
    ) {
        let x = rand_tensor(Shape4::new(1, 2, 6, 6), seed);
        let w = rand_tensor(Shape4::new(c_out, 2, 3, 3), seed + 1);
        let bias: Vec<f32> = (0..c_out).map(|i| i as f32 * 0.1).collect();
        let mut bn = BnState::new(c_out);
        for i in 0..c_out {
            bn.running_mean[i] = mean + i as f32 * 0.3;
            bn.running_var[i] = var + i as f32 * 0.2;
            bn.gamma[i] = gamma;
            bn.beta[i] = 0.25 - i as f32 * 0.1;
        }
        let conv = conv2d(&x, &w, &bias);
        let mut reference = Tensor::zeros(conv.shape());
        batchnorm_inference_into(conv.shape(), conv.data(), &bn, reference.data_mut());
        let (w2, b2) = fold_bn_into_conv(&w, &bias, &bn);
        let folded = conv2d(&x, &w2, &b2);
        for (a, b) in reference.data().iter().zip(folded.data()) {
            prop_assert!((a - b).abs() < 2e-4 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    /// concat/split roundtrips for arbitrary channel splits.
    #[test]
    fn concat_split_roundtrip(
        ca in 1usize..5, cb in 1usize..5, hw in 1usize..6, seed in 0u64..500
    ) {
        let a = rand_tensor(Shape4::new(2, ca, hw, hw), seed);
        let b = rand_tensor(Shape4::new(2, cb, hw, hw), seed + 1);
        let cat = Tensor::concat_channels(&a, &b);
        prop_assert_eq!(cat.shape().c, ca + cb);
        let (a2, b2) = cat.split_channels(ca);
        prop_assert_eq!(a2, a);
        prop_assert_eq!(b2, b);
    }

    /// Max pooling never invents values: every output equals some input in
    /// its window and is >= all of them.
    #[test]
    fn maxpool_selects_window_max(c in 1usize..4, hw in 1usize..6, seed in 0u64..500) {
        use seneca_tensor::pool::maxpool2x2;
        let x = rand_tensor(Shape4::new(1, c, hw * 2, hw * 2), seed);
        let out = maxpool2x2(&x);
        let s = x.shape();
        for cc in 0..c {
            for oy in 0..hw {
                for ox in 0..hw {
                    let m = out.y.at(0, cc, oy, ox);
                    let window = [
                        x.at(0, cc, 2 * oy, 2 * ox),
                        x.at(0, cc, 2 * oy, 2 * ox + 1),
                        x.at(0, cc, 2 * oy + 1, 2 * ox),
                        x.at(0, cc, 2 * oy + 1, 2 * ox + 1),
                    ];
                    prop_assert!(window.contains(&m));
                    prop_assert!(window.iter().all(|&v| v <= m));
                }
            }
        }
        let _ = s;
    }
}
