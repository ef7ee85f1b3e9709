//! Property-based tests (proptest) on the core numeric invariants that the
//! whole reproduction rests on.

use proptest::prelude::*;
use seneca::metrics::seg::{confusion, dice, global_weighted_dice, tnr, tpr};
use seneca_tensor::conv::conv2d_backward;
use seneca_tensor::gemm::{igemm, sgemm, sgemm_reference};
use seneca_tensor::pool::{maxpool2x2, maxpool2x2_backward};
use seneca_tensor::quantized::{choose_fix_pos, requantize_i32, QTensor};
use seneca_tensor::tconv::tconv2x2_backward;
use seneca_tensor::{Shape4, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel blocked GEMM matches the sequential reference.
    #[test]
    fn sgemm_matches_reference(
        m in 1usize..20, k in 1usize..40, n in 1usize..20,
        seed in 0u64..1000
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m*k).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b: Vec<f32> = (0..k*n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut c1 = vec![0.0; m*n];
        let mut c2 = vec![0.0; m*n];
        sgemm(m, k, n, &a, &b, &mut c1);
        sgemm_reference(m, k, n, &a, &b, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// INT8 GEMM is exact integer arithmetic (associativity-independent).
    #[test]
    fn igemm_is_exact(
        m in 1usize..8, k in 1usize..32, n in 1usize..8,
        seed in 0u64..1000
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<i8> = (0..m*k).map(|_| rng.gen()).collect();
        let b: Vec<i8> = (0..k*n).map(|_| rng.gen()).collect();
        let mut c = vec![0i32; m*n];
        igemm(m, k, n, &a, &b, &mut c);
        for i in 0..m {
            for j in 0..n {
                let expect: i32 = (0..k).map(|kk| a[i*k+kk] as i32 * b[kk*n+j] as i32).sum();
                prop_assert_eq!(c[i*n+j], expect);
            }
        }
    }

    /// Conv and transpose-conv backward against naive loops over their
    /// definitions, at odd H/W, batch 2 and C_in != C_out: every entry of dX,
    /// dW and db within 1e-4 * (1 + |reference|) of the f64 reference.
    #[test]
    fn backward_matches_naive_loops(
        c_in in 1usize..5, dc in 1usize..4, hh in 1usize..6, wh in 1usize..6, seed in 0u64..1000
    ) {
        let (n, c_out, h, w) = (2, c_in + dc, 2 * hh + 1, 2 * wh + 1);
        let x = rand_tensor(Shape4::new(n, c_in, h, w), seed);
        let wc = rand_tensor(Shape4::new(c_out, c_in, 3, 3), seed + 1);
        let dy = rand_tensor(Shape4::new(n, c_out, h, w), seed + 2);
        let g = conv2d_backward(&x, &wc, &dy);
        let (dx, dw, db) = conv_backward_naive(&x, &wc, &dy);
        check_close(g.dx.data(), &dx);
        check_close(g.dw.data(), &dw);
        check_close(&g.db, &db);

        let wt = rand_tensor(Shape4::new(c_in, c_out, 2, 2), seed + 3);
        let dy = rand_tensor(Shape4::new(n, c_out, 2 * h, 2 * w), seed + 4);
        let g = tconv2x2_backward(&x, &wt, &dy);
        let (dx, dw, db) = tconv_backward_naive(&x, &wt, &dy);
        check_close(g.dx.data(), &dx);
        check_close(g.dw.data(), &dw);
        check_close(&g.db, &db);
    }

    /// Quantise/dequantise error is bounded by half a quantum (no saturation
    /// when the fix position comes from choose_fix_pos).
    #[test]
    fn quantization_error_bounded(vals in prop::collection::vec(-100.0f32..100.0, 1..64)) {
        let n = vals.len();
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, n), vals);
        let fp = choose_fix_pos(t.abs_max());
        let q = QTensor::quantize(&t, fp);
        let d = q.dequantize();
        let quantum = (-fp as f32).exp2();
        for (a, b) in t.data().iter().zip(d.data()) {
            prop_assert!((a - b).abs() <= 0.5 * quantum + 1e-6);
        }
    }

    /// Requantisation never leaves the INT8 range and is monotone in the
    /// accumulator.
    #[test]
    fn requantize_saturating_and_monotone(acc in any::<i32>(), shift in 0i32..24) {
        let v = requantize_i32(acc, shift);
        prop_assert!((-128..=127).contains(&(v as i32)));
        if acc < i32::MAX - 1024 {
            let v2 = requantize_i32(acc + 1024, shift);
            prop_assert!(v2 >= v);
        }
    }

    /// Max-pool backward conserves gradient mass.
    #[test]
    fn maxpool_gradient_mass_conserved(
        c in 1usize..4, hw in 2usize..8, seed in 0u64..1000
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = Shape4::new(1, c, hw * 2, hw * 2);
        let x = Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        let out = maxpool2x2(&x);
        let dy = Tensor::from_vec(out.y.shape(), (0..out.y.shape().len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        let dx = maxpool2x2_backward(shape, &out, &dy);
        prop_assert!((dx.sum() - dy.sum()).abs() < 1e-3);
    }

    /// Dice is symmetric, bounded, and 1 iff prediction == truth (on maps
    /// where the class occurs).
    #[test]
    fn dice_properties(labels in prop::collection::vec(0u8..3, 8..64), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pred: Vec<u8> = labels.iter().map(|&l| if rng.gen_bool(0.7) { l } else { rng.gen_range(0..3) }).collect();
        for c in 0..3u8 {
            if let Some(d) = dice(&pred, &labels, c) {
                prop_assert!((0.0..=1.0).contains(&d));
                // Symmetry.
                prop_assert_eq!(dice(&labels, &pred, c), Some(d));
            }
        }
        prop_assert_eq!(dice(&labels, &labels, 1).unwrap_or(1.0), 1.0);
        if let Some(g) = global_weighted_dice(&pred, &labels, 2) {
            prop_assert!((0.0..=1.0).contains(&g));
        }
    }

    /// TPR/TNR and the confusion matrix are consistent: counts partition the
    /// pixels.
    #[test]
    fn confusion_partitions_pixels(labels in prop::collection::vec(0u8..4, 4..64), c in 0u8..4) {
        let pred: Vec<u8> = labels.iter().rev().cloned().collect();
        let conf = confusion(&pred, &labels, c);
        prop_assert_eq!(
            (conf.tp + conf.fp + conf.fn_ + conf.tn) as usize,
            labels.len()
        );
        if let (Some(t), Some(n)) = (tpr(&pred, &labels, c), tnr(&pred, &labels, c)) {
            prop_assert!((0.0..=1.0).contains(&t));
            prop_assert!((0.0..=1.0).contains(&n));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Softmax output is a probability distribution for any finite input.
    #[test]
    fn softmax_is_distribution(
        c in 2usize..7, hw in 1usize..5,
        seed in 0u64..1000
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = Shape4::new(1, c, hw, hw);
        let x = Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-30.0f32..30.0)).collect());
        let y = seneca_tensor::activation::softmax_channels(&x);
        for pix in 0..hw * hw {
            let sum: f32 = (0..c).map(|ch| y.data()[ch * hw * hw + pix]).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    /// The DES closed network conserves jobs and keeps time monotone for
    /// arbitrary service times.
    #[test]
    fn des_conserves_jobs(
        pop in 1usize..6, jobs in 0usize..40,
        s1 in 1u64..1000, s2 in 1u64..1000
    ) {
        use seneca_hwsim::{simulate_closed_pipeline, Resource, StageSpec};
        let res = [Resource::new("a", 2), Resource::new("b", 1)];
        let stages = [StageSpec { resource: 0 }, StageSpec { resource: 1 }];
        let rep = simulate_closed_pipeline(&res, &stages, pop, jobs, |j, s| {
            if s == 0 { s1 + j as u64 % 7 } else { s2 }
        });
        prop_assert_eq!(rep.completed, jobs);
        prop_assert_eq!(rep.completion_times_ns.len(), jobs);
        for w in rep.completion_times_ns.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Busy time never exceeds capacity x makespan.
        prop_assert!(rep.busy_ns[0] <= 2 * rep.makespan_ns);
        prop_assert!(rep.busy_ns[1] <= rep.makespan_ns);
    }
}

fn rand_tensor(shape: Shape4, seed: u64) -> Tensor {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

fn check_close(got: &[f32], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (&g, &r)) in got.iter().zip(want).enumerate() {
        assert!((g as f64 - r).abs() <= 1e-4 * (1.0 + r.abs()), "[{i}]: {g} vs {r}");
    }
}

/// `(dX, dW, db)` of a 3x3 "same" conv by its definition, in f64:
/// `y[n,co,oy,ox] = Σ w[co,ci,ky,kx] * x[n,ci,oy+ky-1,ox+kx-1] + b[co]`.
fn conv_backward_naive(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (xs, ws) = (x.shape(), w.shape());
    let (mut dx, mut dw, mut db) = (vec![0.0; xs.len()], vec![0.0; ws.len()], vec![0.0; ws.n]);
    for n in 0..xs.n {
        for co in 0..ws.n {
            for oy in 0..xs.h {
                for ox in 0..xs.w {
                    let g = dy.at(n, co, oy, ox) as f64;
                    db[co] += g;
                    for ci in 0..xs.c {
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let (iy, ix) =
                                    ((oy + ky).wrapping_sub(1), (ox + kx).wrapping_sub(1));
                                if iy < xs.h && ix < xs.w {
                                    dx[((n * xs.c + ci) * xs.h + iy) * xs.w + ix] +=
                                        g * w.at(co, ci, ky, kx) as f64;
                                    dw[((co * xs.c + ci) * 3 + ky) * 3 + kx] +=
                                        g * x.at(n, ci, iy, ix) as f64;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (dx, dw, db)
}

/// `(dX, dW, db)` of a 2x2 stride-2 transpose conv by its definition, in
/// f64: `y[n,co,2iy+ky,2ix+kx] = Σ_ci w[ci,co,ky,kx] * x[n,ci,iy,ix] + b[co]`.
fn tconv_backward_naive(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (xs, ws) = (x.shape(), w.shape());
    let (mut dx, mut dw, mut db) = (vec![0.0; xs.len()], vec![0.0; ws.len()], vec![0.0; ws.c]);
    for n in 0..xs.n {
        for (co, acc) in db.iter_mut().enumerate() {
            for oy in 0..2 * xs.h {
                for ox in 0..2 * xs.w {
                    *acc += dy.at(n, co, oy, ox) as f64;
                }
            }
        }
        for ci in 0..xs.c {
            for iy in 0..xs.h {
                for ix in 0..xs.w {
                    for co in 0..ws.c {
                        for ky in 0..2 {
                            for kx in 0..2 {
                                let g = dy.at(n, co, 2 * iy + ky, 2 * ix + kx) as f64;
                                dx[((n * xs.c + ci) * xs.h + iy) * xs.w + ix] +=
                                    g * w.at(ci, co, ky, kx) as f64;
                                dw[((ci * ws.c + co) * 2 + ky) * 2 + kx] +=
                                    g * x.at(n, ci, iy, ix) as f64;
                            }
                        }
                    }
                }
            }
        }
    }
    (dx, dw, db)
}
