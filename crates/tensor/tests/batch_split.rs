//! The per-image and per-plane kernels walk a batch image by image, plane by
//! plane: a batch of three gives the three single-image results
//! concatenated. The pool shapes have odd `H` and `W`, so a slip in the
//! plane or row slicing (a stride of the wrong side, a dropped trailing row)
//! shows as a mismatch.

use rand::{Rng, SeedableRng};
use seneca_tensor::activation::{
    argmax_channels, argmax_channels_i8, relu_backward, softmax_channels_backward,
    softmax_channels_into,
};
use seneca_tensor::pool::{maxpool2x2, maxpool2x2_backward, maxpool2x2_into};
use seneca_tensor::{Shape4, Tensor};

const BATCH: usize = 3;

fn rand_f32(s: Shape4, rng: &mut impl Rng) -> Tensor {
    Tensor::from_vec(s, (0..s.len()).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
}

/// Image `n` of a batch as a one-image tensor.
fn image(t: &Tensor, n: usize) -> Tensor {
    let s = t.shape();
    Tensor::from_vec(s.with_n(1), t.data()[n * s.chw()..(n + 1) * s.chw()].to_vec())
}

/// `f` on the whole batch equals `f` on each image, concatenated in order.
fn assert_batch_splits<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn(&[usize]) -> Vec<T>) {
    let whole = f(&(0..BATCH).collect::<Vec<_>>());
    let singles: Vec<T> = (0..BATCH).flat_map(|n| f(&[n])).collect();
    assert_eq!(whole, singles, "{what}: batch of {BATCH} != single-image calls");
}

/// The images `ns` of `t`, stacked.
fn pick(t: &Tensor, ns: &[usize]) -> Tensor {
    Tensor::stack_batch(&ns.iter().map(|&n| image(t, n)).collect::<Vec<_>>())
}

#[test]
fn a_batch_of_three_equals_three_single_image_calls() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBA7C);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

    // Channel kernels: six class maps, as the output head.
    let cs = Shape4::new(BATCH, 6, 5, 3);
    let x = rand_f32(cs, &mut rng);
    let dy = rand_f32(cs, &mut rng);
    let xq =
        Tensor::from_vec(cs, (0..cs.len()).map(|_| f32::from(rng.gen_range(-3i8..3))).collect());
    assert_batch_splits("softmax_channels_into", |ns| {
        let x = pick(&x, ns);
        let mut out = vec![f32::NAN; x.shape().len()];
        softmax_channels_into(x.shape(), x.data(), &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    });
    assert_batch_splits("softmax_channels_backward", |ns| {
        bits(&softmax_channels_backward(&pick(&x, ns), &pick(&dy, ns)))
    });
    assert_batch_splits("argmax_channels", |ns| argmax_channels(&pick(&x, ns)));
    assert_batch_splits("argmax_channels_i8", |ns| {
        let q = pick(&xq, ns);
        let data: Vec<i8> = q.data().iter().map(|&v| v as i8).collect();
        argmax_channels_i8(q.shape(), &data)
    });
    assert_batch_splits("relu_backward", |ns| bits(&relu_backward(&pick(&x, ns), &pick(&dy, ns))));

    // Pools: odd H and W; narrow i8 values so windows tie.
    let ps = Shape4::new(BATCH, 2, 7, 9);
    let x = rand_f32(ps, &mut rng);
    let xq =
        Tensor::from_vec(ps, (0..ps.len()).map(|_| f32::from(rng.gen_range(-2i8..2))).collect());
    let dy = rand_f32(ps.pooled2x2(), &mut rng);
    assert_batch_splits("maxpool2x2 values", |ns| bits(&maxpool2x2(&pick(&x, ns)).y));
    assert_batch_splits("maxpool2x2 argmax", |ns| maxpool2x2(&pick(&xq, ns)).argmax);
    assert_batch_splits("maxpool2x2_into f32", |ns| {
        let x = pick(&x, ns);
        let mut out = vec![f32::NAN; x.shape().pooled2x2().len()];
        maxpool2x2_into(x.shape(), x.data(), &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    });
    assert_batch_splits("maxpool2x2_into i8", |ns| {
        let q = pick(&xq, ns);
        let data: Vec<i8> = q.data().iter().map(|&v| v as i8).collect();
        let mut out = vec![0x55i8; q.shape().pooled2x2().len()];
        maxpool2x2_into(q.shape(), &data, &mut out);
        out
    });
    assert_batch_splits("maxpool2x2_backward", |ns| {
        let x = pick(&xq, ns);
        let pool = maxpool2x2(&x);
        bits(&maxpool2x2_backward(x.shape(), &pool, &pick(&dy, ns)))
    });
}
