//! Batch normalisation (training forward/backward, inference, fold helpers).

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Learnable parameters and running statistics of a BatchNorm layer.
///
/// Per TensorFlow convention, `running_mean`/`running_var` are counted among
/// the layer's parameters (4 per channel) even though only `gamma`/`beta`
/// receive gradients — this matters for reproducing Table II's totals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BnState {
    /// Scale, one per channel.
    pub gamma: Vec<f32>,
    /// Shift, one per channel.
    pub beta: Vec<f32>,
    /// Exponential moving average of batch means.
    pub running_mean: Vec<f32>,
    /// Exponential moving average of batch variances.
    pub running_var: Vec<f32>,
    /// EMA momentum (0.9; lower than the TF default 0.99 so short
    /// CPU-scale trainings still produce usable inference statistics).
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl BnState {
    /// Identity-initialised BN for `channels` channels.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.9,
            eps: 1e-5,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// Channel `c`'s inference affine `(scale, shift)`: the layer computes
    /// `scale * x + shift` (two roundings). The one derivation shared by
    /// [`batchnorm_inference_into`] and the GEMM store that carries a BN
    /// (`GemmEpilogue::BiasBn`), so the two agree bit for bit.
    pub fn affine(&self, c: usize) -> (f32, f32) {
        let inv = 1.0 / (self.running_var[c] + self.eps).sqrt();
        let scale = self.gamma[c] * inv;
        (scale, self.beta[c] - self.running_mean[c] * scale)
    }
}

/// Cache returned by the training-mode forward pass, needed for backward.
#[derive(Debug, Clone)]
pub struct BnCache {
    /// Normalised input `(x - mu) / sqrt(var + eps)`.
    pub xhat: Tensor,
    /// Per-channel `1 / sqrt(var + eps)` of the batch statistics.
    pub inv_std: Vec<f32>,
}

/// Training-mode forward: normalises with *batch* statistics, updates the
/// running statistics in `bn`, and returns `(y, cache)`. Inference uses the
/// running statistics instead ([`batchnorm_inference_into`]).
pub fn batchnorm_forward(x: &Tensor, bn: &mut BnState) -> (Tensor, BnCache) {
    let s = x.shape();
    assert_eq!(s.c, bn.channels());
    let count = (s.n * s.hw()) as f32;
    let mut mean = vec![0.0f32; s.c];
    let mut var = vec![0.0f32; s.c];
    for n in 0..s.n {
        for (c, m) in mean.iter_mut().enumerate() {
            *m += plane(x, n, c).iter().sum::<f32>();
        }
    }
    for m in &mut mean {
        *m /= count;
    }
    for n in 0..s.n {
        for c in 0..s.c {
            let plane = plane(x, n, c);
            var[c] += plane.iter().map(|v| (v - mean[c]).powi(2)).sum::<f32>();
        }
    }
    for v in &mut var {
        *v /= count;
    }

    let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + bn.eps).sqrt()).collect();
    let mut xhat = Tensor::zeros(s);
    let mut y = Tensor::zeros(s);
    for n in 0..s.n {
        for c in 0..s.c {
            let src = plane(x, n, c).to_vec();
            let base = s.idx(n, c, 0, 0);
            for (i, v) in src.iter().enumerate() {
                let xh = (v - mean[c]) * inv_std[c];
                xhat.data_mut()[base + i] = xh;
                y.data_mut()[base + i] = bn.gamma[c] * xh + bn.beta[c];
            }
        }
    }

    for c in 0..s.c {
        bn.running_mean[c] = bn.momentum * bn.running_mean[c] + (1.0 - bn.momentum) * mean[c];
        bn.running_var[c] = bn.momentum * bn.running_var[c] + (1.0 - bn.momentum) * var[c];
    }
    (y, BnCache { xhat, inv_std })
}

/// Inference-mode BatchNorm (running statistics) into a caller-owned output
/// slice: `scale * x + shift` per channel, from [`BnState::affine`].
pub fn batchnorm_inference_into(s: crate::shape::Shape4, x: &[f32], bn: &BnState, out: &mut [f32]) {
    assert_eq!(s.c, bn.channels(), "BN channel count");
    assert_eq!(x.len(), s.len(), "input buffer/shape mismatch");
    assert_eq!(out.len(), s.len(), "output buffer size");
    for c in 0..s.c {
        let (scale, shift) = bn.affine(c);
        for n in 0..s.n {
            let base = s.idx(n, c, 0, 0);
            for i in 0..s.hw() {
                out[base + i] = scale * x[base + i] + shift;
            }
        }
    }
}

/// Gradients from [`batchnorm_backward`].
#[derive(Debug, Clone)]
pub struct BnGrads {
    /// Gradient w.r.t. the input.
    pub dx: Tensor,
    /// Gradient w.r.t. gamma.
    pub dgamma: Vec<f32>,
    /// Gradient w.r.t. beta.
    pub dbeta: Vec<f32>,
}

/// Backward pass (training mode; uses the cache from the forward pass).
pub fn batchnorm_backward(bn: &BnState, cache: &BnCache, dy: &Tensor) -> BnGrads {
    let s = dy.shape();
    let count = (s.n * s.hw()) as f32;
    let mut dgamma = vec![0.0f32; s.c];
    let mut dbeta = vec![0.0f32; s.c];
    for n in 0..s.n {
        for c in 0..s.c {
            let dyp = plane(dy, n, c);
            let xhp = plane(&cache.xhat, n, c);
            for (g, xh) in dyp.iter().zip(xhp) {
                dgamma[c] += g * xh;
                dbeta[c] += g;
            }
        }
    }

    // dx = (gamma * inv_std / m) * (m*dy - dbeta - xhat*dgamma)
    let mut dx = Tensor::zeros(s);
    for n in 0..s.n {
        for c in 0..s.c {
            let k = bn.gamma[c] * cache.inv_std[c] / count;
            let base = s.idx(n, c, 0, 0);
            let dyp = plane(dy, n, c).to_vec();
            let xhp = plane(&cache.xhat, n, c).to_vec();
            for i in 0..dyp.len() {
                dx.data_mut()[base + i] = k * (count * dyp[i] - dbeta[c] - xhp[i] * dgamma[c]);
            }
        }
    }
    BnGrads { dx, dgamma, dbeta }
}

/// Folds this BN (with its *running* statistics) into a preceding convolution
/// with weights `[C_out, C_in, K, K]` and bias `b`, returning `(w', b')` such
/// that `bn(conv(x, w) + b) == conv(x, w') + b'` at inference time.
///
/// This mirrors what the Vitis AI quantizer and VAI_C do before quantisation.
pub fn fold_bn_into_conv(w: &Tensor, b: &[f32], bn: &BnState) -> (Tensor, Vec<f32>) {
    let ws = w.shape();
    assert_eq!(ws.n, bn.channels(), "BN channels must match conv C_out");
    let mut w2 = w.clone();
    let mut b2 = vec![0.0f32; ws.n];
    let per_out = ws.c * ws.h * ws.w;
    for co in 0..ws.n {
        let inv = 1.0 / (bn.running_var[co] + bn.eps).sqrt();
        let scale = bn.gamma[co] * inv;
        for v in &mut w2.data_mut()[co * per_out..(co + 1) * per_out] {
            *v *= scale;
        }
        let bias_in = if b.is_empty() { 0.0 } else { b[co] };
        b2[co] = (bias_in - bn.running_mean[co]) * scale + bn.beta[co];
    }
    (w2, b2)
}

fn plane(t: &Tensor, n: usize, c: usize) -> &[f32] {
    let s = t.shape();
    let base = s.idx(n, c, 0, 0);
    &t.data()[base..base + s.hw()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d;
    use crate::shape::Shape4;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(shape: Shape4, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-2.0..2.0)).collect())
    }

    fn inference(x: &Tensor, bn: &BnState) -> Tensor {
        let mut y = Tensor::zeros(x.shape());
        batchnorm_inference_into(x.shape(), x.data(), bn, y.data_mut());
        y
    }

    #[test]
    fn training_forward_normalises_batch() {
        let x = rand_tensor(Shape4::new(4, 3, 5, 5), 1);
        let mut bn = BnState::new(3);
        let (y, cache) = batchnorm_forward(&x, &mut bn);
        // Per-channel mean ~0, var ~1 after normalisation with identity gamma.
        let s = y.shape();
        for c in 0..3 {
            let mut vals = vec![];
            for n in 0..s.n {
                vals.extend_from_slice(plane(&y, n, c));
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
        assert_eq!(cache.xhat.shape(), x.shape());
    }

    #[test]
    fn running_stats_move_toward_batch_stats() {
        let x = Tensor::full(Shape4::new(2, 1, 4, 4), 10.0);
        let mut bn = BnState::new(1);
        bn.momentum = 0.5;
        let _ = batchnorm_forward(&x, &mut bn);
        assert!((bn.running_mean[0] - 5.0).abs() < 1e-5); // 0.5*0 + 0.5*10
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut bn = BnState::new(1);
        bn.running_mean[0] = 2.0;
        bn.running_var[0] = 4.0;
        bn.gamma[0] = 3.0;
        bn.beta[0] = 1.0;
        let x = Tensor::full(Shape4::new(1, 1, 1, 2), 4.0);
        let y = inference(&x, &bn);
        // (4-2)/2 * 3 + 1 = 4 (eps negligible)
        for v in y.data() {
            assert!((v - 4.0).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let x = rand_tensor(Shape4::new(2, 2, 3, 3), 2);
        let g = rand_tensor(Shape4::new(2, 2, 3, 3), 3);
        let bn0 = BnState::new(2);
        let loss = |x: &Tensor| -> f32 {
            let mut bn = bn0.clone();
            let (y, _) = batchnorm_forward(x, &mut bn);
            y.data().iter().zip(g.data()).map(|(a, b)| a * b).sum()
        };
        let mut bn = bn0.clone();
        let (_, cache) = batchnorm_forward(&x, &mut bn);
        let grads = batchnorm_backward(&bn0, &cache, &g);
        let eps = 1e-2;
        for &i in &[0usize, 9, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let ana = grads.dx.data()[i];
            assert!((num - ana).abs() < 5e-2, "dx[{i}]: {num} vs {ana}");
        }
    }

    #[test]
    fn folding_preserves_inference_output() {
        let x = rand_tensor(Shape4::new(1, 2, 6, 6), 4);
        let w = rand_tensor(Shape4::new(3, 2, 3, 3), 5);
        let b = vec![0.1, -0.2, 0.3];
        let mut bn = BnState::new(3);
        bn.running_mean = vec![0.4, -0.5, 0.6];
        bn.running_var = vec![1.5, 0.7, 2.0];
        bn.gamma = vec![1.2, 0.8, -1.0];
        bn.beta = vec![0.0, 0.1, -0.1];

        let y1 = inference(&conv2d(&x, &w, &b), &bn);
        let (w2, b2) = fold_bn_into_conv(&w, &b, &bn);
        let y2 = conv2d(&x, &w2, &b2);
        for (a, bv) in y1.data().iter().zip(y2.data()) {
            assert!((a - bv).abs() < 1e-4, "{a} vs {bv}");
        }
    }
}
