//! Segmentation losses: weighted Focal Tversky (the SENECA training loss,
//! Eq. (1)–(2) of the paper) and pixel cross-entropy (the warm-up epoch's).
//!
//! All losses operate on softmax *probabilities* `[N, C, H, W]` and flat
//! ground-truth labels (`u8`, length `N*H*W`), and return `(value, dprobs)`
//! so they can feed the reverse walk ([`crate::graph::Graph::backward`])
//! directly.

use seneca_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// The weighted Focal Tversky loss:
///
/// `FTL_w = (1 - Σ_c w_c·TI_c / Σ_c w_c)^γ` with
/// `TI_c = Σ p·g / (Σ p·g + α Σ (1-p)·g + β Σ p·(1-g))`.
///
/// The paper uses `α = 0.7`, `β = 0.3`, `γ = 4/3` and class weights
/// inversely proportional to organ pixel frequency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FocalTverskyLoss {
    /// False-negative regularisation weight.
    pub alpha: f32,
    /// False-positive regularisation weight.
    pub beta: f32,
    /// Focusing parameter (>1 pushes training toward hard classes).
    pub gamma: f32,
    /// Per-class weights `w_c` (length = number of classes).
    pub class_weights: Vec<f32>,
    /// Smoothing added to numerator and denominator (avoids 0/0 for classes
    /// absent from a batch).
    pub smooth: f32,
}

impl FocalTverskyLoss {
    /// Paper defaults (`α=0.7, β=0.3, γ=4/3`) with the given class weights.
    pub fn paper_defaults(class_weights: Vec<f32>) -> Self {
        Self { alpha: 0.7, beta: 0.3, gamma: 4.0 / 3.0, class_weights, smooth: 1.0 }
    }

    /// Derives class weights inversely proportional to pixel frequencies,
    /// normalised so the weights sum to the class count. `freqs` may contain
    /// zeros (clamped) and need not be normalised.
    pub fn inverse_frequency_weights(freqs: &[f64]) -> Vec<f32> {
        let total: f64 = freqs.iter().sum();
        let inv: Vec<f64> = freqs
            .iter()
            .map(|&f| {
                let rel = (f / total.max(1e-12)).max(1e-4);
                1.0 / rel
            })
            .collect();
        let s: f64 = inv.iter().sum();
        let k = freqs.len() as f64;
        inv.iter().map(|&v| (v / s * k) as f32).collect()
    }

    /// Computes the loss and its gradient w.r.t. `probs`.
    ///
    /// `labels[i] == c` means pixel `i` (NCHW order with channels removed)
    /// belongs to class `c`.
    pub fn forward_backward(&self, probs: &Tensor, labels: &[u8]) -> (f32, Tensor) {
        let s = probs.shape();
        let c = s.c;
        assert_eq!(self.class_weights.len(), c, "class weight count");
        assert_eq!(labels.len(), s.n * s.hw(), "label count");

        let (tis, partials) = self.tversky_indices(probs, labels);

        // S = Σ w·TI / Σ w ; loss = (1 - S)^γ
        let wsum: f32 = self.class_weights.iter().sum();
        let sval: f32 =
            tis.iter().zip(&self.class_weights).map(|(ti, w)| ti * w).sum::<f32>() / wsum;
        let one_minus = (1.0 - sval).max(1e-8);
        let loss = one_minus.powf(self.gamma);
        // dL/dTI_c = -γ (1-S)^(γ-1) w_c / Σw
        let outer = -self.gamma * one_minus.powf(self.gamma - 1.0) / wsum;

        let hw = s.hw();
        let mut dprobs = Tensor::zeros(s);
        for n in 0..s.n {
            for (cc, &(num, den)) in partials.iter().enumerate().take(c) {
                let dl_dti = outer * self.class_weights[cc];
                let base = s.idx(n, cc, 0, 0);
                let lbase = n * hw;
                for pix in 0..hw {
                    let g = (labels[lbase + pix] as usize == cc) as u8 as f32;
                    // d num / dp = g ; d den / dp = g - αg + β(1-g)
                    let dden = g - self.alpha * g + self.beta * (1.0 - g);
                    let dti_dp = (g * den - num * dden) / (den * den);
                    dprobs.data_mut()[base + pix] = dl_dti * dti_dp;
                }
            }
        }
        (loss, dprobs)
    }

    /// Loss value only (no gradient).
    pub fn value(&self, probs: &Tensor, labels: &[u8]) -> f32 {
        let (tis, _) = self.tversky_indices(probs, labels);
        let wsum: f32 = self.class_weights.iter().sum();
        let sval: f32 =
            tis.iter().zip(&self.class_weights).map(|(ti, w)| ti * w).sum::<f32>() / wsum;
        (1.0 - sval).max(1e-8).powf(self.gamma)
    }

    /// Per-class Tversky indices plus `(numerator, denominator)` partials.
    fn tversky_indices(&self, probs: &Tensor, labels: &[u8]) -> (Vec<f32>, Vec<(f32, f32)>) {
        let s = probs.shape();
        let hw = s.hw();
        let mut num = vec![0.0f64; s.c];
        let mut fn_sum = vec![0.0f64; s.c]; // Σ (1-p)·g
        let mut fp_sum = vec![0.0f64; s.c]; // Σ p·(1-g)
        for n in 0..s.n {
            let lbase = n * hw;
            for c in 0..s.c {
                let base = s.idx(n, c, 0, 0);
                let plane = &probs.data()[base..base + hw];
                for (pix, &p) in plane.iter().enumerate() {
                    let p = p as f64;
                    if labels[lbase + pix] as usize == c {
                        num[c] += p;
                        fn_sum[c] += 1.0 - p;
                    } else {
                        fp_sum[c] += p;
                    }
                }
            }
        }
        let mut tis = Vec::with_capacity(s.c);
        let mut partials = Vec::with_capacity(s.c);
        for c in 0..s.c {
            let n_c = num[c] as f32 + self.smooth;
            let d_c = (num[c] + self.alpha as f64 * fn_sum[c] + self.beta as f64 * fp_sum[c])
                as f32
                + self.smooth;
            tis.push(n_c / d_c);
            partials.push((n_c, d_c));
        }
        (tis, partials)
    }
}

/// Mean pixel cross-entropy `-log p_true` with gradient w.r.t. probabilities.
pub fn cross_entropy_loss(probs: &Tensor, labels: &[u8]) -> (f32, Tensor) {
    let s = probs.shape();
    let hw = s.hw();
    let count = (s.n * hw) as f32;
    let mut loss = 0.0f64;
    let mut dprobs = Tensor::zeros(s);
    for n in 0..s.n {
        for pix in 0..hw {
            let c = labels[n * hw + pix] as usize;
            let idx = s.idx(n, c, 0, 0) + pix;
            let p = probs.data()[idx].max(1e-8);
            loss += -(p as f64).ln();
            dprobs.data_mut()[idx] = -1.0 / (p * count);
        }
    }
    ((loss / count as f64) as f32, dprobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use seneca_tensor::activation::softmax_channels;
    use seneca_tensor::Shape4;

    fn random_case(seed: u64, shape: Shape4) -> (Tensor, Vec<u8>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let logits = Tensor::from_vec(
            shape,
            (0..shape.len()).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
        );
        let probs = softmax_channels(&logits);
        let labels: Vec<u8> =
            (0..shape.n * shape.hw()).map(|_| rng.gen_range(0..shape.c as u8)).collect();
        (probs, labels)
    }

    /// One-hot ground truth as a probability tensor.
    fn one_hot(labels: &[u8], shape: Shape4) -> Tensor {
        let hw = shape.hw();
        assert_eq!(labels.len(), shape.n * hw);
        let mut t = Tensor::zeros(shape);
        for n in 0..shape.n {
            for pix in 0..hw {
                let c = labels[n * hw + pix] as usize;
                t.data_mut()[shape.idx(n, c, 0, 0) + pix] = 1.0;
            }
        }
        t
    }

    #[test]
    fn perfect_prediction_gives_near_zero_ftl() {
        let shape = Shape4::new(1, 3, 4, 4);
        let labels: Vec<u8> = (0..16).map(|i| (i % 3) as u8).collect();
        let probs = one_hot(&labels, shape);
        let loss = FocalTverskyLoss::paper_defaults(vec![1.0; 3]);
        let (v, _) = loss.forward_backward(&probs, &labels);
        assert!(v < 0.01, "loss {v}");
    }

    #[test]
    fn worst_prediction_gives_high_ftl() {
        let shape = Shape4::new(1, 2, 4, 4);
        let labels = vec![0u8; 16];
        let wrong = one_hot(&[1u8; 16], shape);
        let loss = FocalTverskyLoss::paper_defaults(vec![1.0; 2]);
        let (v, _) = loss.forward_backward(&wrong, &labels);
        assert!(v > 0.5, "loss {v}");
    }

    #[test]
    fn ftl_gradient_matches_numerical() {
        let shape = Shape4::new(1, 3, 3, 3);
        let (probs, labels) = random_case(1, shape);
        let loss = FocalTverskyLoss::paper_defaults(vec![1.0, 2.0, 0.5]);
        let (_, grad) = loss.forward_backward(&probs, &labels);
        let eps = 1e-3;
        for &i in &[0usize, 5, 13, 22, 26] {
            let mut pp = probs.clone();
            pp.data_mut()[i] += eps;
            let mut pm = probs.clone();
            pm.data_mut()[i] -= eps;
            let num = (loss.value(&pp, &labels) - loss.value(&pm, &labels)) / (2.0 * eps);
            let ana = grad.data()[i];
            assert!((num - ana).abs() < 1e-3, "i={i}: {num} vs {ana}");
        }
    }

    #[test]
    fn gamma_focuses_on_hard_examples() {
        // Lower S (harder case) must yield disproportionally higher loss as
        // gamma grows: check loss ratio ordering.
        let shape = Shape4::new(1, 2, 4, 4);
        let labels = vec![0u8; 16];
        let mut probs_easy = one_hot(&labels, shape);
        // Slightly imperfect.
        for v in probs_easy.data_mut().iter_mut() {
            *v = if *v == 1.0 { 0.9 } else { 0.1 };
        }
        let mut probs_hard = one_hot(&labels, shape);
        for v in probs_hard.data_mut().iter_mut() {
            *v = if *v == 1.0 { 0.6 } else { 0.4 };
        }
        let mk = |gamma: f32| FocalTverskyLoss {
            gamma,
            ..FocalTverskyLoss::paper_defaults(vec![1.0; 2])
        };
        let r1 = mk(1.0).value(&probs_hard, &labels) / mk(1.0).value(&probs_easy, &labels);
        let r2 =
            mk(4.0 / 3.0).value(&probs_hard, &labels) / mk(4.0 / 3.0).value(&probs_easy, &labels);
        assert!(r2 > r1, "γ focusing: {r2} !> {r1}");
    }

    #[test]
    fn inverse_frequency_weights_order_and_normalisation() {
        // Table I frequencies: liver, bladder, lungs, kidneys, bones.
        let freqs = [22.18, 2.51, 34.17, 4.70, 36.26];
        let w = FocalTverskyLoss::inverse_frequency_weights(&freqs);
        // Bladder (least frequent) gets the largest weight; bones the smallest.
        let max_i = w.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        let min_i = w.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(max_i, 1);
        assert_eq!(min_i, 4);
        let sum: f32 = w.iter().sum();
        assert!((sum - 5.0).abs() < 1e-3);
    }

    #[test]
    fn cross_entropy_gradient_matches_numerical() {
        let shape = Shape4::new(1, 3, 2, 2);
        let (probs, labels) = random_case(3, shape);
        let (_, grad) = cross_entropy_loss(&probs, &labels);
        let eps = 1e-4;
        for i in 0..shape.len() {
            let mut pp = probs.clone();
            pp.data_mut()[i] += eps;
            let mut pm = probs.clone();
            pm.data_mut()[i] -= eps;
            let num = (cross_entropy_loss(&pp, &labels).0 - cross_entropy_loss(&pm, &labels).0)
                / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-2, "i={i}");
        }
    }

    #[test]
    fn weighting_shifts_gradient_mass_to_rare_class() {
        // Class 1 is rare; with inverse-frequency weights its gradient share
        // must exceed its share under uniform weights.
        let shape = Shape4::new(1, 2, 4, 4);
        let mut labels = vec![0u8; 16];
        labels[3] = 1;
        let (probs, _) = random_case(4, shape);
        let uni = FocalTverskyLoss::paper_defaults(vec![1.0, 1.0]);
        let wts = FocalTverskyLoss::paper_defaults(vec![0.2, 1.8]);
        let share = |l: &FocalTverskyLoss| {
            let (_, g) = l.forward_backward(&probs, &labels);
            let s = shape;
            let c1: f32 = (0..s.hw()).map(|p| g.data()[s.idx(0, 1, 0, 0) + p].abs()).sum();
            let all: f32 = g.data().iter().map(|v| v.abs()).sum();
            c1 / all
        };
        assert!(share(&wts) > share(&uni));
    }
}
