//! Optimizers: SGD with momentum and Adam.
//!
//! An optimizer updates the graph's parameters from the [`Grads`] of one
//! reverse walk. It owns its per-parameter moment slots, keyed like the
//! gradients by node id, so the graph carries weights and nothing else.

use crate::backprop::Grads;
use crate::graph::Graph;
use std::collections::BTreeMap;

/// Common optimizer interface over a [`Graph`].
pub trait Optimizer {
    /// Applies one update step to every parameter that has a gradient.
    fn step(&mut self, graph: &mut Graph, grads: &Grads);
    /// Current learning rate.
    fn lr(&self) -> f32;
    /// Overrides the learning rate (for schedules).
    fn set_lr(&mut self, lr: f32);
}

/// Optimizer scratch of one parameter tensor, lazily sized.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// First-moment / momentum buffer.
    m: Vec<f32>,
    /// Second-moment buffer (Adam only).
    v: Vec<f32>,
    /// Step counter (Adam bias correction).
    t: u64,
}

/// The slots of every parameter node: `[W, b]` or `[γ, β]`.
type Slots = BTreeMap<usize, [Slot; 2]>;

/// Calls `update(value, grad, slot)` for every parameter tensor in `grads`.
fn for_each_param(
    slots: &mut Slots,
    graph: &mut Graph,
    grads: &Grads,
    mut update: impl FnMut(&mut [f32], &[f32], &mut Slot),
) {
    for (id, node_grads) in grads.params() {
        let values = graph.params_mut(id).expect("gradient of a parameter-free node");
        let node_slots = slots.entry(id).or_default();
        for ((value, grad), slot) in values.into_iter().zip(node_grads).zip(node_slots) {
            update(value, grad, slot);
        }
    }
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    slots: Slots,
}

impl Sgd {
    /// Plain SGD with momentum 0.9 and no weight decay.
    pub fn new(lr: f32) -> Self {
        Self { lr, momentum: 0.9, weight_decay: 0.0, slots: Slots::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, graph: &mut Graph, grads: &Grads) {
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        for_each_param(&mut self.slots, graph, grads, |value, grad, slot| {
            if slot.m.len() != value.len() {
                slot.m = vec![0.0; value.len()];
            }
            for i in 0..value.len() {
                let g = grad[i] + wd * value[i];
                slot.m[i] = mu * slot.m[i] + g;
                value[i] -= lr * slot.m[i];
            }
        });
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    slots: Slots,
}

impl Adam {
    /// Standard defaults at the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, slots: Slots::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, graph: &mut Graph, grads: &Grads) {
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        for_each_param(&mut self.slots, graph, grads, |value, grad, slot| {
            if slot.m.len() != value.len() {
                slot.m = vec![0.0; value.len()];
                slot.v = vec![0.0; value.len()];
                slot.t = 0;
            }
            slot.t += 1;
            let bc1 = 1.0 - b1.powi(slot.t as i32);
            let bc2 = 1.0 - b2.powi(slot.t as i32);
            for i in 0..value.len() {
                let g = grad[i] + wd * value[i];
                slot.m[i] = b1 * slot.m[i] + (1.0 - b1) * g;
                slot.v[i] = b2 * slot.v[i] + (1.0 - b2) * g * g;
                let mhat = slot.m[i] / bc1;
                let vhat = slot.v[i] / bc2;
                value[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::export_kernel;
    use crate::loss::cross_entropy_loss;
    use crate::train::step;
    use crate::unet::{UNet, UNetConfig};
    use rand::SeedableRng;
    use seneca_ir::IrOp;
    use seneca_tensor::{Shape4, Tensor};

    fn tiny_setup(seed: u64) -> (Graph, Tensor, Vec<u8>, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = UNetConfig { depth: 1, base_filters: 4, num_classes: 3, dropout: 0.0 };
        let g = Graph::from_unet(&UNet::new(cfg, &mut rng), "t");
        let x = Tensor::he_normal(Shape4::new(2, 1, 8, 8), &mut rng);
        // Labels correlated with input sign so the task is learnable.
        let labels: Vec<u8> =
            x.data().iter().map(|&v| if v > 0.3 { 2 } else { (v < -0.3) as u8 }).collect();
        (g, x, labels, rng)
    }

    fn train_steps(opt: &mut dyn Optimizer, steps: usize, seed: u64) -> (f32, f32) {
        let (mut g, x, labels, mut rng) = tiny_setup(seed);
        let losses: Vec<f32> = (0..steps)
            .map(|_| step(&mut g, &x, &labels, cross_entropy_loss, &mut *opt, &mut rng))
            .collect();
        (losses[0], losses[steps - 1])
    }

    /// Every trainable value of the graph, in node order.
    fn params(g: &Graph) -> Vec<f32> {
        let mut out = Vec::new();
        for node in &g.module().nodes {
            match &node.op {
                IrOp::Conv(a) | IrOp::TConv(a) => {
                    let (w, b) = export_kernel(a);
                    out.extend(w.data().iter().chain(b))
                }
                IrOp::BatchNorm { bn } => out.extend(bn.gamma.iter().chain(&bn.beta)),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn sgd_reduces_loss() {
        let (first, last) = train_steps(&mut Sgd::new(0.05), 30, 1);
        assert!(last < first * 0.9, "sgd: {first} -> {last}");
    }

    #[test]
    fn adam_reduces_loss() {
        let (first, last) = train_steps(&mut Adam::new(1e-3), 30, 2);
        assert!(last < first * 0.9, "adam: {first} -> {last}");
    }

    #[test]
    fn lr_zero_moves_no_parameter() {
        let (mut g, x, labels, mut rng) = tiny_setup(3);
        let before = params(&g);
        step(&mut g, &x, &labels, cross_entropy_loss, &mut Sgd::new(0.0), &mut rng);
        step(&mut g, &x, &labels, cross_entropy_loss, &mut Adam::new(0.0), &mut rng);
        // Bit for bit: only the BN running statistics moved.
        assert_eq!(params(&g), before);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let (mut g, x, _, mut rng) = tiny_setup(4);
        let norm = |p: Vec<f32>| p.iter().map(|v| v * v).sum::<f32>();
        let before = norm(params(&g));
        let tape = g.forward_train(&x, &mut rng);
        // Zero loss gradient: the step is pure decay.
        let grads = g.backward(&tape, &Tensor::zeros(tape.output().shape()));
        let mut opt = Sgd { momentum: 0.0, weight_decay: 0.5, ..Sgd::new(0.1) };
        opt.step(&mut g, &grads);
        let after = norm(params(&g));
        assert!(after < 0.96 * before, "{after} !< {before}");
    }
}
