//! Reverse-mode differentiation over the model [`Graph`]: training runs on
//! the same graph that is quantized, compiled and served.
//!
//! [`Graph::forward_train`] walks the nodes in order and keeps every node's
//! output on a [`Tape`]: BatchNorm normalises with batch statistics (updating
//! the running ones), and dropout draws its masks from the caller's RNG in
//! node order. [`Graph::backward`] then walks the nodes in reverse, one
//! backward step per op, each calling the `seneca-tensor` backward kernel of
//! its forward; a node with two consumers (a U-Net skip) sums their
//! gradients. Parameter gradients come back keyed by node id ([`Grads`]),
//! which is how the optimizers address their moment slots.
//!
//! Nothing here knows the U-Net's shape: any graph of these ops trains.

use crate::graph::{export_kernel, Graph};
use rand::Rng;
use seneca_ir::IrOp;
use seneca_tensor::activation::softmax_channels_backward;
use seneca_tensor::norm::BnCache;
use seneca_tensor::pool::PoolOut;
use seneca_tensor::prelude::*;
use std::collections::BTreeMap;

/// What one node's training forward keeps for the reverse walk.
enum Saved {
    /// The output alone.
    Out(Tensor),
    /// BatchNorm: the output and the normalised input.
    Bn(Tensor, BnCache),
    /// Max-pool: the output and the winning window positions.
    Pool(PoolOut),
    /// Dropout: the output and the keep-mask (`None` at rate 0).
    Dropout(Tensor, Option<Vec<bool>>),
}

impl Saved {
    fn out(&self) -> &Tensor {
        match self {
            Saved::Out(y) | Saved::Bn(y, _) | Saved::Dropout(y, _) => y,
            Saved::Pool(p) => &p.y,
        }
    }
}

/// Every node's output from one training forward, plus what the backward
/// steps need beyond it.
pub struct Tape {
    saved: Vec<Saved>,
    output: usize,
}

impl Tape {
    /// The graph's output (a U-Net's softmax probabilities).
    pub fn output(&self) -> &Tensor {
        self.saved[self.output].out()
    }
}

/// Gradients of one reverse walk: per parameter node (keyed by node id, in
/// the order of [`Graph::params_mut`]) and w.r.t. the graph input.
pub struct Grads {
    params: BTreeMap<usize, [Vec<f32>; 2]>,
    input: Tensor,
}

impl Grads {
    /// `(node id, [dW, db] or [dγ, dβ])` for every parameter node.
    pub fn params(&self) -> impl Iterator<Item = (usize, &[Vec<f32>; 2])> {
        self.params.iter().map(|(&id, g)| (id, g))
    }

    /// The gradient w.r.t. the graph input.
    pub fn input(&self) -> &Tensor {
        &self.input
    }
}

/// Inverted dropout: kept activations are scaled by `1/(1-rate)` so that
/// inference is the identity (and the compiler can delete the node).
fn dropout<R: Rng>(x: &Tensor, rate: f32, rng: &mut R) -> (Tensor, Option<Vec<bool>>) {
    if rate <= 0.0 {
        return (x.clone(), None);
    }
    let keep = 1.0 - rate;
    let mask: Vec<bool> = (0..x.shape().len()).map(|_| rng.gen::<f32>() < keep).collect();
    (apply_mask(x.clone(), &mask, 1.0 / keep), Some(mask))
}

fn apply_mask(mut t: Tensor, mask: &[bool], inv_keep: f32) -> Tensor {
    for (v, &k) in t.data_mut().iter_mut().zip(mask) {
        *v = if k { *v * inv_keep } else { 0.0 };
    }
    t
}

impl Graph {
    /// Training forward pass over every node. Updates the BatchNorm running
    /// statistics and draws dropout masks from `rng` in node order.
    ///
    /// Panics on a max-pool input with odd height or width (a U-Net input
    /// must be divisible by `2^depth`), and on what the exporter never emits
    /// (an INT8 kernel, a carried BatchNorm, a fused ReLU, a pack slot):
    /// training runs on the unfused FP32 graph.
    pub fn forward_train<R: Rng>(&mut self, x: &Tensor, rng: &mut R) -> Tape {
        let mut saved: Vec<Saved> = Vec::with_capacity(self.module.nodes.len());
        for node in &mut self.module.nodes {
            let arg = |k: usize| saved[node.inputs[k]].out();
            let s = match &mut node.op {
                IrOp::Input => Saved::Out(x.clone()),
                IrOp::Conv(a) => {
                    let (w, b) = export_kernel(a);
                    Saved::Out(conv2d(arg(0), w, b))
                }
                IrOp::BatchNorm { bn } => {
                    let (y, cache) = batchnorm_forward(arg(0), bn);
                    Saved::Bn(y, cache)
                }
                IrOp::Relu => Saved::Out(relu(arg(0))),
                IrOp::MaxPool2x2 => {
                    let s = arg(0).shape();
                    assert!(
                        s.h.is_multiple_of(2) && s.w.is_multiple_of(2),
                        "max-pool input {s} not divisible by 2"
                    );
                    Saved::Pool(maxpool2x2(arg(0)))
                }
                IrOp::TConv(a) => {
                    let (w, b) = export_kernel(a);
                    Saved::Out(tconv2x2(arg(0), w, b))
                }
                IrOp::Concat {} => Saved::Out(Tensor::concat_channels(arg(0), arg(1))),
                IrOp::Dropout { rate } => {
                    let (y, mask) = dropout(arg(0), *rate, rng);
                    Saved::Dropout(y, mask)
                }
                IrOp::Softmax => Saved::Out(softmax_channels(arg(0))),
            };
            saved.push(s);
        }
        Tape { saved, output: self.module.output }
    }

    /// The reverse walk: from `dy` (the loss gradient w.r.t. the graph
    /// output) back to every parameter and the input. `tape` must come from
    /// [`Graph::forward_train`] on this graph.
    pub fn backward(&self, tape: &Tape, dy: &Tensor) -> Grads {
        let mut douts: Vec<Option<Tensor>> = vec![None; self.module.nodes.len()];
        douts[self.module.output] = Some(dy.clone());
        let mut params = BTreeMap::new();
        for (id, node) in self.module.nodes.iter().enumerate().rev() {
            let Some(g) = douts[id].take() else { continue };
            let arg = |k: usize| tape.saved[node.inputs[k]].out();
            let dxs = match (&node.op, &tape.saved[id]) {
                (IrOp::Input, _) => return Grads { params, input: g },
                (IrOp::Conv(a), _) => {
                    let gr = conv2d_backward(arg(0), export_kernel(a).0, &g);
                    params.insert(id, [gr.dw.into_vec(), gr.db]);
                    vec![gr.dx]
                }
                (IrOp::BatchNorm { bn }, Saved::Bn(_, cache)) => {
                    let gr = batchnorm_backward(bn, cache, &g);
                    params.insert(id, [gr.dgamma, gr.dbeta]);
                    vec![gr.dx]
                }
                (IrOp::Relu, _) => vec![relu_backward(arg(0), &g)],
                (IrOp::MaxPool2x2, Saved::Pool(pool)) => {
                    vec![maxpool2x2_backward(arg(0).shape(), pool, &g)]
                }
                (IrOp::TConv(a), _) => {
                    let gr = tconv2x2_backward(arg(0), export_kernel(a).0, &g);
                    params.insert(id, [gr.dw.into_vec(), gr.db]);
                    vec![gr.dx]
                }
                (IrOp::Concat { .. }, _) => {
                    let (a, b) = g.split_channels(arg(0).shape().c);
                    vec![a, b]
                }
                (IrOp::Dropout { rate }, Saved::Dropout(_, mask)) => match mask {
                    Some(mask) => vec![apply_mask(g, mask, 1.0 / (1.0 - rate))],
                    None => vec![g],
                },
                (IrOp::Softmax, Saved::Out(y)) => vec![softmax_channels_backward(y, &g)],
                _ => unreachable!("tape does not come from this graph"),
            };
            for (&i, dx) in node.inputs.iter().zip(dxs) {
                match &mut douts[i] {
                    Some(acc) => acc.axpy(1.0, &dx),
                    empty => *empty = Some(dx),
                }
            }
        }
        unreachable!("the input node is always reached")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unet::{UNet, UNetConfig};
    use rand::SeedableRng;

    fn graph(depth: usize, dropout: f32, seed: u64) -> (Graph, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = UNetConfig { depth, base_filters: 4, num_classes: 6, dropout };
        (Graph::from_unet(&UNet::new(cfg, &mut rng), "t"), rng)
    }

    #[test]
    fn output_is_a_per_pixel_distribution() {
        let (mut g, mut rng) = graph(2, 0.1, 1);
        let x = Tensor::he_normal(Shape4::new(2, 1, 16, 16), &mut rng);
        let tape = g.forward_train(&x, &mut rng);
        let probs = tape.output();
        assert_eq!(probs.shape(), Shape4::new(2, 6, 16, 16));
        for (n, h) in [(0, 0), (1, 7), (1, 15)] {
            let sum: f32 = (0..6).map(|c| probs.at(n, c, h, 3)).sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_input_not_divisible_by_two_to_the_depth() {
        let (mut g, mut rng) = graph(3, 0.0, 1);
        let _ = g.forward_train(&Tensor::zeros(Shape4::new(1, 1, 12, 12)), &mut rng);
    }

    #[test]
    fn every_parameter_gets_a_gradient() {
        let (mut g, mut rng) = graph(2, 0.1, 1);
        let x = Tensor::he_normal(Shape4::new(1, 1, 8, 8), &mut rng);
        let tape = g.forward_train(&x, &mut rng);
        let grads = g.backward(&tape, tape.output());
        let nodes = &g.module().nodes;
        let param_nodes: Vec<usize> = (0..nodes.len())
            .filter(|&i| {
                matches!(nodes[i].op, IrOp::Conv(_) | IrOp::TConv(_) | IrOp::BatchNorm { .. })
            })
            .collect();
        // encoders 2 × 2 blocks, bottleneck 2, decoders 2 × 2 blocks: 10 conv
        // + 10 BN; plus 2 tconvs and the head conv.
        assert_eq!(param_nodes.len(), 23);
        assert_eq!(grads.params().map(|(id, _)| id).collect::<Vec<_>>(), param_nodes);
        let mut nonzero = 0;
        for (id, [dw, db]) in grads.params() {
            let [w, b] = g.params_mut(id).unwrap();
            assert_eq!((dw.len(), db.len()), (w.len(), b.len()), "node {id}");
            nonzero +=
                dw.iter().any(|v| *v != 0.0) as usize + db.iter().any(|v| *v != 0.0) as usize;
        }
        // The overwhelming majority of the 46 tensors are non-zero.
        assert!(nonzero >= 44, "{nonzero}/46");
        assert_eq!(grads.input().shape(), x.shape());
    }

    #[test]
    fn dropout_keeps_the_expectation_and_backward_reuses_the_mask() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut g = Graph::new("d");
        g.push(IrOp::Dropout { rate: 0.3 }, vec![0]);
        let x = Tensor::full(Shape4::new(1, 1, 64, 64), 1.0);
        let tape = g.forward_train(&x, &mut rng);
        let y = tape.output();
        assert!((y.mean() - 1.0).abs() < 0.1, "inverted dropout mean {}", y.mean());
        let zeros = y.data().iter().filter(|v| **v == 0.0).count() as isize;
        assert!((zeros - (0.3 * 4096.0) as isize).abs() < 300, "{zeros} dropped");
        let dx = g.backward(&tape, &Tensor::full(x.shape(), 1.0));
        for (yv, dxv) in y.data().iter().zip(dx.input().data()) {
            assert_eq!(*yv == 0.0, *dxv == 0.0, "mask mismatch between forward and backward");
        }
        // Rate 0 draws nothing and passes values and gradients through.
        g.module.nodes[1].op = IrOp::Dropout { rate: 0.0 };
        let before = rng.clone().gen::<u64>();
        let tape = g.forward_train(&x, &mut rng);
        assert_eq!(rng.gen::<u64>(), before);
        assert_eq!(tape.output(), &x);
        assert_eq!(g.backward(&tape, &x).input(), &x);
    }
}
