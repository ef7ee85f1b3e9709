//! The reverse walk against finite differences.
//!
//! `L = Σ probs ⊙ r` for a fixed random `r`, so `dL/dprobs = r` and every op
//! of the walk is on the path: conv, tconv, training-mode BatchNorm, ReLU,
//! max-pool, concat, dropout (the mask is fixed by re-seeding the RNG for
//! every forward) and softmax. Seeded coordinates of every parameter tensor
//! and of the input are stepped by `±EPS`, and the walk's gradient must match
//! the difference quotients.
//!
//! The loss is only piecewise smooth (ReLU, max-pool). Where no kink lies
//! within the step, the walk's gradient matches the central quotient. Where
//! one does, the two one-sided slopes disagree, and the walk's gradient is
//! the slope on the side of the kink that holds the unstepped point, so it
//! must match one of them. At most a tenth of the coordinates may be kinks.
//!
//! Graphs: depth-1 and depth-2 U-Nets from the random-config generator, a
//! shrunk U-Net with zeroed filters, and a hand-built graph that is no U-Net
//! at all.

mod common;

use common::{random_frame, random_graph};
use rand::{Rng, SeedableRng};
use seneca_ir::{ConvAttrs, ConvKernel, IrOp};
use seneca_nn::graph::Graph;
use seneca_nn::prune::shrink;
use seneca_tensor::norm::BnState;
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;

/// The step. Smaller steps meet fewer kinks; the f32 rounding of the loss,
/// divided by the step, bounds it from below.
const EPS: f32 = 1e-4;
/// Coordinates stepped per parameter tensor and of the input.
const COORDS: usize = 4;

struct Case {
    graph: Graph,
    x: Tensor,
    r: Tensor,
    seed: u64,
}

impl Case {
    /// `graph` with every dropout at rate 0.25, a batch of two `side`² frames.
    fn new(graph: Graph, side: usize, seed: u64) -> Self {
        let mut m = graph.to_ir();
        for node in &mut m.nodes {
            if let IrOp::Dropout { rate } = &mut node.op {
                *rate = 0.25;
            }
        }
        let x = random_frame(Shape4::new(2, 1, side, side), seed);
        let out = m.shapes(x.shape())[m.output];
        let graph = Graph::try_from(m).expect("still an export graph");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
        let r =
            Tensor::from_vec(out, (0..out.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
        Self { graph, x, r, seed }
    }

    fn loss(&self, graph: &Graph, x: &Tensor) -> f64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let tape = graph.clone().forward_train(x, &mut rng);
        tape.output().data().iter().zip(self.r.data()).map(|(&p, &r)| p as f64 * r as f64).sum()
    }

    /// The backward and forward slopes `(L(0) - L(-ε)) / ε`, `(L(ε) - L(0)) / ε`
    /// along one value, where `step(graph, x, d)` adds `d` to that value and
    /// `l0` is the unstepped loss.
    fn slopes(&self, l0: f64, step: impl Fn(&mut Graph, &mut Tensor, f32)) -> [f64; 2] {
        [-EPS, EPS].map(|d| {
            let (mut g, mut x) = (self.graph.clone(), self.x.clone());
            step(&mut g, &mut x, d);
            (self.loss(&g, &x) - l0) / d as f64
        })
    }

    fn check(&self) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let tape = self.graph.clone().forward_train(&self.x, &mut rng);
        let grads = self.graph.backward(&tape, &self.r);
        let l0 = self.loss(&self.graph, &self.x);
        let (mut coords, mut kinks) = (0, 0);
        let mut compare = |what: &str, grad: &[f32], j: usize, [back, fwd]: [f64; 2]| {
            let rms = (grad.iter().map(|g| (g * g) as f64).sum::<f64>() / grad.len() as f64).sqrt();
            let ana = grad[j] as f64;
            // Relative to the tensor's scale, plus the loss's rounding over the step.
            let tol = 0.04 * ana.abs().max(rms) + 1e-2;
            let central = (back + fwd) / 2.0;
            coords += 1;
            kinks += ((ana - central).abs() > tol) as usize;
            assert!(
                [central, back, fwd].iter().any(|q| (ana - q).abs() <= tol),
                "{what}[{j}]: walk {ana} vs slopes {back} | {fwd}"
            );
        };
        let mut tensors = 0;
        for (id, node_grads) in grads.params() {
            for (k, grad) in node_grads.iter().enumerate() {
                tensors += 1;
                for t in 0..COORDS {
                    let j = (id * 7 + k * 13 + t * 31) % grad.len();
                    // A zeroed filter's channel has zero batch variance: the
                    // BN after it is at a singular point no finite step resolves.
                    let op = &self.graph.module().nodes[id].op;
                    if k == 0 && matches!(op, IrOp::Conv(a) if weights(a)[j] == 0.0) {
                        continue;
                    }
                    let q = self.slopes(l0, |g, _, d| g.params_mut(id).unwrap()[k][j] += d);
                    compare(&format!("node {id} param {k}"), grad, j, q);
                }
            }
        }
        let param_nodes = self.graph.module().nodes.iter().filter(|n| has_params(&n.op)).count();
        assert_eq!(tensors, 2 * param_nodes, "every parameter tensor has a gradient");
        let dx = grads.input().data();
        for t in 0..COORDS {
            let j = (t * 37 + 5) % dx.len();
            compare("input", dx, j, self.slopes(l0, |_, x, d| x.data_mut()[j] += d));
        }
        assert!(10 * kinks <= coords, "{kinks} of {coords} coordinates on a kink");
    }
}

fn has_params(op: &IrOp) -> bool {
    matches!(op, IrOp::Conv(_) | IrOp::TConv(_) | IrOp::BatchNorm { .. })
}

fn weights(a: &ConvAttrs) -> &[f32] {
    let ConvKernel::F32 { w, .. } = &a.kernel else { panic!("an FP32 graph") };
    w.data()
}

#[test]
fn depth_1_unet() {
    Case::new(random_graph(1, 3, 11), 8, 1).check();
}

#[test]
fn depth_2_unet() {
    Case::new(random_graph(2, 2, 12), 8, 2).check();
}

#[test]
fn shrunk_unet() {
    let mut g = random_graph(2, 4, 13);
    shrink(&mut g, 0.5);
    // Half of the first conv's filters zeroed: their channels have zero batch
    // variance, the singular point the parameter loop skips.
    let w = &mut g.params_mut(1).unwrap()[0];
    let half = w.len() / 2;
    w[..half].fill(0.0);
    Case::new(g, 8, 3).check();
}

/// No U-Net: one ReLU feeds both halves of a concat and, later, a second
/// concat with an up-sampled branch; the head's BatchNorm has no ReLU.
#[test]
fn hand_built_graph() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let mut kernel = |s: Shape4, b: Vec<f32>| {
        let w = Arc::new(Tensor::he_normal(s, &mut rng));
        ConvAttrs::new(ConvKernel::F32 { w, b, bn: None })
    };
    let mut g = Graph::new("no-unet");
    let c = g.push(IrOp::Conv(kernel(Shape4::new(3, 1, 3, 3), vec![0.1; 3])), vec![0]);
    let bn = g.push(IrOp::BatchNorm { bn: BnState::new(3) }, vec![c]);
    let r = g.push(IrOp::Relu, vec![bn]);
    let twice = g.push(IrOp::Concat {}, vec![r, r]);
    let pool = g.push(IrOp::MaxPool2x2, vec![twice]);
    let drop = g.push(IrOp::Dropout { rate: 0.25 }, vec![pool]);
    let up = g.push(IrOp::TConv(kernel(Shape4::new(6, 2, 2, 2), vec![-0.1; 2])), vec![drop]);
    let cat = g.push(IrOp::Concat {}, vec![up, r]);
    let head = g.push(IrOp::Conv(kernel(Shape4::new(4, 5, 3, 3), vec![0.0; 4])), vec![cat]);
    let bn = g.push(IrOp::BatchNorm { bn: BnState::new(4) }, vec![head]);
    g.push(IrOp::Softmax, vec![bn]);
    Case::new(g, 8, 4).check();
}
