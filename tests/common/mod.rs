//! Helpers shared by the integration tests: the random-config U-Net
//! generator and the training hash.

// Each test binary compiles this module and uses a part of it.
#![allow(dead_code)]

use rand::{Rng, SeedableRng};
use seneca_ir::{ConvKernel, IrOp};
use seneca_nn::graph::Graph;
use seneca_nn::train::EpochStats;
use seneca_nn::unet::{UNet, UNetConfig};
use seneca_tensor::{Shape4, Tensor};

/// A seeded random U-Net over 6 classes, without dropout.
pub fn random_net(depth: usize, base_filters: usize, seed: u64) -> UNet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cfg = UNetConfig { depth, base_filters, num_classes: 6, dropout: 0.0 };
    UNet::new(cfg, &mut rng)
}

/// The export graph of a random net, its BatchNorms given random running
/// statistics and affine parameters (a fresh net's are the identity).
pub fn random_graph(depth: usize, base_filters: usize, seed: u64) -> Graph {
    randomize_bn(Graph::from_unet(&random_net(depth, base_filters, seed), "prop"), seed)
}

/// Gives every BatchNorm of `g` random running statistics and affine
/// parameters.
pub fn randomize_bn(g: Graph, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xB4);
    let mut m = g.to_ir();
    for node in &mut m.nodes {
        if let IrOp::BatchNorm { bn } = &mut node.op {
            for c in 0..bn.channels() {
                bn.gamma[c] = rng.gen_range(0.5f32..1.5);
                bn.beta[c] = rng.gen_range(-0.3f32..0.3);
                bn.running_mean[c] = rng.gen_range(-0.3f32..0.3);
                bn.running_var[c] = rng.gen_range(0.3f32..1.5);
            }
        }
    }
    Graph::try_from(m).expect("still an export graph")
}

/// A seeded He-normal frame clamped to `[-1, 1]`.
pub fn random_frame(shape: Shape4, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut img = Tensor::he_normal(shape, &mut rng);
    for v in img.data_mut() {
        *v = v.clamp(-1.0, 1.0);
    }
    img
}

/// FNV-1a over the bits of every trained value of `g` in node order (conv
/// and tconv weights and biases; BatchNorm γ, β and running statistics),
/// then over each epoch's mean loss and learning rate.
pub fn training_hash(g: &Graph, history: &[EpochStats]) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    let mut put = |v: &[f32]| bytes.extend(v.iter().flat_map(|x| x.to_bits().to_le_bytes()));
    for node in &g.module().nodes {
        match &node.op {
            IrOp::Conv(a) | IrOp::TConv(a) => {
                let ConvKernel::F32 { w, b, .. } = &a.kernel else { panic!("an FP32 graph") };
                put(w.data());
                put(b);
            }
            IrOp::BatchNorm { bn } => {
                for v in [&bn.gamma, &bn.beta, &bn.running_mean, &bn.running_var] {
                    put(v);
                }
            }
            _ => {}
        }
    }
    for e in history {
        bytes.extend(e.mean_loss.to_bits().to_le_bytes());
        bytes.extend(e.lr.to_bits().to_le_bytes());
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}
