//! Quantization-aware training hooks (§III-D's third option).
//!
//! The Vitis AI QAT path "rewrites the floating graph and converts it to a
//! quantized model before network training". We reproduce the essential
//! mechanism — weights are projected onto the INT8 grid during training so
//! the optimizer learns around the quantisation error (straight-through
//! estimator semantics: forward on the projected weights, gradients applied
//! to the latent FP32 weights, projection re-applied after each step).
//!
//! As the paper found, QAT buys nothing over PTQ here while costing full
//! training time; `reproduce ablation-quant` quantifies that.

use seneca_nn::backprop::Grads;
use seneca_nn::graph::Graph;
use seneca_nn::loss::FocalTverskyLoss;
use seneca_nn::optim::Optimizer;
use seneca_nn::train::{train, EpochStats, Sample, TrainConfig};
use seneca_tensor::quantized::{choose_fix_pos_bits, Bitwidth, QTensor};

/// Projects every conv / tconv weight of the graph onto the integer grid of
/// the given bitwidth (quantize–dequantize with per-tensor fix positions).
/// Biases and BN parameters stay FP32, matching DPU deployment where biases
/// live in INT32. With [`Bitwidth::W4`] this is the QAT hook for
/// mixed-precision deployments: train against the 4-bit grid the deployed
/// W4 weights will hold.
pub fn project_weights(graph: &mut Graph, bits: Bitwidth) {
    for w in graph.weights_mut() {
        let fp = choose_fix_pos_bits(w.abs_max(), bits);
        *w = QTensor::quantize_bits(w, fp, bits).dequantize();
    }
}

/// An optimizer whose every step ends by projecting the weights back onto
/// the INT8 grid.
struct ProjectedInt8<'a>(&'a mut dyn Optimizer);

impl Optimizer for ProjectedInt8<'_> {
    fn step(&mut self, graph: &mut Graph, grads: &Grads) {
        self.0.step(graph, grads);
        project_weights(graph, Bitwidth::W8);
    }

    fn lr(&self) -> f32 {
        self.0.lr()
    }

    fn set_lr(&mut self, lr: f32) {
        self.0.set_lr(lr);
    }
}

/// Quantization-aware training: [`train`] on weights projected onto the INT8
/// grid before the first step and after every optimizer step, so every
/// forward runs on projected weights and the graph ends on the grid, ready
/// for export.
pub fn train_qat(
    graph: &mut Graph,
    samples: &[Sample],
    loss: &FocalTverskyLoss,
    opt: &mut dyn Optimizer,
    cfg: &TrainConfig,
) -> Vec<EpochStats> {
    project_weights(graph, Bitwidth::W8);
    train(graph, samples, loss, &mut ProjectedInt8(opt), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seneca_nn::optim::Adam;
    use seneca_nn::train::toy_quadrant_dataset;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_tensor::Tensor;

    fn tiny_graph(seed: u64, depth: usize) -> (Graph, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = UNetConfig { depth, base_filters: 4, num_classes: 4, dropout: 0.0 };
        (Graph::from_unet(&UNet::new(cfg, &mut rng), "t"), rng)
    }

    fn first_conv(g: &Graph) -> Tensor {
        g.clone().weights_mut().next().unwrap().clone()
    }

    /// Every weight sits on the grid of `bits` and inside its integer range;
    /// a second projection changes nothing.
    fn assert_on_grid(bits: Bitwidth) {
        let (mut g, _) = tiny_graph(7, 1);
        project_weights(&mut g, bits);
        let w = first_conv(&g);
        let scale = (choose_fix_pos_bits(w.abs_max(), bits) as f32).exp2();
        let (lo, hi) = match bits {
            Bitwidth::W8 => (-128.0, 127.0),
            Bitwidth::W4 => (-8.0, 7.0),
        };
        for &v in w.data() {
            let q = v * scale;
            assert!((q - q.round()).abs() < 1e-3, "weight {v} off grid");
            assert!((lo..=hi).contains(&q.round()), "weight {v} outside the {bits:?} range");
        }
        project_weights(&mut g, bits);
        assert_eq!(first_conv(&g), w);
    }

    #[test]
    fn w8_projection_lands_on_the_int8_grid_and_is_idempotent() {
        assert_on_grid(Bitwidth::W8);
    }

    #[test]
    fn w4_projection_lands_on_nibble_grid_and_is_idempotent() {
        assert_on_grid(Bitwidth::W4);
    }

    #[test]
    fn qat_training_reduces_loss_and_ends_on_the_grid() {
        let (mut g, mut rng) = tiny_graph(3, 2);
        let samples = toy_quadrant_dataset(6, 16, 4, &mut rng);
        let loss = FocalTverskyLoss::paper_defaults(vec![1.0; 4]);
        let mut opt = Adam::new(2e-3);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 3,
            seed: 5,
            lr_decay: 0.95,
            ..Default::default()
        };
        let history = train_qat(&mut g, &samples, &loss, &mut opt, &cfg);
        let first = history.first().unwrap().mean_loss;
        let last = history.last().unwrap().mean_loss;
        assert!(last < first, "QAT loss {first} -> {last}");
        let w = first_conv(&g);
        project_weights(&mut g, Bitwidth::W8);
        assert_eq!(first_conv(&g), w);
    }
}
