//! Mini-batch training loop (stage C of the SENECA workflow).
//!
//! Every loop — [`train`], QAT (`seneca_quant::qat::train_qat`) and the
//! workflow's cross-entropy warm-up — runs batches through one [`step`]:
//! training forward over the graph, loss, reverse walk, optimizer update.

use crate::augment::Augmenter;
use crate::graph::Graph;
use crate::loss::FocalTverskyLoss;
use crate::optim::Optimizer;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use seneca_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// One training sample: a `1xCxHxW` image and its flat `H*W` label map.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Input slice.
    pub image: Tensor,
    /// Per-pixel class labels.
    pub labels: Vec<u8>,
}

/// Stacks samples into one `NxCxHxW` batch and its flat label map.
pub fn stack_samples<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> (Tensor, Vec<u8>) {
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for s in samples {
        images.push(s.image.clone());
        labels.extend_from_slice(&s.labels);
    }
    (Tensor::stack_batch(&images), labels)
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RNG seed (shuffling, dropout).
    pub seed: u64,
    /// Multiplicative LR decay applied after each epoch.
    pub lr_decay: f32,
    /// Print progress lines to stderr.
    pub verbose: bool,
    /// On-the-fly per-sample augmentation with the [`crate::augment`]
    /// policy (flips, shifts, elastic, intensity jitter). `false` trains on
    /// raw samples and keeps the RNG stream — and therefore cached trained
    /// models — byte-stable.
    pub augment: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch_size: 4,
            seed: 0xC7_0E6,
            lr_decay: 0.9,
            verbose: false,
            augment: false,
        }
    }
}

/// Per-epoch record in the training history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub mean_loss: f64,
    /// Learning rate used during the epoch.
    pub lr: f32,
}

/// One optimisation step on one batch: training forward (dropout masks
/// drawn from `rng`), `loss(probs, labels) -> (value, dL/dprobs)`, the
/// reverse walk, `opt.step`. Returns the loss value.
pub fn step<R: Rng>(
    graph: &mut Graph,
    batch: &Tensor,
    labels: &[u8],
    loss: impl Fn(&Tensor, &[u8]) -> (f32, Tensor),
    opt: &mut dyn Optimizer,
    rng: &mut R,
) -> f32 {
    let tape = graph.forward_train(batch, rng);
    let (value, dprobs) = loss(tape.output(), labels);
    let grads = graph.backward(&tape, &dprobs);
    opt.step(graph, &grads);
    value
}

/// Trains `graph` in place; returns the loss history.
pub fn train(
    graph: &mut Graph,
    samples: &[Sample],
    loss: &FocalTverskyLoss,
    opt: &mut dyn Optimizer,
    cfg: &TrainConfig,
) -> Vec<EpochStats> {
    assert!(!samples.is_empty(), "empty training set");
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut history = Vec::with_capacity(cfg.epochs);
    let mut augmenter = cfg.augment.then(Augmenter::new);
    let ftl = |probs: &Tensor, labels: &[u8]| loss.forward_backward(probs, labels);

    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let mut picked: Vec<Sample> = chunk.iter().map(|&i| samples[i].clone()).collect();
            if let Some(aug) = augmenter.as_mut() {
                for s in &mut picked {
                    aug.apply(s, &mut rng);
                }
            }
            let (batch, labels) = stack_samples(&picked);
            loss_sum += step(graph, &batch, &labels, ftl, opt, &mut rng) as f64;
            batches += 1;
        }
        let stats = EpochStats { epoch, mean_loss: loss_sum / batches.max(1) as f64, lr: opt.lr() };
        if cfg.verbose {
            eprintln!(
                "epoch {:>3}: loss {:.5} (lr {:.2e})",
                stats.epoch, stats.mean_loss, stats.lr
            );
        }
        opt.set_lr(opt.lr() * cfg.lr_decay);
        history.push(stats);
    }
    history
}

/// Builds a toy training set where class = quadrant of the image, with the
/// intensity pattern correlated to the class. Used by tests and examples to
/// exercise training without the full phantom pipeline.
pub fn toy_quadrant_dataset<R: Rng>(
    n: usize,
    size: usize,
    classes: usize,
    rng: &mut R,
) -> Vec<Sample> {
    assert!(classes >= 4, "quadrant dataset needs >= 4 classes");
    (0..n)
        .map(|_| {
            let mut img = Tensor::zeros(seneca_tensor::Shape4::new(1, 1, size, size));
            let mut labels = vec![0u8; size * size];
            for y in 0..size {
                for x in 0..size {
                    let q = (y >= size / 2) as u8 * 2 + (x >= size / 2) as u8;
                    let base = match q {
                        0 => -0.75,
                        1 => -0.25,
                        2 => 0.25,
                        _ => 0.75,
                    };
                    *img.at_mut(0, 0, y, x) = base + rng.gen_range(-0.1..0.1);
                    labels[y * size + x] = q;
                }
            }
            Sample { image: img, labels }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::unet::{UNet, UNetConfig};
    use rand::SeedableRng;

    #[test]
    fn training_learns_quadrants() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let samples = toy_quadrant_dataset(8, 16, 4, &mut rng);
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 4, dropout: 0.05 };
        let mut net = Graph::from_unet(&UNet::new(cfg, &mut rng), "t");
        let loss = FocalTverskyLoss::paper_defaults(vec![1.0; 4]);
        let mut opt = Adam::new(2e-3);
        let history = train(
            &mut net,
            &samples,
            &loss,
            &mut opt,
            &TrainConfig {
                epochs: 18,
                batch_size: 4,
                seed: 3,
                lr_decay: 0.95,
                ..Default::default()
            },
        );
        assert_eq!(history.len(), 18);
        let first = history.first().unwrap().mean_loss;
        let last = history.last().unwrap().mean_loss;
        assert!(last < first * 0.6, "loss {first} -> {last}");

        // Pixel accuracy on a fresh sample should beat chance by a wide margin.
        let test = toy_quadrant_dataset(1, 16, 4, &mut rng);
        let probs = seneca_ir::execute_f32(&net.to_ir(), &test[0].image);
        let pred = seneca_tensor::activation::argmax_channels(&probs);
        let correct =
            pred.iter().zip(&test[0].labels).filter(|(a, b)| a == b).count() as f64 / 256.0;
        assert!(correct > 0.6, "accuracy {correct}");
    }

    #[test]
    fn lr_decays_each_epoch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let samples = toy_quadrant_dataset(2, 8, 4, &mut rng);
        let cfg = UNetConfig { depth: 1, base_filters: 2, num_classes: 4, dropout: 0.0 };
        let mut net = Graph::from_unet(&UNet::new(cfg, &mut rng), "t");
        let loss = FocalTverskyLoss::paper_defaults(vec![1.0; 4]);
        let mut opt = Adam::new(1e-3);
        let history = train(
            &mut net,
            &samples,
            &loss,
            &mut opt,
            &TrainConfig { epochs: 3, batch_size: 2, seed: 1, lr_decay: 0.5, ..Default::default() },
        );
        assert!((history[0].lr - 1e-3).abs() < 1e-9);
        assert!((history[1].lr - 5e-4).abs() < 1e-9);
        assert!((history[2].lr - 2.5e-4).abs() < 1e-9);
    }

    /// Quadrant samples whose quadrants draw a random class each, coded by
    /// intensity alone: flips and shifts move labels with the pixels, and the
    /// air a shift pads in (-1) reads as class 0.
    fn toy_random_quadrants<R: Rng>(n: usize, size: usize, rng: &mut R) -> Vec<Sample> {
        const BASE: [f32; 4] = [-0.75, -0.25, 0.25, 0.75];
        (0..n)
            .map(|_| {
                let classes: [u8; 4] = std::array::from_fn(|_| rng.gen_range(0..4));
                let mut img = Tensor::zeros(seneca_tensor::Shape4::new(1, 1, size, size));
                let mut labels = vec![0u8; size * size];
                for y in 0..size {
                    for x in 0..size {
                        let c = classes[(y >= size / 2) as usize * 2 + (x >= size / 2) as usize];
                        *img.at_mut(0, 0, y, x) = BASE[c as usize] + rng.gen_range(-0.1..0.1);
                        labels[y * size + x] = c;
                    }
                }
                Sample { image: img, labels }
            })
            .collect()
    }

    #[test]
    fn augmented_training_still_learns() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let samples = toy_random_quadrants(8, 16, &mut rng);
        let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 4, dropout: 0.05 };
        let mut net = Graph::from_unet(&UNet::new(cfg, &mut rng), "t");
        let loss = FocalTverskyLoss::paper_defaults(vec![1.0; 4]);
        let mut opt = Adam::new(2e-3);
        let history = train(
            &mut net,
            &samples,
            &loss,
            &mut opt,
            &TrainConfig {
                epochs: 18,
                batch_size: 4,
                seed: 3,
                lr_decay: 0.95,
                augment: true,
                ..Default::default()
            },
        );
        let first = history.first().unwrap().mean_loss;
        let last = history.last().unwrap().mean_loss;
        assert!(last < first * 0.7, "augmented loss {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_dataset_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let cfg = UNetConfig { depth: 1, base_filters: 2, num_classes: 4, dropout: 0.0 };
        let mut net = Graph::from_unet(&UNet::new(cfg, &mut rng), "t");
        let loss = FocalTverskyLoss::paper_defaults(vec![1.0; 4]);
        let mut opt = Adam::new(1e-3);
        let _ = train(&mut net, &[], &loss, &mut opt, &TrainConfig::default());
    }
}
