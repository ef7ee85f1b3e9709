//! Training is pinned bit for bit. Each hash covers every trained weight,
//! bias, BN γ/β and running statistic, and the loss history, as the reverse
//! walk over the graph computes them with the conv and tconv backward on the
//! GEMM driver. The sums do not depend on the thread count: `scripts/ci.sh`
//! runs these tests at `RAYON_NUM_THREADS=1` too.

mod common;

use common::training_hash;
use rand::SeedableRng;
use seneca_nn::graph::Graph;
use seneca_nn::loss::FocalTverskyLoss;
use seneca_nn::optim::{Adam, Sgd};
use seneca_nn::train::{toy_quadrant_dataset, train, Sample, TrainConfig};
use seneca_nn::unet::{ModelSize, UNet, UNetConfig};

/// Eight 16x16 quadrant samples and a depth-2 U-Net graph over 4 classes.
fn setup(seed: u64, dropout: f32) -> (Vec<Sample>, Graph) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let samples = toy_quadrant_dataset(8, 16, 4, &mut rng);
    let cfg = UNetConfig { depth: 2, base_filters: 4, num_classes: 4, dropout };
    (samples, Graph::from_unet(&UNet::new(cfg, &mut rng), "golden"))
}

/// BatchNorm and dropout on, Adam, a ragged last batch (8 = 3 + 3 + 2).
#[test]
fn adam_training_with_dropout_is_bit_identical() {
    let (samples, mut g) = setup(21, 0.1);
    let loss = FocalTverskyLoss::paper_defaults(vec![1.0, 2.0, 0.5, 1.5]);
    let mut opt = Adam::new(2e-3);
    let cfg =
        TrainConfig { epochs: 4, batch_size: 3, seed: 3, lr_decay: 0.9, ..Default::default() };
    let history = train(&mut g, &samples, &loss, &mut opt, &cfg);
    assert_eq!(training_hash(&g, &history), 0x2312_acae_42ca_d1a6);
}

/// Augmentation on (its draws interleave with the dropout masks), SGD with
/// momentum and weight decay.
#[test]
fn augmented_sgd_training_is_bit_identical() {
    let (samples, mut g) = setup(22, 0.1);
    let loss = FocalTverskyLoss::paper_defaults(vec![1.0; 4]);
    let mut opt = Sgd::new(0.02);
    opt.weight_decay = 1e-4;
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 4,
        seed: 4,
        lr_decay: 0.9,
        augment: true,
        ..Default::default()
    };
    let history = train(&mut g, &samples, &loss, &mut opt, &cfg);
    assert_eq!(training_hash(&g, &history), 0x5a32_c234_d5fc_3f65);
}

/// QAT: the INT8 projection around every step.
#[test]
fn qat_training_is_bit_identical() {
    let (samples, mut g) = setup(23, 0.05);
    let loss = FocalTverskyLoss::paper_defaults(vec![1.0; 4]);
    let mut opt = Adam::new(2e-3);
    let cfg =
        TrainConfig { epochs: 3, batch_size: 3, seed: 5, lr_decay: 0.95, ..Default::default() };
    let history = seneca_quant::qat::train_qat(&mut g, &samples, &loss, &mut opt, &cfg);
    assert_eq!(training_hash(&g, &history), 0x5f0b_571e_909e_daf5);
}

/// Initialisation of the five Table II models: the hash of every weight,
/// bias and BatchNorm tensor of each seeded full-size net, and its parameter
/// count. The draw order and shapes of `UNet::new` are what every seeded
/// model downstream (the benchmark's included) starts from.
#[test]
fn table_ii_initialisation_is_bit_identical() {
    let golden = [
        (ModelSize::M1, 0x92f7_29f2_94ee_f836, 1_023_486),
        (ModelSize::M2, 0x5a40_6a50_732b_f604, 2_304_192),
        (ModelSize::M4, 0xb818_4ef4_5e64_31a6, 4_092_670),
        (ModelSize::M8, 0xaa6b_8882_8d15_2780, 7_732_027),
        (ModelSize::M16, 0x692b_d226_5f23_1134, 16_348_662),
    ];
    for (size, hash, params) in golden {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E_4ECA);
        let net = UNet::from_size(size, &mut rng);
        let got = (training_hash(&Graph::from_unet(&net, size.label()), &[]), net.param_count());
        assert_eq!(got, (hash, params), "{size}");
    }
}
