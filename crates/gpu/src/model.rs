//! Analytic GPU timing and power model.

use seneca_ir::IrOp;
use seneca_nn::graph::Graph;
use seneca_tensor::Shape4;
use serde::{Deserialize, Serialize};

/// GPU device parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuModel {
    /// Device name.
    pub name: String,
    /// Peak FP32 throughput (TFLOPS).
    pub peak_tflops: f64,
    /// Memory bandwidth (GB/s).
    pub mem_gbps: f64,
    /// Per-kernel launch + framework overhead (ns). Batch-1 inference from a
    /// Python framework pays this on every layer.
    pub launch_overhead_ns: f64,
    /// Channel width at which the SMs reach full occupancy. Below this, the
    /// effective throughput degrades linearly — small CNN layers cannot fill
    /// 30 SMs with batch-1 work.
    pub occupancy_channels: f64,
    /// Board power under inference load (W) — laptops run TDP-bound.
    pub load_power_w: f64,
    /// Idle power (W).
    pub idle_power_w: f64,
}

impl GpuModel {
    /// The paper's baseline device.
    pub fn rtx2060_mobile() -> Self {
        Self {
            name: "NVIDIA GeForce RTX 2060 Mobile".into(),
            peak_tflops: 2.6,
            mem_gbps: 264.0,
            launch_overhead_ns: 75_000.0,
            occupancy_channels: 128.0,
            load_power_w: 78.0,
            idle_power_w: 9.0,
        }
    }

    /// Occupancy factor of a conv with the given channel widths.
    pub fn occupancy(&self, c_in: usize, c_out: usize) -> f64 {
        let width = (c_in.min(c_out)).max(1) as f64;
        (width / self.occupancy_channels).min(1.0)
    }

    /// Time of one layer (ns): compute at occupancy-derated FLOPS vs memory
    /// streaming, plus the launch overhead.
    pub fn layer_time_ns(&self, flops: f64, bytes: f64, c_in: usize, c_out: usize) -> f64 {
        let eff_flops = self.peak_tflops * 1e12 * self.occupancy(c_in, c_out);
        let compute_ns = flops / eff_flops * 1e9;
        let mem_ns = bytes / self.mem_gbps; // bytes / (GB/s) = ns
        compute_ns.max(mem_ns) + self.launch_overhead_ns
    }

    /// Frame latency (ns) of an FP32 graph at the given input geometry.
    /// Dropout/softmax/BN run as (cheap) kernels too — TensorFlow executes
    /// them unfused in the baseline — so they pay launch overhead.
    pub fn frame_time_ns(&self, graph: &Graph, input: Shape4) -> f64 {
        let m = graph.module();
        let shapes = m.shapes(input);
        let mut total = 0.0;
        for (i, node) in m.nodes.iter().enumerate() {
            match &node.op {
                IrOp::Input => {}
                IrOp::Conv(a) | IrOp::TConv(a) => {
                    let t = matches!(node.op, IrOp::TConv(_));
                    let (c_in, c_out) = (a.kernel.c_in(t), a.kernel.c_out(t));
                    let weights = c_in * c_out * if t { 4 } else { 9 };
                    let (inp, out) = (shapes[node.inputs[0]], shapes[i]);
                    // A conv computes per output pixel, a tconv per input pixel.
                    let pixels = if t { inp.hw() } else { out.hw() };
                    let flops = 2.0 * pixels as f64 * weights as f64;
                    let bytes = 4.0 * (inp.len() + out.len() + weights) as f64;
                    total += self.layer_time_ns(flops, bytes, c_in, c_out);
                }
                IrOp::BatchNorm { .. }
                | IrOp::Relu
                | IrOp::MaxPool2x2
                | IrOp::Softmax
                | IrOp::Concat { .. } => {
                    // Memory-bound elementwise kernel.
                    let bytes = 4.0 * 2.0 * shapes[i].len() as f64;
                    total += (bytes / self.mem_gbps) + self.launch_overhead_ns;
                }
                IrOp::Dropout { .. } => {
                    // Identity at inference: TF prunes it from the session.
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seneca_nn::unet::{ModelSize, UNet};

    fn graph(size: ModelSize, seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Graph::from_unet(&UNet::from_size(size, &mut rng), size.label())
    }

    #[test]
    fn occupancy_saturates() {
        let g = GpuModel::rtx2060_mobile();
        assert!(g.occupancy(8, 16) < 0.15);
        assert_eq!(g.occupancy(128, 256), 1.0);
        assert!(g.occupancy(1, 6) > 0.0);
    }

    #[test]
    fn small_model_is_launch_and_occupancy_bound() {
        let g = GpuModel::rtx2060_mobile();
        let m1 = graph(ModelSize::M1, 1);
        let input = Shape4::new(1, 1, 256, 256);
        let t = g.frame_time_ns(&m1, input);
        // Pure peak-FLOPS time would be far smaller than the modelled time.
        let macs: u64 = m1.macs(input).iter().sum();
        let ideal_ns = 2.0 * macs as f64 / (g.peak_tflops * 1e12) * 1e9;
        assert!(t > 3.0 * ideal_ns, "occupancy model lost: {t} vs ideal {ideal_ns}");
    }

    #[test]
    fn table4_gpu_ordering_2m_beats_1m() {
        // The paper's GPU column: 2M (77.45 FPS) > 1M (72.20) > 4M (65.90)
        // > 8M (52.22) > 16M (37.23).
        let g = GpuModel::rtx2060_mobile();
        let input = Shape4::new(1, 1, 256, 256);
        let t: Vec<f64> =
            ModelSize::ALL.iter().map(|&s| g.frame_time_ns(&graph(s, 2), input)).collect();
        assert!(t[1] < t[0], "2M must be faster than 1M on GPU: {t:?}");
        assert!(t[0] < t[2], "1M must be faster than 4M: {t:?}");
        assert!(t[2] < t[3], "4M must be faster than 8M: {t:?}");
        assert!(t[3] < t[4], "8M must be faster than 16M: {t:?}");
    }

    #[test]
    fn load_power_is_tdp_bound() {
        let g = GpuModel::rtx2060_mobile();
        assert!((g.load_power_w - 78.0).abs() < 1.0);
    }
}
