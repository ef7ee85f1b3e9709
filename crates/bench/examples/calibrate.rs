//! Internal calibration probe: FPS/W per model size at 256x256, 4 threads.
use rand::SeedableRng;
use seneca_dpu::arch::DpuArch;
use seneca_dpu::perf::frame_cost;
use seneca_dpu::runtime::{DpuRunner, RuntimeConfig};
use seneca_gpu::{GpuModel, GpuRunner};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_quant::{fuse, quantize_post_training, PtqConfig};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let input = Shape4::new(1, 1, 256, 256);
    let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)];
    println!(
        "{:>4} {:>9} {:>7} {:>7} {:>7} | {:>8} {:>7} | compute/mem/ovh ms",
        "cfg", "fps_int8", "watt", "ee", "util", "fps_fp32", "ee_fp32"
    );
    for size in ModelSize::ALL {
        let net = UNet::from_size(size, &mut rng);
        let g = Graph::from_unet(&net, size.label());
        let fg = fuse(&g);
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        let xm = seneca_dpu::compile(&qg, input, DpuArch::b4096_zcu104());
        let cost = frame_cost(&xm, &xm.arch);
        let runner = DpuRunner::new(Arc::new(xm), RuntimeConfig { threads: 4 });
        let rep = runner.throughput(2000, 1);
        let gpu = GpuRunner::new(g, GpuModel::rtx2060_mobile(), input);
        let grep = gpu.throughput(500, 1);
        println!(
            "{:>4} {:>9.1} {:>7.2} {:>7.2} {:>7.2} | {:>8.2} {:>7.2} | {:.2}/{:.2}/{:.2}",
            size.label(),
            rep.fps,
            rep.watt,
            rep.energy_efficiency(),
            rep.util,
            grep.fps,
            grep.energy_efficiency(),
            cost.compute_ns as f64 * 1e-6,
            cost.mem_ns as f64 * 1e-6,
            cost.overhead_ns as f64 * 1e-6,
        );
    }
    println!("paper int8: 1M 335.4/28.4/11.81  2M 254.9/24.8/10.27  4M 273.2/28.5/9.57  8M 127.9/28.0/4.57  16M 98.1/31.0/3.17");
    println!("paper fp32: 1M 72.2/0.93  2M 77.5/1.00  4M 65.9/0.85  8M 52.2/0.67  16M 37.2/0.48");
}
