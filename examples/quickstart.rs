//! Quickstart: the whole SENECA workflow in ~40 lines.
//!
//! Generates a small synthetic CT cohort, trains the 1M U-Net with the
//! weighted Focal Tversky loss, quantises it to INT8 with a
//! frequency-leveled calibration set, compiles it for the simulated
//! dual-core DPUCZDX8G-B4096 and reports throughput, energy efficiency and
//! segmentation quality against the FP32 "GPU" baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use seneca::eval::{evaluate_accuracy, evaluate_backend};
use seneca::{SenecaConfig, Workflow};
use seneca_nn::ModelSize;

fn main() {
    // 1. Configure. `fast()` keeps this example in the seconds range;
    //    swap for `SenecaConfig::reduced()` or `::paper()` for real runs.
    let wf = Workflow::new(SenecaConfig::fast());

    // 2. Stage A: synthetic CT-ORG cohort, preprocessing, calibration set.
    println!("preparing data ...");
    let data = wf.prepare_data();
    println!(
        "  {} training slices | organ frequencies: {}",
        data.train.len(),
        data.frequencies.table_row()
    );

    // 3. Stages B-E: train, quantise, compile, deploy.
    println!("training + quantising + compiling the 1M model ...");
    let dep = wf.deploy(ModelSize::M1, &data);
    println!(
        "  xmodel: {} instructions, {:.2} MiB weights, input scale {}",
        dep.dpu_runner.xmodel.stats.n_instrs,
        dep.dpu_runner.xmodel.stats.weight_bytes as f64 / (1024.0 * 1024.0),
        dep.dpu_runner.xmodel.input_scale(),
    );

    // 4. Throughput + energy on both targets.
    let fpga = dep.dpu_runner.run_throughput(wf.config.throughput_frames, 0);
    let gpu = dep.gpu_runner.run_throughput(wf.config.throughput_frames, 0);
    println!(
        "FPGA (sim): {:8.1} FPS at {:5.2} W -> EE {:5.2}",
        fpga.fps,
        fpga.watt,
        fpga.energy_efficiency()
    );
    println!(
        "GPU  (sim): {:8.1} FPS at {:5.2} W -> EE {:5.2}",
        gpu.fps,
        gpu.watt,
        gpu.energy_efficiency()
    );
    println!(
        "speedup: {:.2}x, EE gain: {:.2}x",
        fpga.fps / gpu.fps,
        fpga.energy_efficiency() / gpu.energy_efficiency()
    );

    // 5. Accuracy: INT8 vs FP32 global Dice on the held-out patients.
    let int8 = evaluate_backend(&dep.dpu_runner, &data);
    let fp32 = evaluate_accuracy(&|img| dep.gpu_runner.predict(img), &data);
    println!("global DSC: INT8 {} | FP32 {}", int8.global().display(2), fp32.global().display(2));
}
