//! Model-selection sweep: the paper's §IV-B/§IV-C methodology.
//!
//! "We first select for each model the best configuration in terms of energy
//! efficiency and then we further consider the accuracy" — this example runs
//! that exact selection over the five Table II configurations and prints the
//! DSC·EE score of Eq. (7), ending with the winner (the 1M model, which the
//! paper names SENECA).
//!
//! ```sh
//! cargo run --release --example model_selection
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use seneca::eval::evaluate_backend;
use seneca::{SenecaConfig, Workflow};
use seneca_dpu::arch::DpuArch;
use seneca_dpu::runtime::{DpuRunner, RuntimeConfig};
use seneca_nn::{ModelSize, UNet};
use seneca_tensor::Shape4;
use std::sync::Arc;

fn main() {
    let wf = Workflow::new(SenecaConfig::fast());
    let data = wf.prepare_data();

    println!("sweeping the five Table II configurations ...\n");
    println!(
        "{:>5} {:>9} | {:>9} {:>7} {:>7} | {:>9} {:>9}",
        "model", "params", "best-thr", "FPS", "EE", "DSC [%]", "DSC x EE"
    );

    let mut best: Option<(ModelSize, f64)> = None;
    for size in ModelSize::ALL {
        let dep = wf.deploy(size, &data);

        // Step 1 (§IV-B): pick the best thread count by energy efficiency,
        // at the paper's 256x256 DPU geometry.
        let xm256 = Arc::new(seneca_dpu::compile(
            &dep.qgraph,
            Shape4::new(1, 1, 256, 256),
            DpuArch::b4096_zcu104(),
        ));
        let (mut best_thr, mut best_ee, mut best_fps) = (1usize, 0.0f64, 0.0f64);
        for threads in [1usize, 2, 4, 8] {
            let r = DpuRunner::new(Arc::clone(&xm256), RuntimeConfig { threads })
                .throughput(wf.config.throughput_frames, 7);
            if r.energy_efficiency() > best_ee {
                best_ee = r.energy_efficiency();
                best_thr = threads;
                best_fps = r.fps;
            }
        }

        // Step 2 (§IV-C): fold in the INT8 accuracy.
        let acc = evaluate_backend(&dep.dpu_runner, &data);
        let dsc = acc.global().mean;
        let score = dsc / 100.0 * best_ee;
        println!(
            "{:>5} {:>8.3}M | {:>9} {:>7.1} {:>7.2} | {:>9.2} {:>9.2}",
            size.label(),
            UNet::from_size(size, &mut StdRng::seed_from_u64(0)).param_count() as f64 / 1e6,
            format!("{best_thr}-thr"),
            best_fps,
            best_ee,
            dsc,
            score
        );
        if best.is_none_or(|(_, s)| score > s) {
            best = Some((size, score));
        }
    }

    let (winner, score) = best.expect("five models evaluated");
    println!(
        "\nselected model: {winner} (DSC x EE = {score:.2}) — \
         \"from now on, this model will be referred to as SENECA\" (§IV-C)."
    );
    assert_eq!(winner, ModelSize::M1, "the sweep should reproduce the paper's choice");
}
