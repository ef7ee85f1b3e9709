//! Surgery-room streaming scenario.
//!
//! The paper motivates SENECA with "a surgery scenario where we want to
//! perform the semantic segmentation of images acquired in real-time on the
//! surgery table" under a tight power envelope. This example simulates a
//! live intra-operative CT stream: slices arrive at a fixed acquisition
//! rate, the VART-style runtime segments them with 4 threads on the
//! simulated ZCU104, and we check that the accelerator sustains the stream
//! within the power budget — then show the same stream falling behind on
//! fewer threads.
//!
//! ```sh
//! cargo run --release --example surgery_stream
//! ```

use seneca::backend::Backend;
use seneca::{SenecaConfig, Workflow};
use seneca_nn::ModelSize;

/// A surgical C-arm style acquisition: 25 slices per sweep, 10 sweeps.
const SLICES_PER_SWEEP: usize = 25;
const SWEEPS: usize = 10;
/// Acquisition rate the accelerator must keep up with (frames/s).
const ACQUISITION_FPS: f64 = 200.0;
/// Power available to the segmentation box on the surgical cart (W).
const POWER_BUDGET_W: f64 = 35.0;

fn main() {
    let wf = Workflow::new(SenecaConfig::fast());
    println!("training + deploying SENECA (1M) ...");
    let data = wf.prepare_data();
    let dep = wf.deploy(ModelSize::M1, &data);

    let n_frames = SLICES_PER_SWEEP * SWEEPS;
    println!("\nstreaming {n_frames} intra-operative slices at {ACQUISITION_FPS} FPS:\n");
    println!(
        "{:>8} {:>10} {:>8} {:>8} {:>12} {:>10}",
        "threads", "seg FPS", "watt", "EE", "keeps up?", "in budget?"
    );
    for threads in [1usize, 2, 4] {
        let mut runner = dep.dpu_runner.clone();
        runner.config.threads = threads;
        let rep = runner.throughput(n_frames, 42);
        let keeps_up = rep.fps >= ACQUISITION_FPS;
        let in_budget = rep.watt <= POWER_BUDGET_W;
        println!(
            "{:>8} {:>10.1} {:>8.2} {:>8.2} {:>12} {:>10}",
            threads,
            rep.fps,
            rep.watt,
            rep.energy_efficiency(),
            if keeps_up { "yes" } else { "NO" },
            if in_budget { "yes" } else { "NO" },
        );
    }

    // Functional spot check: segment one sweep for real and report organ
    // coverage, as the surgeon's overlay would.
    let sweep: Vec<_> = data
        .test_by_patient
        .iter()
        .flat_map(|p| p.images.iter())
        .take(SLICES_PER_SWEEP)
        .cloned()
        .collect();
    println!("\nsegmenting one sweep functionally ({} slices) ...", sweep.len());
    let t0 = std::time::Instant::now();
    let outputs = dep.dpu_runner.infer_batch(&sweep);
    let wall = t0.elapsed();
    let mut organ_pixels = [0u64; 6];
    for pred in &outputs {
        for &l in &pred.labels {
            organ_pixels[(l as usize).min(5)] += 1;
        }
    }
    println!(
        "  host wall-clock {:.2?}; organ pixels: liver {}, bladder {}, lungs {}, kidneys {}, bones {}",
        wall, organ_pixels[1], organ_pixels[2], organ_pixels[3], organ_pixels[4], organ_pixels[5]
    );
    println!("\nnote: with <4 threads the stream falls behind — the paper's Fig. 3 in action.");
}
