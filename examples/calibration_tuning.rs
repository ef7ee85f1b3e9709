//! Calibration-set tuning: the §III-D / Table III experiment.
//!
//! Post-training quantisation adapts to whatever the calibration set shows
//! it. Random sampling mirrors the dataset's organ imbalance, so rare organs
//! (bladder) barely influence the fix positions; the paper manually levels
//! organ frequencies instead, and warns that *over*-leveling hurts globally.
//! This example quantises the same trained model with three calibration
//! strategies and compares per-organ accuracy.
//!
//! ```sh
//! cargo run --release --example calibration_tuning
//! ```

use seneca::backend::QuantRefBackend;
use seneca::eval::evaluate_backend;
use seneca::workflow::slice_to_sample;
use seneca::{SenecaConfig, Workflow};
use seneca_data::calibration::{manual_calibration, random_calibration, PAPER_MANUAL_TARGET};
use seneca_data::dataset::SplitKind;
use seneca_data::preprocess::preprocess;
use seneca_data::volume::Organ;
use seneca_nn::graph::Graph;
use seneca_nn::ModelSize;
use seneca_quant::{fuse, quantize_post_training, PtqConfig};

fn main() {
    let wf = Workflow::new(SenecaConfig::fast());
    let data = wf.prepare_data();
    println!("training the 1M model once ...");
    let net = wf.train_model(ModelSize::M1, &data);
    let fg = fuse(&Graph::from_unet(&net, "1M"));

    // Build the slice pool the samplers draw from.
    let ds = wf.cohort();
    let factor = wf.config.downsample_factor();
    let pool: Vec<_> = ds
        .slices(SplitKind::Train, wf.config.train_stride)
        .iter()
        .map(|s| preprocess(s, factor))
        .collect();
    let n = wf.config.calibration_images;
    let input = seneca_tensor::Shape4::new(1, 1, wf.config.input_size, wf.config.input_size);

    // Three strategies: random, the paper's manual leveling, and an
    // over-leveled uniform target (the failure mode §III-D warns about).
    let uniform = [20.0f64; 5];
    let strategies: Vec<(&str, seneca_data::calibration::CalibrationSet)> = vec![
        ("random", random_calibration(&pool, n, 1)),
        ("manual (Table III)", manual_calibration(&pool, n, PAPER_MANUAL_TARGET, 1)),
        ("over-leveled (uniform)", manual_calibration(&pool, n, uniform, 1)),
    ];

    println!(
        "\n{:<24} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>8}",
        "calibration", "liver", "bladder", "lungs", "kidneys", "bones", "global"
    );
    for (name, cal) in strategies {
        let images: Vec<_> = cal.slices.iter().map(|s| slice_to_sample(s).image).collect();
        let (qg, _) = quantize_post_training(&fg, &images, &PtqConfig::default());
        let acc = evaluate_backend(&QuantRefBackend::new(qg, input), &data);
        let organ = |o: Organ| {
            let m = acc.organ(o);
            if m.n == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", m.mean)
            }
        };
        println!(
            "{:<24} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>8.2}",
            name,
            organ(Organ::Liver),
            organ(Organ::Bladder),
            organ(Organ::Lungs),
            organ(Organ::Kidneys),
            organ(Organ::Bones),
            acc.global().mean,
        );
        println!(
            "{:<24} calibration frequencies: {}",
            "",
            Organ::TARGETS
                .iter()
                .map(|o| format!("{} {:.1}%", o.name(), cal.frequencies.of(*o)))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!(
        "\nper §III-D: manual leveling helps the small organs; pushing all the way to a \
         uniform distribution distorts the activation ranges the big organs rely on."
    );
}
