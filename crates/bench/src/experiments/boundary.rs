//! Boundary-quality experiment (beyond the paper's tables).
//!
//! §IV-D: "the proposed network shows a more conservative behavior when
//! detecting the organs' edges since the minimization of the number of
//! FPs." We quantify edge behaviour with symmetric Hausdorff distance and
//! average symmetric surface distance (ASSD) per organ on the test split,
//! comparing INT8 against FP32.

use crate::ctx::ExperimentCtx;
use crate::fmt::{emit, Table};
use seneca::backend::Backend;
use seneca::metrics::boundary::hausdorff;
use seneca_data::volume::Organ;
use seneca_nn::unet::ModelSize;

/// Runs the boundary-metric comparison on the 1M model.
pub fn run(ctx: &mut ExperimentCtx) {
    let dep = ctx.deployment(ModelSize::M1);
    let size = ctx.wf.config.input_size;

    // Collect per-organ distances over all test slices for both precisions.
    let mut hd = [
        [Vec::new(), Vec::new()],
        [Vec::new(), Vec::new()],
        [Vec::new(), Vec::new()],
        [Vec::new(), Vec::new()],
        [Vec::new(), Vec::new()],
    ];
    let mut assd = hd.clone();
    for patient in &ctx.data.test_by_patient {
        for (image, labels) in patient.images.iter().zip(&patient.labels) {
            let int8 = Backend::predict(&dep.dpu_runner, image);
            let fp32 = dep.gpu_runner.predict(image);
            for (k, organ) in Organ::TARGETS.iter().enumerate() {
                for (which, pred) in [&int8, &fp32].into_iter().enumerate() {
                    if let Some((h, a)) = hausdorff(pred, labels, size, size, organ.label()) {
                        hd[k][which].push(h as f64);
                        assd[k][which].push(a as f64);
                    }
                }
            }
        }
    }

    let mean = |v: &Vec<f64>| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let cell = |v: &Vec<f64>| {
        if v.is_empty() {
            "-".to_string()
        } else {
            format!("{:.2}", mean(v))
        }
    };

    let mut t = Table::new(vec![
        "Organ",
        "HD int8 [px]",
        "HD fp32 [px]",
        "ASSD int8 [px]",
        "ASSD fp32 [px]",
        "slices",
    ]);
    for (k, organ) in Organ::TARGETS.iter().enumerate() {
        t.row(vec![
            organ.name().to_string(),
            cell(&hd[k][0]),
            cell(&hd[k][1]),
            cell(&assd[k][0]),
            cell(&assd[k][1]),
            hd[k][0].len().to_string(),
        ]);
    }
    let body = format!(
        "{}\nSymmetric Hausdorff distance (worst-case edge error) and average symmetric \
         surface distance, pixels at {size}x{size}. Quantisation should leave edges nearly \
         untouched (INT8 ≈ FP32), matching the paper's conservative-edges observation.\n",
        t.markdown()
    );
    emit(&ctx.out_dir(), "boundary-metrics", &body);
}
