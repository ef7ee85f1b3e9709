//! Fig. 5: qualitative rows — CT slice | ground truth | INT8 SENECA |
//! FP32 SENECA, written as PPM images with the paper's organ colours.

use crate::ctx::ExperimentCtx;
use crate::fmt::emit;
use seneca::backend::Backend;
use seneca::render::{hstack, render_ct, render_overlay, write_ppm};
use seneca_nn::unet::ModelSize;

/// Renders up to four sample rows picked to show different organ mixes.
pub fn run(ctx: &mut ExperimentCtx) {
    let dep = ctx.deployment(ModelSize::M1);
    let out_dir = ctx.out_dir();
    let mut written = Vec::new();

    // Pick slices with the most distinct organs from different patients.
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new(); // (patient idx, slice idx, organ count)
    for (pi, patient) in ctx.data.test_by_patient.iter().enumerate() {
        for (si, labels) in patient.labels.iter().enumerate() {
            let mut organs = [false; 6];
            for &l in labels {
                if l > 0 {
                    organs[(l as usize).min(5)] = true;
                }
            }
            let count = organs.iter().filter(|b| **b).count();
            if count >= 2 {
                candidates.push((pi, si, count));
            }
        }
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.2));
    candidates.truncate(4);

    for (row, (pi, si, organs)) in candidates.iter().enumerate() {
        let patient = &ctx.data.test_by_patient[*pi];
        let (image, labels) = (&patient.images[*si], &patient.labels[*si]);
        let int8 = Backend::predict(&dep.dpu_runner, image);
        let fp32 = dep.gpu_runner.predict(image);
        let panels = vec![
            render_ct(image),
            render_overlay(image, labels),
            render_overlay(image, &int8),
            render_overlay(image, &fp32),
        ];
        let (w, h, rgb) = hstack(&panels);
        let path = out_dir.join(format!("fig5-row{row}.ppm"));
        match write_ppm(&path, w, h, &rgb) {
            Ok(()) => written.push(format!(
                "- `{}` (patient {}, slice {}, {} organs): CT | GT | INT8 | FP32",
                path.display(),
                ctx.data.test_by_patient[*pi].id,
                si,
                organs
            )),
            Err(e) => eprintln!("[fig5] write failed: {e}"),
        }
    }

    let body = format!(
        "Colour code (paper): liver red, bladder green, lungs blue, kidneys yellow, bones white.\n\n{}\n",
        written.join("\n")
    );
    emit(&out_dir, "fig5-qualitative", &body);
}
