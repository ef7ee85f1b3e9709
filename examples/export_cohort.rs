//! Exports a few synthetic patients as NIfTI volumes (CT-ORG's native
//! format) plus PPM slice previews, for inspection in standard viewers.
//!
//! ```sh
//! cargo run --release --example export_cohort -- [out_dir] [n_patients]
//! ```

use seneca::render::{hstack, render_ct, render_overlay, write_ppm};
use seneca_data::nifti::{write_nifti, NiftiChannel};
use seneca_data::preprocess::preprocess;
use seneca_data::{SyntheticCtOrg, SyntheticCtOrgConfig};
use seneca_tensor::{Shape4, Tensor};
use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let out: PathBuf = args.next().unwrap_or_else(|| "target/seneca-cohort".into()).into();
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);

    let ds = SyntheticCtOrg::new(SyntheticCtOrgConfig {
        n_patients: n,
        slice_size: 128,
        slices_per_unit_z: 48.0,
    });

    for id in 0..n {
        let vol = ds.volume(id);
        let kind = ds.scan_kind(id);
        let ct = out.join(format!("patient{id:03}-ct.nii"));
        let seg = out.join(format!("patient{id:03}-seg.nii"));
        write_nifti(&ct, &vol, NiftiChannel::Intensity).expect("write CT");
        write_nifti(&seg, &vol, NiftiChannel::Labels).expect("write labels");

        // Mid-volume preview: CT | labels, preprocessed like stage A.
        let mid = preprocess(&vol.slice(vol.depth / 2), 1);
        let img = Tensor::from_vec(Shape4::new(1, 1, mid.height, mid.width), mid.pixels.clone());
        let panels = vec![render_ct(&img), render_overlay(&img, &mid.labels)];
        let (w, h, rgb) = hstack(&panels);
        let ppm = out.join(format!("patient{id:03}-preview.ppm"));
        write_ppm(&ppm, w, h, &rgb).expect("write preview");

        println!(
            "patient {id:03} ({kind:?}, {} slices): {} / {} / {}",
            vol.depth,
            ct.display(),
            seg.display(),
            ppm.display()
        );
    }
    println!("\nopen the .nii files in 3D Slicer / ITK-SNAP, or the .ppm previews anywhere.");
}
