//! Artifact-format integration: NIfTI export, PPM rendering, xmodel JSON —
//! the on-disk surfaces a downstream user touches.

use rand::SeedableRng;
use seneca::backend::Backend;
use seneca::render::{hstack, render_ct, render_overlay, write_ppm};
use seneca_data::nifti::{read_nifti, write_nifti, NiftiChannel};
use seneca_data::preprocess::preprocess;
use seneca_data::{SyntheticCtOrg, SyntheticCtOrgConfig};
use seneca_dpu::arch::DpuArch;
use seneca_dpu::runtime::{DpuRunner, RuntimeConfig};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{UNet, UNetConfig};
use seneca_quant::{fuse, quantize_post_training, PtqConfig};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("seneca-artifacts-{}-{name}", std::process::id()))
}

#[test]
fn nifti_export_matches_viewer_expectations() {
    let ds = SyntheticCtOrg::new(SyntheticCtOrgConfig {
        n_patients: 1,
        slice_size: 32,
        slices_per_unit_z: 10.0,
    });
    let vol = ds.volume(0);
    let ct = tmp("ct.nii");
    let seg = tmp("seg.nii");
    write_nifti(&ct, &vol, NiftiChannel::Intensity).unwrap();
    write_nifti(&seg, &vol, NiftiChannel::Labels).unwrap();
    let (info_ct, hu) = read_nifti(&ct).unwrap();
    let (info_seg, labels) = read_nifti(&seg).unwrap();
    assert_eq!((info_ct.width, info_ct.height, info_ct.depth), (32, 32, vol.depth));
    assert_eq!(info_ct.datatype, 16);
    assert_eq!(info_seg.datatype, 2);
    assert_eq!(hu.len(), labels.len());
    // CT and labels stay aligned voxel-for-voxel: lungs voxels are dark.
    let lungs = seneca_data::Organ::Lungs.label() as f32;
    let mut lung_hu = vec![];
    for (h, l) in hu.iter().zip(&labels) {
        if *l == lungs {
            lung_hu.push(*h);
        }
    }
    if !lung_hu.is_empty() {
        let mean: f32 = lung_hu.iter().sum::<f32>() / lung_hu.len() as f32;
        assert!(mean < -400.0, "lung voxels must be dark, mean {mean}");
    }
    let _ = std::fs::remove_file(&ct);
    let _ = std::fs::remove_file(&seg);
}

#[test]
fn fig5_style_render_roundtrip() {
    let ds = SyntheticCtOrg::new(SyntheticCtOrgConfig {
        n_patients: 1,
        slice_size: 32,
        slices_per_unit_z: 12.0,
    });
    let vol = ds.volume(0);
    let s = preprocess(&vol.slice(vol.depth / 2), 1);
    let img = Tensor::from_vec(Shape4::new(1, 1, s.height, s.width), s.pixels.clone());
    let panels = vec![render_ct(&img), render_overlay(&img, &s.labels)];
    let (w, h, rgb) = hstack(&panels);
    assert_eq!(h, 32);
    assert_eq!(w, 32 + 2 + 32);
    let path = tmp("row.ppm");
    write_ppm(&path, w, h, &rgb).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(format!("P6\n{w} {h}\n255\n").as_bytes()));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn xmodel_json_is_a_complete_artifact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let net =
        UNet::new(UNetConfig { depth: 1, base_filters: 4, num_classes: 6, dropout: 0.0 }, &mut rng);
    let fg = fuse(&Graph::from_unet(&net, "artifact"));
    let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng)];
    let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
    let xm = seneca_dpu::compile(&qg, Shape4::new(1, 1, 16, 16), DpuArch::b4096_zcu104());

    // Write to disk, reload, run functionally: identical outputs.
    let path = tmp("model.xmodel.json");
    std::fs::write(&path, xm.to_json()).unwrap();
    let loaded = seneca_dpu::XModel::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let run = |xm: seneca_dpu::XModel| {
        let runner = DpuRunner::new(Arc::new(xm), RuntimeConfig { threads: 1 });
        runner.infer_batch(std::slice::from_ref(&calib[0])).remove(0).into_i8()
    };
    assert_eq!(xm.input_scale(), loaded.input_scale());
    let (a, b) = (run(xm), run(loaded));
    assert_eq!(a.data(), b.data());
    let _ = std::fs::remove_file(&path);
}
