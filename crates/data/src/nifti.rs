//! Minimal NIfTI-1 export/import for the synthetic volumes.
//!
//! CT-ORG ships as NIfTI (`.nii`) files; this module writes the synthetic
//! [`Volume`]s in the same single-file format (348-byte header + raw voxel
//! data) so they can be opened in standard medical viewers (3D Slicer,
//! ITK-SNAP, nibabel) for visual inspection. Only the subset of NIfTI-1
//! needed for that purpose is implemented: `float32` or `uint8` voxels,
//! 3-D geometry, no compression, native endianness (little-endian headers —
//! the only kind this writer produces and the reader accepts).

use crate::volume::Volume;
use std::io::{Read, Write};
use std::path::Path;

/// NIfTI-1 datatype code for `float32`.
const DT_FLOAT32: i16 = 16;
/// NIfTI-1 datatype code for `uint8`.
const DT_UINT8: i16 = 2;
/// Header size mandated by the standard.
const HDR_SIZE: i32 = 348;

/// Which channel of a [`Volume`] to export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NiftiChannel {
    /// Hounsfield units as `float32`.
    Intensity,
    /// Organ labels as `uint8`.
    Labels,
}

fn build_header(vol: &Volume, datatype: i16, bitpix: i16) -> Vec<u8> {
    let mut h = vec![0u8; HDR_SIZE as usize];
    h[0..4].copy_from_slice(&HDR_SIZE.to_le_bytes()); // sizeof_hdr
                                                      // dim[0] = 3 spatial dims; dim[1..=3] = x, y, z.
    let dims: [i16; 8] = [3, vol.width as i16, vol.height as i16, vol.depth as i16, 1, 1, 1, 1];
    for (i, d) in dims.iter().enumerate() {
        h[40 + 2 * i..42 + 2 * i].copy_from_slice(&d.to_le_bytes());
    }
    h[70..72].copy_from_slice(&datatype.to_le_bytes());
    h[72..74].copy_from_slice(&bitpix.to_le_bytes());
    // pixdim: qfac, then voxel spacing (1 mm isotropic placeholder).
    let pixdim: [f32; 8] = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
    for (i, p) in pixdim.iter().enumerate() {
        h[76 + 4 * i..80 + 4 * i].copy_from_slice(&p.to_le_bytes());
    }
    // vox_offset: data starts right after the header + 4-byte extension flag.
    h[108..112].copy_from_slice(&352.0f32.to_le_bytes());
    // scl_slope = 1 (no rescaling).
    h[112..116].copy_from_slice(&1.0f32.to_le_bytes());
    // descrip (80 bytes at offset 148).
    let desc = format!("SENECA synthetic patient {}", vol.patient_id);
    let bytes = desc.as_bytes();
    let n = bytes.len().min(79);
    h[148..148 + n].copy_from_slice(&bytes[..n]);
    // magic "n+1\0" at offset 344: single-file NIfTI.
    h[344..348].copy_from_slice(b"n+1\0");
    h
}

/// Writes one channel of a volume as a `.nii` file.
pub fn write_nifti(path: &Path, vol: &Volume, channel: NiftiChannel) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    match channel {
        NiftiChannel::Intensity => {
            f.write_all(&build_header(vol, DT_FLOAT32, 32))?;
            f.write_all(&[0u8; 4])?; // empty extension
            for v in &vol.hu {
                f.write_all(&v.to_le_bytes())?;
            }
        }
        NiftiChannel::Labels => {
            f.write_all(&build_header(vol, DT_UINT8, 8))?;
            f.write_all(&[0u8; 4])?;
            f.write_all(&vol.labels)?;
        }
    }
    Ok(())
}

/// Geometry and datatype read back from a NIfTI header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NiftiInfo {
    /// X dimension (width).
    pub width: usize,
    /// Y dimension (height).
    pub height: usize,
    /// Z dimension (slices).
    pub depth: usize,
    /// NIfTI datatype code (16 = float32, 2 = uint8).
    pub datatype: i16,
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The `N` bytes of `b` at `at`, for the `from_le_bytes` constructors.
fn le<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    std::array::from_fn(|i| b[at + i])
}

/// Reads a `.nii` file produced by [`write_nifti`] (or any little-endian
/// single-file NIfTI-1 with float32/uint8 voxels). Returns the geometry and
/// the voxel payload as `f32` (uint8 voxels are widened).
///
/// A header that does not fit its file — a negative dimension, an
/// unsupported datatype, or a voxel payload larger than the bytes after the
/// header — is `InvalidData`, found before anything is allocated for the
/// payload. So is a NaN or infinite voxel, named by its index: preprocessing
/// would carry it to the model, whose INT8 input cast turns it into a silent
/// 0.
pub fn read_nifti(path: &Path) -> std::io::Result<(NiftiInfo, Vec<f32>)> {
    let mut f = std::fs::File::open(path)?;
    let mut hdr = [0u8; 352];
    f.read_exact(&mut hdr)?;
    let sizeof_hdr = i32::from_le_bytes(le(&hdr, 0));
    if sizeof_hdr != HDR_SIZE {
        return Err(invalid(format!(
            "not a little-endian NIfTI-1 header (sizeof_hdr {sizeof_hdr})"
        )));
    }
    if &hdr[344..347] != b"n+1" {
        return Err(invalid("bad NIfTI magic".into()));
    }
    let dim = |i: usize| {
        let d = i16::from_le_bytes(le(&hdr, 40 + 2 * i));
        usize::try_from(d).map(|d| d.max(1)).map_err(|_| invalid(format!("negative dim[{i}] {d}")))
    };
    let info = NiftiInfo {
        width: dim(1)?,
        height: dim(2)?,
        depth: dim(3)?,
        datatype: i16::from_le_bytes(le(&hdr, 70)),
    };
    let voxel_bytes = match info.datatype {
        DT_FLOAT32 => 4,
        DT_UINT8 => 1,
        other => return Err(invalid(format!("unsupported NIfTI datatype {other}"))),
    };
    let left = f.metadata()?.len().saturating_sub(hdr.len() as u64);
    let payload = info
        .width
        .checked_mul(info.height)
        .and_then(|n| n.checked_mul(info.depth))
        .and_then(|n| n.checked_mul(voxel_bytes))
        .filter(|&n| n as u64 <= left)
        .ok_or_else(|| {
            invalid(format!(
                "{}x{}x{} voxels of {voxel_bytes} B do not fit the {left} B after the header",
                info.width, info.height, info.depth
            ))
        })?;
    let mut buf = vec![0u8; payload];
    f.read_exact(&mut buf)?;
    let data: Vec<f32> = match info.datatype {
        DT_FLOAT32 => buf.chunks_exact(4).map(|c| f32::from_le_bytes(le(c, 0))).collect(),
        _ => buf.iter().map(|&b| b as f32).collect(),
    };
    if let Some(i) = data.iter().position(|v| !v.is_finite()) {
        return Err(invalid(format!("voxel {i} is {}: intensities must be finite", data[i])));
    }
    Ok((info, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{SyntheticCtOrg, SyntheticCtOrgConfig};

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("seneca-nifti-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        d
    }

    fn small_volume() -> Volume {
        SyntheticCtOrg::new(SyntheticCtOrgConfig {
            n_patients: 1,
            slice_size: 32,
            slices_per_unit_z: 12.0,
        })
        .volume(0)
    }

    #[test]
    fn intensity_roundtrip() {
        let vol = small_volume();
        let path = tmpdir().join("p0.nii");
        write_nifti(&path, &vol, NiftiChannel::Intensity).unwrap();
        let (info, data) = read_nifti(&path).unwrap();
        assert_eq!((info.width, info.height, info.depth), (vol.width, vol.height, vol.depth));
        assert_eq!(info.datatype, DT_FLOAT32);
        assert_eq!(data.len(), vol.hu.len());
        for (a, b) in data.iter().zip(&vol.hu) {
            assert_eq!(a, b, "float voxels must roundtrip bit-exactly");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn labels_roundtrip() {
        let vol = small_volume();
        let path = tmpdir().join("p0-labels.nii");
        write_nifti(&path, &vol, NiftiChannel::Labels).unwrap();
        let (info, data) = read_nifti(&path).unwrap();
        assert_eq!(info.datatype, DT_UINT8);
        for (a, b) in data.iter().zip(&vol.labels) {
            assert_eq!(*a, *b as f32);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_is_standard_sized() {
        let vol = small_volume();
        let path = tmpdir().join("p0-hdr.nii");
        write_nifti(&path, &vol, NiftiChannel::Labels).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 352 + vol.labels.len());
        assert_eq!(&bytes[344..348], b"n+1\0");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_garbage() {
        let path = tmpdir().join("garbage.nii");
        std::fs::write(&path, vec![0u8; 400]).unwrap();
        assert!(read_nifti(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// Writes one channel of a small volume with `edit` applied to its
    /// bytes, reads it back and returns the error.
    fn read_edited(
        name: &str,
        channel: NiftiChannel,
        edit: impl FnOnce(&mut Vec<u8>),
    ) -> std::io::Error {
        let path = tmpdir().join(name);
        write_nifti(&path, &small_volume(), channel).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        edit(&mut bytes);
        std::fs::write(&path, bytes).unwrap();
        let err = read_nifti(&path).expect_err("hostile header must not read");
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        err
    }

    fn set_i16(bytes: &mut [u8], at: usize, v: i16) {
        bytes[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn absurd_dims_are_an_error_not_an_allocation() {
        // A bare 352-byte header claiming 32767³ float voxels (~140 TB).
        read_edited("absurd.nii", NiftiChannel::Labels, |b| {
            b.truncate(352);
            for i in 1..=3 {
                set_i16(b, 40 + 2 * i, i16::MAX);
            }
            set_i16(b, 70, DT_FLOAT32);
        });
    }

    #[test]
    fn negative_dim_is_an_error() {
        let err = read_edited("negative.nii", NiftiChannel::Labels, |b| set_i16(b, 42, -32));
        assert!(err.to_string().contains("negative"), "{err}");
    }

    #[test]
    fn truncated_payload_is_an_error() {
        read_edited("truncated.nii", NiftiChannel::Labels, |b| {
            let keep = b.len() - 1;
            b.truncate(keep);
        });
    }

    #[test]
    fn unsupported_datatype_is_an_error() {
        let err = read_edited("datatype.nii", NiftiChannel::Labels, |b| set_i16(b, 70, 64));
        assert!(err.to_string().contains("unsupported"), "{err}");
    }

    /// The float voxel `i` of an intensity file's bytes set to `v`.
    fn set_voxel(bytes: &mut [u8], i: usize, v: f32) {
        bytes[352 + 4 * i..356 + 4 * i].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn nan_voxel_is_an_error_naming_it() {
        let err = read_edited("nan.nii", NiftiChannel::Intensity, |b| set_voxel(b, 77, f32::NAN));
        assert!(err.to_string().contains("voxel 77 is NaN"), "{err}");
    }

    #[test]
    fn infinite_voxel_is_an_error_naming_it() {
        let err = read_edited("inf.nii", NiftiChannel::Intensity, |b| {
            set_voxel(b, 1000, f32::INFINITY);
            set_voxel(b, 5, f32::INFINITY);
        });
        assert!(err.to_string().contains("voxel 5 is inf"), "{err}");
    }
}
