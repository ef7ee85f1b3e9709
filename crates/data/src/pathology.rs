//! Parametric pathologies: seeded tumors/lesions injected inside organs.
//!
//! The phantom cohort is healthy by construction, which means every
//! evaluation — and, critically, every PTQ calibration set — only ever sees
//! clean parenchyma. Real CT-ORG patients carry liver tumors, lung nodules
//! and renal cysts; segmentation models (and their quantized deployments)
//! must keep finding the *host organ* when part of it looks different.
//!
//! A [`Lesion`] is an axis-aligned ellipsoid in the normalized body frame,
//! anchored to a host organ: a voxel belongs to the lesion only when the
//! healthy classification already assigned it to that organ, so lesions clip
//! themselves to organ boundaries for free. Lesion voxels keep the host
//! organ's *label* (the lesion channel is folded into the organ mask — Dice
//! is scored on lesion-bearing anatomy) but shift its *HU*, producing the
//! hypodense tumors / solid nodules the network has never been trained on.
//! The rasteriser records the lesion voxels in
//! [`crate::volume::Volume::lesion`].
//!
//! [`seed_lesions`] samples a deterministic lesion set for one patient by
//! rejection-sampling centers inside the host organs of an [`Anatomy`]. How
//! many lesions, how large and in which organs are constants of the cohort
//! ([`MIN_LESIONS`]..=[`MAX_LESIONS`], [`LESION_RADIUS`], [`LESION_HOSTS`]).

use crate::anatomy::Anatomy;
use crate::volume::Organ;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One ellipsoidal lesion anchored to a host organ.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Lesion {
    /// Host organ label (the lesion exists only inside this organ).
    pub organ: Organ,
    /// Centre in the normalized body frame `(nx, ny, z)`.
    pub center: (f32, f32, f32),
    /// Ellipsoid half-axes `(rx, ry, rz)` in normalized units.
    pub radii: (f32, f32, f32),
    /// HU shift applied to host parenchyma inside the lesion.
    pub hu_offset: f32,
}

impl Lesion {
    /// True when `(nx, ny, z)` lies inside the lesion ellipsoid.
    pub fn contains(&self, nx: f32, ny: f32, z: f32) -> bool {
        let (cx, cy, cz) = self.center;
        let (rx, ry, rz) = self.radii;
        if rx <= 0.0 || ry <= 0.0 || rz <= 0.0 {
            return false;
        }
        let dx = (nx - cx) / rx;
        let dy = (ny - cy) / ry;
        let dz = (z - cz) / rz;
        dx * dx + dy * dy + dz * dz <= 1.0
    }
}

/// Fewest lesions seeded per patient.
pub const MIN_LESIONS: usize = 1;
/// Most lesions seeded per patient (inclusive).
pub const MAX_LESIONS: usize = 3;
/// Lesion in-plane radius range in normalized units (the z half-extent is
/// drawn from the same range, scaled by 0.6 — lesions are oblate like most
/// real tumors on axial CT).
pub const LESION_RADIUS: (f32, f32) = (0.04, 0.12);
/// Organs that host lesions: liver tumors, lung nodules, renal cysts.
pub const LESION_HOSTS: [Organ; 3] = [Organ::Liver, Organ::Lungs, Organ::Kidneys];

/// Nominal HU offset for a lesion hosted by `organ`.
///
/// Liver tumors are hypodense (−35 HU vs parenchyma), lung nodules are
/// solid soft tissue inside aerated lung (+700 HU), renal cysts are
/// fluid-attenuation (−45 HU), everything else defaults to a mildly
/// hypodense mass.
pub fn lesion_hu_offset(organ: Organ) -> f32 {
    match organ {
        Organ::Liver => -35.0,
        Organ::Lungs => 700.0,
        Organ::Kidneys => -45.0,
        _ => -30.0,
    }
}

/// Samples a deterministic lesion set for one patient: between
/// [`MIN_LESIONS`] and [`MAX_LESIONS`] lesions, each in one of the
/// [`LESION_HOSTS`], with a radius drawn from [`LESION_RADIUS`].
///
/// Centers are rejection-sampled: a candidate `(nx, ny, z)` is kept only if
/// the healthy anatomy classifies it as the drawn host organ, so every
/// lesion is guaranteed to sit inside real parenchyma. Hosts that the scan
/// geometry or the draw never hits are skipped after a bounded number of
/// tries (a patient can end up with fewer than `MIN_LESIONS` only if no
/// host organ is reachable at all).
pub fn seed_lesions<R: Rng>(anatomy: &Anatomy, rng: &mut R) -> Vec<Lesion> {
    let n = rng.gen_range(MIN_LESIONS..=MAX_LESIONS);
    let mut lesions = Vec::with_capacity(n);
    for _ in 0..n {
        let host = LESION_HOSTS[rng.gen_range(0..LESION_HOSTS.len())];
        // Rejection-sample a centre inside the host organ. The trunk spans
        // z in [0, 1]; organs occupy known sub-ranges, so a bounded number
        // of uniform draws finds parenchyma with overwhelming probability.
        for _try in 0..256 {
            let nx = rng.gen_range(-0.9f32..0.9);
            let ny = rng.gen_range(-0.9f32..0.9);
            let z = rng.gen_range(0.0f32..1.0);
            if anatomy.classify(nx, ny, z).0 != host.label() {
                continue;
            }
            let r = rng.gen_range(LESION_RADIUS.0..=LESION_RADIUS.1);
            let ar = rng.gen_range(0.8f32..1.25); // in-plane aspect jitter
            lesions.push(Lesion {
                organ: host,
                center: (nx, ny, z),
                radii: (r * ar, r / ar, r * 0.6),
                hu_offset: lesion_hu_offset(host),
            });
            break;
        }
    }
    lesions
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn anatomy(seed: u64) -> Anatomy {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Anatomy::sample(&mut rng)
    }

    #[test]
    fn lesions_land_inside_their_host_organ() {
        // Eight patients: enough draws that some patient carries the most
        // lesions a patient can.
        let mut most = 0;
        for seed in 0..8 {
            let a = anatomy(3 + seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(77 + seed);
            let lesions = seed_lesions(&a, &mut rng);
            assert!(!lesions.is_empty(), "seed {seed}: no lesion found a host");
            for l in &lesions {
                let (nx, ny, z) = l.center;
                assert_eq!(a.classify(nx, ny, z).0, l.organ.label(), "{l:?} centre off-organ");
                assert!(LESION_HOSTS.contains(&l.organ));
                assert!(l.contains(nx, ny, z));
                assert!(!l.contains(nx + 1.0, ny, z));
            }
            most = most.max(lesions.len());
        }
        assert_eq!(most, MAX_LESIONS);
    }

    #[test]
    fn seeding_is_deterministic() {
        let a = anatomy(4);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(9);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(9);
        let l1 = seed_lesions(&a, &mut r1);
        let l2 = seed_lesions(&a, &mut r2);
        assert_eq!(l1.len(), l2.len());
        for (a, b) in l1.iter().zip(&l2) {
            assert_eq!(a.center, b.center);
            assert_eq!(a.radii, b.radii);
            assert_eq!(a.organ, b.organ);
        }
    }

    #[test]
    fn lung_nodules_are_dense_liver_tumors_hypodense() {
        assert!(lesion_hu_offset(Organ::Lungs) > 500.0);
        assert!(lesion_hu_offset(Organ::Liver) < 0.0);
        assert!(lesion_hu_offset(Organ::Kidneys) < 0.0);
    }
}
