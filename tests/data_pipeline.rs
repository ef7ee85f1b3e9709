//! Cross-crate data-pipeline integration: synthetic cohort → preprocessing →
//! training samples → calibration sets, with the statistical properties the
//! paper's method depends on.

use seneca_data::calibration::{manual_calibration, random_calibration, PAPER_MANUAL_TARGET};
use seneca_data::dataset::{ScanKind, SplitKind, SyntheticCtOrg, SyntheticCtOrgConfig};
use seneca_data::preprocess::preprocess;
use seneca_data::stats::{cohort_frequencies, FrequencyAccumulator};
use seneca_data::volume::Organ;

fn cohort() -> SyntheticCtOrg {
    SyntheticCtOrg::new(SyntheticCtOrgConfig {
        n_patients: 28,
        slice_size: 64,
        slices_per_unit_z: 24.0,
    })
}

#[test]
fn table1_shape_holds_on_the_cohort() {
    let f = cohort_frequencies(&cohort());
    // The class-imbalance structure the loss and calibration react to.
    assert!(f.of(Organ::Bones) + f.of(Organ::Lungs) > 55.0, "{}", f.table_row());
    assert!(f.of(Organ::Liver) > 10.0 && f.of(Organ::Liver) < 35.0);
    assert!(f.of(Organ::Bladder) < 6.0);
    assert!(f.of(Organ::Kidneys) < 10.0);
    assert!(f.of(Organ::Brain) < 1.0, "brain must be drastically under-represented");
}

#[test]
fn preprocessing_matches_paper_spec() {
    let ds = cohort();
    let vol = ds.volume(0);
    let mid = vol.slice(vol.depth / 2);
    let p = preprocess(&mid, 2);
    // Downsized by 2, rescaled into [-1, 1], brain removed.
    assert_eq!((p.width, p.height), (32, 32));
    assert!(p.pixels.iter().all(|v| (-1.0..=1.0).contains(v)));
    assert!(p.labels.iter().all(|&l| l != Organ::Brain.label()));
    // Saturation: extremes are hit (1% of pixels clamp to the bounds).
    let at_min = p.pixels.iter().filter(|&&v| v == -1.0).count();
    let at_max = p.pixels.iter().filter(|&&v| v == 1.0).count();
    assert!(at_min >= 1 && at_max >= 1, "percentile saturation must clamp tails");
}

#[test]
fn scan_mix_reproduces_bladder_and_brain_scarcity() {
    let ds = cohort();
    let mut chest = 0;
    let mut with_bladder = 0;
    for id in 0..ds.config.n_patients {
        match ds.scan_kind(id) {
            ScanKind::ChestOnly => chest += 1,
            _ => with_bladder += 1,
        }
    }
    assert!(chest > 0, "cohort needs chest-only scans");
    assert!(with_bladder > chest / 2, "most scans reach the pelvis");
}

#[test]
fn calibration_strategies_differ_as_in_table3() {
    let ds = cohort();
    let pool: Vec<_> = ds.slices(SplitKind::Train, 2).iter().map(|s| preprocess(s, 2)).collect();
    let rnd = random_calibration(&pool, 120, 9);
    let man = manual_calibration(&pool, 120, PAPER_MANUAL_TARGET, 9);

    // Pool distribution for reference.
    let mut acc = FrequencyAccumulator::new();
    for s in &pool {
        acc.add_slice(s);
    }
    let pool_f = acc.finish();

    // Random tracks the pool; manual lifts bladder+kidneys share.
    let drift_rnd = (rnd.frequencies.of(Organ::Bladder) - pool_f.of(Organ::Bladder)).abs();
    assert!(drift_rnd < 6.0, "random sampling drifted {drift_rnd:.1} points");
    let lift = man.frequencies.of(Organ::Bladder) + man.frequencies.of(Organ::Kidneys)
        - rnd.frequencies.of(Organ::Bladder)
        - rnd.frequencies.of(Organ::Kidneys);
    assert!(lift > 1.0, "manual sampling must lift rare organs (lift {lift:.2})");
}

#[test]
fn splits_are_patientwise_disjoint_and_deterministic() {
    let ds = cohort();
    let train = ds.patients(SplitKind::Train);
    let val = ds.patients(SplitKind::Val);
    let test = ds.patients(SplitKind::Test);
    assert_eq!(train.len() + val.len() + test.len(), ds.config.n_patients);
    for id in &test {
        assert!(!train.contains(id) && !val.contains(id));
    }
    // Same config -> same cohort, voxel for voxel.
    let ds2 = cohort();
    assert_eq!(ds.volume(5).hu, ds2.volume(5).hu);
    assert_eq!(ds.volume(5).labels, ds2.volume(5).labels);
}

#[test]
fn kidney_boundaries_are_low_contrast() {
    // The paper's motivation: organs sit in soft tissue at similar HU. Check
    // that kidney-vs-tissue contrast is much smaller than lung-vs-tissue.
    let ds = cohort();
    for id in 0..ds.config.n_patients {
        if ds.scan_kind(id) == ScanKind::ChestOnly {
            continue;
        }
        let vol = ds.volume(id);
        let mut kidney_hu = vec![];
        let mut lung_hu = vec![];
        let mut tissue_hu = vec![];
        for (i, &l) in vol.labels.iter().enumerate() {
            match l {
                l if l == Organ::Kidneys.label() => kidney_hu.push(vol.hu[i]),
                l if l == Organ::Lungs.label() => lung_hu.push(vol.hu[i]),
                0 if vol.hu[i] > -200.0 => tissue_hu.push(vol.hu[i]),
                _ => {}
            }
        }
        if kidney_hu.is_empty() || lung_hu.is_empty() {
            continue;
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let kidney_contrast = (mean(&kidney_hu) - mean(&tissue_hu)).abs();
        let lung_contrast = (mean(&lung_hu) - mean(&tissue_hu)).abs();
        assert!(
            kidney_contrast * 5.0 < lung_contrast,
            "patient {id}: kidney contrast {kidney_contrast:.0} HU vs lung {lung_contrast:.0} HU"
        );
        return; // one qualifying patient suffices
    }
    panic!("no total-body patient found");
}
