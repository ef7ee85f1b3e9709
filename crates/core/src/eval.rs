//! Accuracy evaluation drivers (Tables IV–V, Fig. 6).
//!
//! Predictions are evaluated *per test patient*: each volume contributes one
//! per-organ Dice sample, which is what the paper's boxplots (Fig. 6) and
//! mean±std columns (Table V) are built from.

use crate::metrics::agg::{BoxplotStats, MeanStd};
use crate::metrics::seg::{global_weighted_dice, weighted_global_rates, Confusion};
use crate::workflow::{PreparedData, TestPatient};
use seneca_backend::Backend;
use seneca_data::volume::Organ;
use serde::{Deserialize, Serialize};

/// Accuracy evaluation results over the test split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Per-organ Dice samples, one per test patient where the organ occurs
    /// (percent). Index = organ label − 1 (liver..bones).
    pub per_organ_pct: Vec<Vec<f64>>,
    /// Global weighted Dice per patient (percent).
    pub global_pct: Vec<f64>,
    /// Global TPR per patient (percent).
    pub tpr_pct: Vec<f64>,
    /// Global TNR per patient (percent).
    pub tnr_pct: Vec<f64>,
}

impl AccuracyReport {
    /// Mean±std of the global Dice.
    pub fn global(&self) -> MeanStd {
        MeanStd::of(&self.global_pct)
    }

    /// Mean±std of one organ's Dice.
    pub fn organ(&self, organ: Organ) -> MeanStd {
        MeanStd::of(&self.per_organ_pct[organ.label() as usize - 1])
    }

    /// Boxplot stats of one organ's Dice (Fig. 6).
    pub fn organ_boxplot(&self, organ: Organ) -> Option<BoxplotStats> {
        let xs = &self.per_organ_pct[organ.label() as usize - 1];
        if xs.is_empty() {
            None
        } else {
            Some(BoxplotStats::of(xs))
        }
    }

    /// Mean±std global TPR (sensitivity, §IV-D).
    pub fn global_tpr(&self) -> MeanStd {
        MeanStd::of(&self.tpr_pct)
    }

    /// Mean±std global TNR (specificity, §IV-D).
    pub fn global_tnr(&self) -> MeanStd {
        MeanStd::of(&self.tnr_pct)
    }
}

/// Evaluates any [`Backend`] over the prepared test split. Each patient's
/// slices go through `infer_batch` as one batch, so backends with worker
/// pools (the DPU runtime, the INT8 reference) parallelise within patients.
pub fn evaluate_backend(backend: &dyn Backend, data: &PreparedData) -> AccuracyReport {
    evaluate_backend_on(backend, &data.test_by_patient)
}

/// Evaluates any [`Backend`] over an explicit patient list — the robustness
/// suite evaluates the same deployment on many scenario-specific test sets,
/// none of which are the prepared split.
///
/// Each patient's images are handed to the backend as one borrowed
/// `&[Tensor]` batch — evaluation never copies the test set, and the tensors
/// a backend sees are *the* prepared tensors (stable buffer addresses across
/// evaluation passes).
pub fn evaluate_backend_on(backend: &dyn Backend, patients: &[TestPatient]) -> AccuracyReport {
    let mut per_organ_pct: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut global_pct = Vec::new();
    let mut tpr_pct = Vec::new();
    let mut tnr_pct = Vec::new();

    for patient in patients {
        let preds: Vec<Vec<u8>> =
            backend.infer_batch(&patient.images).into_iter().map(|p| p.labels).collect();
        assert_eq!(preds.len(), patient.images.len(), "backend batch length");

        // Accumulate confusion counts across the patient's slices.
        let mut organ_conf = [Confusion::default(); 5];
        let mut pred_all: Vec<u8> = Vec::new();
        let mut truth_all: Vec<u8> = Vec::new();
        for (truth, pred) in patient.labels.iter().zip(&preds) {
            assert_eq!(pred.len(), truth.len(), "backend output length");
            for (k, conf) in organ_conf.iter_mut().enumerate() {
                conf.merge(&crate::metrics::seg::confusion(pred, truth, k as u8 + 1));
            }
            pred_all.extend_from_slice(pred);
            truth_all.extend_from_slice(truth);
        }
        for (k, conf) in organ_conf.iter().enumerate() {
            // Only count organs present in the patient's ground truth.
            if conf.tp + conf.fn_ > 0 {
                if let Some(d) = conf.dice() {
                    per_organ_pct[k].push(100.0 * d);
                }
            }
        }
        if let Some(g) = global_weighted_dice(&pred_all, &truth_all, 5) {
            global_pct.push(100.0 * g);
        }
        // Global TPR/TNR over organs present, each rate weighted by its own
        // support (positives for TPR, negatives for TNR).
        let (tpr, tnr) = weighted_global_rates(&organ_conf);
        if let Some(t) = tpr {
            tpr_pct.push(100.0 * t);
        }
        if let Some(t) = tnr {
            tnr_pct.push(100.0 * t);
        }
    }

    AccuracyReport { per_organ_pct, global_pct, tpr_pct, tnr_pct }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SenecaConfig;
    use crate::workflow::Workflow;
    use seneca_backend::{Logits, Prediction};
    use seneca_tensor::{Shape4, Tensor};

    fn data() -> PreparedData {
        Workflow::new(SenecaConfig::fast()).prepare_data()
    }

    /// A backend that labels each image with `label(image)`.
    struct LabelBackend<F>(F);

    impl<F: Fn(&Tensor) -> Vec<u8> + Send + Sync> Backend for LabelBackend<F> {
        fn name(&self) -> String {
            "labels".into()
        }

        fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
            let logits = || Logits::F32(Tensor::zeros(Shape4::new(1, 1, 1, 1)));
            images
                .iter()
                .map(|img| Prediction { labels: (self.0)(img), logits: logits() })
                .collect()
        }
    }

    /// Predicts background everywhere.
    fn background() -> LabelBackend<impl Fn(&Tensor) -> Vec<u8> + Send + Sync> {
        LabelBackend(|img: &Tensor| vec![0u8; img.shape().hw()])
    }

    #[test]
    fn oracle_predictor_scores_100() {
        let data = data();
        // The oracle reads the ground truth through a side channel: map each
        // image pointer to its labels.
        let lookup: std::collections::HashMap<usize, Vec<u8>> = data
            .test_by_patient
            .iter()
            .flat_map(|p| p.images.iter().zip(&p.labels))
            .map(|(img, labels)| (img.data().as_ptr() as usize, labels.clone()))
            .collect();
        let oracle =
            LabelBackend(move |img: &Tensor| lookup[&(img.data().as_ptr() as usize)].clone());
        let rep = evaluate_backend(&oracle, &data);
        assert!((rep.global().mean - 100.0).abs() < 1e-9);
        assert!((rep.global_tpr().mean - 100.0).abs() < 1e-9);
        assert!((rep.global_tnr().mean - 100.0).abs() < 1e-9);
    }

    #[test]
    fn background_predictor_scores_0_dice_100_tnr_is_undefined() {
        let rep = evaluate_backend(&background(), &data());
        assert!(rep.global().mean < 1e-9);
        // Predicting nothing: TPR 0, TNR 100 (no false positives).
        assert!(rep.global_tpr().mean < 1e-9);
        assert!((rep.global_tnr().mean - 100.0).abs() < 1e-9);
    }

    #[test]
    fn organ_samples_respect_presence() {
        let rep = evaluate_backend(&background(), &data());
        // Lungs occur in every scan kind; samples == number of test patients
        // that contain lungs (> 0). Brain is not among the 5 targets at all.
        assert!(!rep.per_organ_pct[Organ::Lungs.label() as usize - 1].is_empty());
        assert_eq!(rep.per_organ_pct.len(), 5);
    }

    #[test]
    fn boxplot_available_for_present_organs() {
        let rep = evaluate_backend(&background(), &data());
        assert!(rep.organ_boxplot(Organ::Lungs).is_some());
    }
}
