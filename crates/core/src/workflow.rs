//! The Figure 1 pipeline, stage by stage.

use crate::config::SenecaConfig;
use rand::SeedableRng;
use seneca_data::calibration::{manual_calibration, PAPER_MANUAL_TARGET};
use seneca_data::dataset::{SplitKind, SyntheticCtOrg};
use seneca_data::preprocess::preprocess;
use seneca_data::scenario::Scenario;
use seneca_data::stats::{FrequencyAccumulator, OrganFrequencies};
use seneca_data::volume::Slice2d;
use seneca_dpu::arch::DpuArch;
use seneca_dpu::runtime::{DpuRunner, RuntimeConfig};
use seneca_gpu::{GpuModel, GpuRunner};
use seneca_nn::graph::Graph;
use seneca_nn::loss::{cross_entropy_loss, FocalTverskyLoss};
use seneca_nn::optim::Adam;
use seneca_nn::train::{stack_samples, step, train, Sample};
use seneca_nn::unet::{ModelSize, UNet};
use seneca_quant::{fuse, quantize_post_training, PtqConfig, QuantizedGraph};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;

/// One test patient's prepared evaluation batch: preprocessed slice images
/// and their ground-truth label maps, in slice order. Images and labels are
/// stored as parallel vectors so evaluation can hand `&images` straight to
/// `Backend::infer_batch` — borrowing the prepared tensors instead of
/// copying the test set on every evaluation pass.
pub struct TestPatient {
    /// Patient id within the cohort.
    pub id: usize,
    /// Preprocessed slice images (one batch per patient).
    pub images: Vec<Tensor>,
    /// Ground-truth label maps, parallel to `images`.
    pub labels: Vec<Vec<u8>>,
}

/// Stage-A output: preprocessed slices ready for training and evaluation.
pub struct PreparedData {
    /// Training samples (preprocessed slices + labels).
    pub train: Vec<Sample>,
    /// Calibration images (unlabeled use; frequency-leveled per Table III).
    pub calibration: Vec<Tensor>,
    /// Test slices (preprocessed, labels kept for metrics), grouped by patient.
    pub test_by_patient: Vec<TestPatient>,
    /// Organ frequencies of the training slices (drives the loss weights).
    pub frequencies: OrganFrequencies,
    /// Inverse-frequency class weights (background weight prepended).
    pub class_weights: Vec<f32>,
}

/// Stage-E output: everything deployed, both targets.
pub struct Deployment {
    /// The trained FP32 graph (the GPU baseline executes this).
    pub graph: Graph,
    /// Quantized graph (stage D output).
    pub qgraph: QuantizedGraph,
    /// VART-style runner over the compiled xmodel.
    pub dpu_runner: DpuRunner,
    /// GPU baseline runner.
    pub gpu_runner: GpuRunner,
}

/// The workflow driver.
pub struct Workflow {
    /// Configuration.
    pub config: SenecaConfig,
}

/// Converts a preprocessed slice into a training sample.
pub fn slice_to_sample(s: &Slice2d) -> Sample {
    Sample {
        image: Tensor::from_vec(Shape4::new(1, 1, s.height, s.width), s.pixels.clone()),
        labels: s.labels.clone(),
    }
}

impl Workflow {
    /// Creates a workflow.
    pub fn new(config: SenecaConfig) -> Self {
        Self { config }
    }

    /// The synthetic cohort handle.
    pub fn cohort(&self) -> SyntheticCtOrg {
        SyntheticCtOrg::new(self.config.cohort.clone())
    }

    /// Stage A: generate, slice, preprocess, split; build the calibration
    /// set with the Table III manual sampler and the loss class weights.
    pub fn prepare_data(&self) -> PreparedData {
        let ds = self.cohort();
        let factor = self.config.downsample_factor();

        let prep = |slices: Vec<Slice2d>| -> Vec<Slice2d> {
            slices.iter().map(|s| preprocess(s, factor)).collect()
        };

        let train_slices = prep(ds.slices(SplitKind::Train, self.config.train_stride));
        assert!(!train_slices.is_empty(), "training split produced no slices");

        // Frequencies + class weights from the training distribution
        // (5 target organs; background gets a small fixed weight).
        let mut acc = FrequencyAccumulator::new();
        for s in &train_slices {
            acc.add_slice(s);
        }
        let frequencies = acc.finish();
        let organ_w = FocalTverskyLoss::inverse_frequency_weights(&frequencies.pct[..5]);
        let mut class_weights = Vec::with_capacity(6);
        class_weights.push(0.05); // background: large, easy, down-weighted
        class_weights.extend_from_slice(&organ_w);

        // Table III: manual (frequency-leveled) calibration sampling.
        let cal = manual_calibration(
            &train_slices,
            self.config.calibration_images,
            PAPER_MANUAL_TARGET,
            self.config.seed ^ 0xCA11,
        );
        let calibration: Vec<Tensor> =
            cal.slices.iter().map(|s| slice_to_sample(s).image).collect();

        // Test slices grouped per patient (per-volume DSC for Fig. 6).
        let test_by_patient = self.scenario_test_patients(&Scenario::nominal(), false);

        PreparedData {
            train: train_slices.iter().map(slice_to_sample).collect(),
            calibration,
            test_by_patient,
            frequencies,
            class_weights,
        }
    }

    /// Builds the test split under an acquisition [`Scenario`], with seeded
    /// lesions when `lesions` is set — the robustness suite's per-scenario
    /// evaluation sets. `(Scenario::nominal(), false)` is the prepared
    /// `test_by_patient` itself ([`Self::prepare_data`] builds it so); only
    /// the acquisition (and the injected lesions) differ otherwise. FP32 and
    /// every quantized deployment are evaluated on these same tensors, so
    /// the measured gap is attributable to quantization alone.
    pub fn scenario_test_patients(&self, scenario: &Scenario, lesions: bool) -> Vec<TestPatient> {
        let ds = self.cohort();
        let factor = self.config.downsample_factor();
        let mut patients = Vec::new();
        for id in ds.patients(SplitKind::Test) {
            let vol = ds.scenario_volume(id, scenario, lesions);
            let mut images = Vec::new();
            let mut labels = Vec::new();
            for z in (0..vol.depth).step_by(self.config.test_stride) {
                let s = slice_to_sample(&preprocess(&vol.slice(z), factor));
                images.push(s.image);
                labels.push(s.labels);
            }
            patients.push(TestPatient { id, images, labels });
        }
        patients
    }

    /// Stages B + C: build and train one Table II model.
    ///
    /// Two pragmatic adaptations of the paper's protocol for CPU-scale
    /// budgets (documented in DESIGN.md §6):
    ///
    /// * one cross-entropy **warm-up epoch** before the Focal Tversky
    ///   epochs — CE converges much faster from random initialisation on
    ///   heavily imbalanced data, and FTL then sharpens the rare organs;
    /// * **compute-normalised epochs**: `config.train.epochs` is the budget
    ///   for the 1M model; larger models get proportionally fewer epochs so
    ///   every configuration trains for roughly equal wall-clock.
    ///
    /// Returns the trained graph, named by the size label.
    pub fn train_model(&self, size: ModelSize, data: &PreparedData) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        // The net is dropped here, so training owns its weights (no copy).
        let mut graph = Graph::from_unet(&UNet::from_size(size, &mut rng), size.label());
        let mut opt = Adam::new(self.config.learning_rate);

        // Compute-normalised epoch budget, against the 1M model's MAC count.
        // The 1M reference is built from its own RNG, so it leaves the
        // training stream alone.
        let s = self.config.input_size;
        let frame_macs = |g: &Graph| g.macs(Shape4::new(1, 1, s, s)).iter().sum::<u64>() as f64;
        let reference = UNet::from_size(ModelSize::M1, &mut rand::rngs::StdRng::seed_from_u64(0));
        let macs_1m = frame_macs(&Graph::from_unet(&reference, ModelSize::M1.label()));
        let epochs = ((self.config.train.epochs as f64 * macs_1m / frame_macs(&graph)).round()
            as usize)
            .max(1);

        // Cross-entropy warm-up epoch.
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..data.train.len()).collect();
        order.shuffle(&mut rng);
        for chunk in order.chunks(self.config.train.batch_size) {
            let (batch, labels) = stack_samples(chunk.iter().map(|&i| &data.train[i]));
            step(&mut graph, &batch, &labels, cross_entropy_loss, &mut opt, &mut rng);
        }
        if self.config.train.verbose {
            eprintln!("[train {}] CE warm-up done; {} FTL epochs follow", size.label(), epochs);
        }

        // Focal Tversky epochs.
        let loss = FocalTverskyLoss::paper_defaults(data.class_weights.clone());
        let cfg = seneca_nn::train::TrainConfig { epochs, ..self.config.train.clone() };
        train(&mut graph, &data.train, &loss, &mut opt, &cfg);
        graph
    }

    /// Stage D: PTQ with the calibration set.
    pub fn quantize(&self, graph: &Graph, data: &PreparedData) -> QuantizedGraph {
        let fg = fuse(graph);
        let (qg, _report) = quantize_post_training(
            &fg,
            &data.calibration,
            &PtqConfig { max_images: self.config.calibration_images },
        );
        qg
    }

    /// Stage E: compile for the B4096 and wrap in runners (both targets).
    pub fn compile_and_deploy(&self, graph: Graph, qg: QuantizedGraph) -> Deployment {
        let input_shape = Shape4::new(1, 1, self.config.input_size, self.config.input_size);
        let xm = seneca_dpu::compile(&qg, input_shape, DpuArch::b4096_zcu104());
        let dpu_runner = DpuRunner::new(Arc::new(xm), RuntimeConfig::default());
        let gpu_runner = GpuRunner::new(graph.clone(), GpuModel::rtx2060_mobile(), input_shape);
        Deployment { graph, qgraph: qg, dpu_runner, gpu_runner }
    }

    /// Full pipeline for one model size (train → quantize → compile).
    pub fn deploy(&self, size: ModelSize, data: &PreparedData) -> Deployment {
        let graph = self.train_model(size, data);
        let qg = self.quantize(&graph, data);
        self.compile_and_deploy(graph, qg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seneca_backend::{Backend, Fp32RefBackend, QuantRefBackend};

    fn fast_workflow() -> (Workflow, PreparedData) {
        let wf = Workflow::new(SenecaConfig::fast());
        let data = wf.prepare_data();
        (wf, data)
    }

    #[test]
    fn prepare_data_builds_all_pieces() {
        let (wf, data) = fast_workflow();
        assert!(!data.train.is_empty());
        assert_eq!(data.calibration.len(), wf.config.calibration_images);
        assert!(!data.test_by_patient.is_empty());
        assert_eq!(data.class_weights.len(), 6);
        // Images are preprocessed into [-1, 1] at the configured size.
        let s = data.train[0].image.shape();
        assert_eq!((s.h, s.w), (32, 32));
        assert!(data.train[0].image.data().iter().all(|v| (-1.0..=1.0).contains(v)));
        // Bladder weight exceeds bones weight (inverse frequency).
        assert!(data.class_weights[2] > data.class_weights[5]);
        // Background is down-weighted.
        assert!(data.class_weights[0] < 0.2);
    }

    #[test]
    fn nominal_scenario_test_set_matches_prepared_split() {
        let (wf, data) = fast_workflow();
        let nominal = wf.scenario_test_patients(&Scenario::nominal(), false);
        assert_eq!(nominal.len(), data.test_by_patient.len());
        for (a, b) in nominal.iter().zip(&data.test_by_patient) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.labels, b.labels);
            for (ia, ib) in a.images.iter().zip(&b.images) {
                assert_eq!(ia.data(), ib.data());
            }
        }
        // A degraded scenario with pathology produces different inputs.
        let sc = Scenario { dose: 0.25, slice_thickness: 2, fov: 0.85 };
        let degraded = wf.scenario_test_patients(&sc, true);
        assert_eq!(degraded.len(), data.test_by_patient.len());
        assert!(degraded[0].images.len() < data.test_by_patient[0].images.len());
    }

    #[test]
    fn full_fast_pipeline_end_to_end() {
        let (wf, data) = fast_workflow();
        let dep = wf.deploy(ModelSize::M1, &data);
        // All artifacts line up on shapes.
        let img = &data.test_by_patient[0].images[0];
        let fp32 = dep.gpu_runner.predict(img);
        let int8 = dep.dpu_runner.predict(img);
        assert_eq!(fp32.len(), 32 * 32);
        assert_eq!(int8.len(), 32 * 32);
        // INT8 and FP32 agree on a large majority of pixels.
        let agree = fp32.iter().zip(&int8).filter(|(a, b)| a == b).count() as f64 / 1024.0;
        assert!(agree > 0.7, "agreement {agree}");
        // Throughput path works on the deployed model.
        let rep = dep.dpu_runner.throughput(100, 1);
        assert!(rep.fps > 0.0 && rep.watt > 15.0);

        // Reference backends bit-match their device twins.
        let input_shape = dep.gpu_runner.input_shape;
        let fp32_ref = Fp32RefBackend::new(dep.graph.clone(), input_shape).predict(img);
        assert_eq!(fp32_ref, fp32, "fp32-ref vs gpu");
        let int8_ref = QuantRefBackend::new(dep.qgraph.clone(), input_shape).predict(img);
        assert_eq!(int8_ref, int8, "int8-ref vs dpu");
    }
}
