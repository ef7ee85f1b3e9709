//! Shared experiment context: one cohort, one training run per model size,
//! lazily-built deployments, memoised accuracy reports.

use seneca::eval::{evaluate_backend, AccuracyReport};
use seneca::workflow::{Deployment, PreparedData, Workflow};
use seneca::{zoo, SenecaConfig};
use seneca_dpu::arch::DpuArch;
use seneca_dpu::runtime::{DpuRunner, RuntimeConfig};
use seneca_nn::unet::ModelSize;
use seneca_tensor::Shape4;
use std::collections::HashMap;
use std::sync::Arc;

/// Experiment scale selector (`--scale` on the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke runs.
    Fast,
    /// Minutes-scale, the default for recorded experiments.
    Reduced,
    /// Paper-faithful 256 px / 140 patients (hours on CPU).
    Paper,
}

impl Scale {
    /// Parses the CLI value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "fast" => Some(Scale::Fast),
            "reduced" => Some(Scale::Reduced),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The CLI spelling (used in machine-readable artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Fast => "fast",
            Scale::Reduced => "reduced",
            Scale::Paper => "paper",
        }
    }

    /// The matching workflow configuration.
    pub fn config(self) -> SenecaConfig {
        match self {
            Scale::Fast => SenecaConfig::fast(),
            Scale::Reduced => SenecaConfig::reduced(),
            Scale::Paper => SenecaConfig::paper(),
        }
    }
}

/// Shared state across experiments.
pub struct ExperimentCtx {
    /// The workflow (config + cohort access).
    pub wf: Workflow,
    /// Stage-A data (built once).
    pub data: PreparedData,
    /// The scale this context was built at (recorded in artifacts).
    pub scale: Scale,
    deployments: HashMap<ModelSize, Arc<Deployment>>,
    accuracy_fp32: HashMap<ModelSize, Arc<AccuracyReport>>,
    accuracy_int8: HashMap<ModelSize, Arc<AccuracyReport>>,
}

impl ExperimentCtx {
    /// Builds the context (generates + preprocesses the cohort).
    pub fn new(scale: Scale) -> Self {
        let wf = Workflow::new(scale.config());
        eprintln!("[ctx] preparing synthetic CT-ORG cohort ...");
        let data = wf.prepare_data();
        eprintln!(
            "[ctx] {} training slices, {} calibration images, {} test patients",
            data.train.len(),
            data.calibration.len(),
            data.test_by_patient.len()
        );
        Self {
            wf,
            data,
            scale,
            deployments: HashMap::new(),
            accuracy_fp32: HashMap::new(),
            accuracy_int8: HashMap::new(),
        }
    }

    /// Trains (or loads) + quantises + compiles one model size.
    pub fn deployment(&mut self, size: ModelSize) -> Arc<Deployment> {
        if let Some(d) = self.deployments.get(&size) {
            return Arc::clone(d);
        }
        eprintln!("[ctx] building deployment for {size} ...");
        let graph = zoo::get_or_train(&self.wf, size, &self.data);
        let qg = self.wf.quantize(&graph, &self.data);
        let dep = Arc::new(self.wf.compile_and_deploy(graph, qg));
        self.deployments.insert(size, Arc::clone(&dep));
        dep
    }

    /// A DPU runner compiled for the *paper's* 256x256 input geometry (used
    /// by throughput experiments regardless of the accuracy resolution).
    pub fn dpu_runner_256(&mut self, size: ModelSize, threads: usize) -> DpuRunner {
        let dep = self.deployment(size);
        let xm =
            seneca_dpu::compile(&dep.qgraph, Shape4::new(1, 1, 256, 256), DpuArch::b4096_zcu104());
        DpuRunner::new(Arc::new(xm), RuntimeConfig { threads })
    }

    /// A GPU runner at the paper's 256x256 geometry.
    pub fn gpu_runner_256(&mut self, size: ModelSize) -> seneca_gpu::GpuRunner {
        let dep = self.deployment(size);
        seneca_gpu::GpuRunner::new(
            dep.graph.clone(),
            seneca_gpu::GpuModel::rtx2060_mobile(),
            Shape4::new(1, 1, 256, 256),
        )
    }

    /// FP32 (GPU baseline) accuracy on the test split, memoised.
    pub fn accuracy_fp32(&mut self, size: ModelSize) -> Arc<AccuracyReport> {
        if let Some(r) = self.accuracy_fp32.get(&size) {
            return Arc::clone(r);
        }
        let dep = self.deployment(size);
        eprintln!("[ctx] evaluating FP32 accuracy for {size} ...");
        let rep = Arc::new(evaluate_backend(&dep.gpu_runner, &self.data));
        self.accuracy_fp32.insert(size, Arc::clone(&rep));
        rep
    }

    /// INT8 (DPU functional) accuracy on the test split, memoised.
    pub fn accuracy_int8(&mut self, size: ModelSize) -> Arc<AccuracyReport> {
        if let Some(r) = self.accuracy_int8.get(&size) {
            return Arc::clone(r);
        }
        let dep = self.deployment(size);
        eprintln!("[ctx] evaluating INT8 accuracy for {size} ...");
        let rep = Arc::new(evaluate_backend(&dep.dpu_runner, &self.data));
        self.accuracy_int8.insert(size, Arc::clone(&rep));
        rep
    }

    /// Output directory for rendered artifacts.
    pub fn out_dir(&self) -> std::path::PathBuf {
        let dir = zoo::artifacts_dir().join("experiments");
        let _ = std::fs::create_dir_all(&dir);
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("fast"), Some(Scale::Fast));
        assert_eq!(Scale::parse("reduced"), Some(Scale::Reduced));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("warp"), None);
    }

    #[test]
    fn context_builds_and_memoises() {
        let dir = std::env::temp_dir().join(format!("seneca-ctx-{}", std::process::id()));
        std::env::set_var("SENECA_ARTIFACTS", &dir);
        let mut ctx = ExperimentCtx::new(Scale::Fast);
        let a = ctx.deployment(ModelSize::M1);
        let b = ctx.deployment(ModelSize::M1);
        assert!(Arc::ptr_eq(&a, &b), "deployment must be memoised");
        let r1 = ctx.accuracy_fp32(ModelSize::M1);
        let r2 = ctx.accuracy_fp32(ModelSize::M1);
        assert!(Arc::ptr_eq(&r1, &r2));
        std::env::remove_var("SENECA_ARTIFACTS");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
