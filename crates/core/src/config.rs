//! Experiment-scale configuration.
//!
//! The paper's full pipeline (140 patients at 512→256 px, 500-slice
//! calibration) is CPU-tractable here but slow; [`SenecaConfig::fast`]
//! shrinks every axis for tests and examples while keeping the same code
//! paths. [`SenecaConfig::paper`] follows the paper's setup at the
//! resolution used for recorded experiments.

use seneca_data::SyntheticCtOrgConfig;
use seneca_nn::train::TrainConfig;
use serde::{Deserialize, Serialize};

/// End-to-end workflow configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SenecaConfig {
    /// Synthetic cohort settings (patients, raster size, scan mix).
    pub cohort: SyntheticCtOrgConfig,
    /// Network input size after preprocessing (paper: 256).
    pub input_size: usize,
    /// Slice stride when building the training set (1 = every slice).
    pub train_stride: usize,
    /// Slice stride for test evaluation.
    pub test_stride: usize,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Calibration set size (paper: 500).
    pub calibration_images: usize,
    /// Throughput experiment frame count (paper: 2000).
    pub throughput_frames: usize,
    /// Repetitions for μ±σ (paper: 10).
    pub throughput_runs: usize,
    /// Master seed for training/quantisation randomness.
    pub seed: u64,
}

impl SenecaConfig {
    /// Paper-faithful setup at 256x256 (slow on CPU: use for the recorded
    /// experiment runs, not for tests).
    pub fn paper() -> Self {
        Self {
            cohort: SyntheticCtOrgConfig {
                slice_size: 512,
                slices_per_unit_z: 72.0,
                ..Default::default()
            },
            input_size: 256,
            train_stride: 4,
            test_stride: 2,
            train: TrainConfig {
                epochs: 8,
                batch_size: 4,
                seed: 0xC70E,
                lr_decay: 0.9,
                verbose: true,
                augment: false,
            },
            learning_rate: 1.5e-3,
            calibration_images: 500,
            throughput_frames: 2000,
            throughput_runs: 10,
            seed: 0x5E4ECA,
        }
    }

    /// Reduced-scale setup with the same structure: 64 px inputs, fewer
    /// patients/slices/epochs — sized so the full five-model sweep records
    /// in tens of minutes on a single CPU core. This is the default for the
    /// results in EXPERIMENTS.md; throughput experiments always simulate the
    /// paper's 256 px DPU geometry regardless of this accuracy resolution.
    pub fn reduced() -> Self {
        Self {
            cohort: SyntheticCtOrgConfig {
                n_patients: 28,
                slice_size: 128,
                slices_per_unit_z: 36.0,
            },
            input_size: 64,
            train_stride: 6,
            test_stride: 3,
            train: TrainConfig {
                epochs: 14,
                batch_size: 4,
                seed: 0xC70E,
                lr_decay: 0.93,
                verbose: true,
                augment: false,
            },
            learning_rate: 3e-3,
            calibration_images: 150,
            throughput_frames: 2000,
            throughput_runs: 10,
            seed: 0x5E4ECA,
        }
    }

    /// Tiny setup for unit tests and quick examples (seconds, not minutes).
    pub fn fast() -> Self {
        Self {
            cohort: SyntheticCtOrgConfig {
                n_patients: 12,
                slice_size: 64,
                slices_per_unit_z: 16.0,
            },
            input_size: 32,
            train_stride: 3,
            test_stride: 3,
            train: TrainConfig {
                epochs: 3,
                batch_size: 4,
                seed: 0xC70E,
                lr_decay: 0.9,
                verbose: false,
                augment: false,
            },
            learning_rate: 2e-3,
            calibration_images: 24,
            throughput_frames: 200,
            throughput_runs: 3,
            seed: 0x5E4ECA,
        }
    }

    /// Downsample factor from raster resolution to network input.
    pub fn downsample_factor(&self) -> usize {
        assert!(
            self.cohort.slice_size.is_multiple_of(self.input_size),
            "raster size {} must be a multiple of input size {}",
            self.cohort.slice_size,
            self.input_size
        );
        self.cohort.slice_size / self.input_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_paper_constants() {
        let c = SenecaConfig::paper();
        assert_eq!(c.cohort.n_patients, 140);
        assert_eq!(c.cohort.slice_size, 512);
        assert_eq!(c.input_size, 256);
        assert_eq!(c.downsample_factor(), 2);
        assert_eq!(c.calibration_images, 500);
        assert_eq!(c.throughput_frames, 2000);
        assert_eq!(c.throughput_runs, 10);
    }

    #[test]
    fn fast_config_is_small_and_consistent() {
        let c = SenecaConfig::fast();
        assert!(c.cohort.n_patients <= 20);
        assert_eq!(c.downsample_factor(), 2);
    }

    #[test]
    #[should_panic(expected = "must be a multiple")]
    fn indivisible_sizes_rejected() {
        let mut c = SenecaConfig::fast();
        c.input_size = 48;
        let _ = c.downsample_factor();
    }
}
