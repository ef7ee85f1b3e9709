//! Published numbers used as comparison columns.
//!
//! Two sources: the CT-ORG 3D U-Net results of Rister et al. \[17\] (Table V's
//! right column) and the SENECA paper's own reported measurements (used by
//! EXPERIMENTS.md to print paper-vs-ours for every cell).

use serde::{Deserialize, Serialize};

/// mean ± std pair as printed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperStat {
    /// Reported mean.
    pub mean: f64,
    /// Reported standard deviation.
    pub std: f64,
}

impl PaperStat {
    /// Shorthand constructor.
    pub const fn new(mean: f64, std: f64) -> Self {
        Self { mean, std }
    }
}

/// CT-ORG 3D U-Net \[17\] per-organ Dice (%, mean ± std) — Table V.
pub mod ct_org_unet3d {
    use super::PaperStat;

    /// Global DSC.
    pub const GLOBAL: PaperStat = PaperStat::new(88.17, 5.16);
    /// Liver.
    pub const LIVER: PaperStat = PaperStat::new(92.00, 3.6);
    /// Bladder.
    pub const BLADDER: PaperStat = PaperStat::new(58.10, 22.3);
    /// Lungs.
    pub const LUNGS: PaperStat = PaperStat::new(93.80, 5.9);
    /// Kidneys.
    pub const KIDNEYS: PaperStat = PaperStat::new(88.20, 7.9);
    /// Bones.
    pub const BONES: PaperStat = PaperStat::new(82.70, 7.6);
    /// FPS range derived from the reported per-patient runtimes (4 GPUs).
    pub const FPS_RANGE: (f64, f64) = (17.0, 197.0);
}

/// One Table IV row as published (FP32 on RTX 2060 Mobile vs INT8 on the
/// ZCU104 with 4 threads).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Model label ("1M".."16M").
    pub model: &'static str,
    /// FP32 GPU frames/s.
    pub fps_fp32: PaperStat,
    /// INT8 FPGA frames/s.
    pub fps_int8: PaperStat,
    /// FP32 board power (W).
    pub watt_fp32: PaperStat,
    /// INT8 board power (W).
    pub watt_int8: PaperStat,
    /// FP32 energy efficiency (FPS/W).
    pub ee_fp32: PaperStat,
    /// INT8 energy efficiency (FPS/W).
    pub ee_int8: PaperStat,
    /// FP32 global DSC (%).
    pub dsc_fp32: PaperStat,
    /// INT8 global DSC (%).
    pub dsc_int8: PaperStat,
}

/// The paper's Table IV (μ ± σ of 10 runs).
pub const TABLE4: [Table4Row; 5] = [
    Table4Row {
        model: "1M",
        fps_fp32: PaperStat::new(72.20, 0.47),
        fps_int8: PaperStat::new(335.40, 0.34),
        watt_fp32: PaperStat::new(78.01, 0.61),
        watt_int8: PaperStat::new(28.40, 0.02),
        ee_fp32: PaperStat::new(0.93, 0.01),
        ee_int8: PaperStat::new(11.81, 0.02),
        dsc_fp32: PaperStat::new(92.98, 0.16),
        dsc_int8: PaperStat::new(93.04, 0.07),
    },
    Table4Row {
        model: "2M",
        fps_fp32: PaperStat::new(77.45, 0.14),
        fps_int8: PaperStat::new(254.87, 0.20),
        watt_fp32: PaperStat::new(77.63, 0.91),
        watt_int8: PaperStat::new(24.82, 0.02),
        ee_fp32: PaperStat::new(1.00, 0.01),
        ee_int8: PaperStat::new(10.27, 0.01),
        dsc_fp32: PaperStat::new(92.98, 0.16),
        dsc_int8: PaperStat::new(93.01, 0.07),
    },
    Table4Row {
        model: "4M",
        fps_fp32: PaperStat::new(65.90, 0.30),
        fps_int8: PaperStat::new(273.17, 0.21),
        watt_fp32: PaperStat::new(77.94, 0.54),
        watt_int8: PaperStat::new(28.54, 0.06),
        ee_fp32: PaperStat::new(0.85, 0.01),
        ee_int8: PaperStat::new(9.57, 0.02),
        dsc_fp32: PaperStat::new(93.41, 0.16),
        dsc_int8: PaperStat::new(93.49, 0.07),
    },
    Table4Row {
        model: "8M",
        fps_fp32: PaperStat::new(52.22, 0.31),
        fps_int8: PaperStat::new(127.91, 0.06),
        watt_fp32: PaperStat::new(77.56, 0.90),
        watt_int8: PaperStat::new(28.00, 0.04),
        ee_fp32: PaperStat::new(0.67, 0.01),
        ee_int8: PaperStat::new(4.57, 0.01),
        dsc_fp32: PaperStat::new(93.53, 0.16),
        dsc_int8: PaperStat::new(93.65, 0.07),
    },
    Table4Row {
        model: "16M",
        fps_fp32: PaperStat::new(37.23, 0.42),
        fps_int8: PaperStat::new(98.12, 0.19),
        watt_fp32: PaperStat::new(77.99, 0.97),
        watt_int8: PaperStat::new(30.98, 0.15),
        ee_fp32: PaperStat::new(0.48, 0.01),
        ee_int8: PaperStat::new(3.17, 0.02),
        dsc_fp32: PaperStat::new(93.76, 0.16),
        dsc_int8: PaperStat::new(93.84, 0.07),
    },
];

/// SENECA's Table V per-organ DSC (%, FPGA column).
pub mod seneca_fpga {
    use super::PaperStat;

    /// Global DSC.
    pub const GLOBAL: PaperStat = PaperStat::new(93.04, 0.07);
    /// Liver.
    pub const LIVER: PaperStat = PaperStat::new(91.63, 0.09);
    /// Bladder.
    pub const BLADDER: PaperStat = PaperStat::new(79.21, 0.09);
    /// Lungs.
    pub const LUNGS: PaperStat = PaperStat::new(96.16, 0.09);
    /// Kidneys.
    pub const KIDNEYS: PaperStat = PaperStat::new(81.3, 0.08);
    /// Bones.
    pub const BONES: PaperStat = PaperStat::new(94.35, 0.03);
    /// Global TPR (§IV-D).
    pub const GLOBAL_TPR: PaperStat = PaperStat::new(93.06, 0.07);
    /// Global TNR (§IV-D).
    pub const GLOBAL_TNR: PaperStat = PaperStat::new(99.75, 0.07);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_headline_ratios() {
        // 1M INT8 vs FP32: 4.65x FPS, 12.7x EE (the abstract's claims).
        let r = &TABLE4[0];
        let speedup = r.fps_int8.mean / r.fps_fp32.mean;
        assert!((speedup - 4.645).abs() < 0.02, "{speedup}");
        let ee_gain = r.ee_int8.mean / r.ee_fp32.mean;
        assert!((ee_gain - 12.7).abs() < 0.1, "{ee_gain}");
    }

    #[test]
    fn fpga_fps_ordering() {
        let fps: Vec<f64> = TABLE4.iter().map(|r| r.fps_int8.mean).collect();
        // 1M > 4M > 2M > 8M > 16M.
        assert!(fps[0] > fps[2] && fps[2] > fps[1] && fps[1] > fps[3] && fps[3] > fps[4]);
    }

    #[test]
    fn bladder_improvement_over_ct_org() {
        // SENECA beats the 3D U-Net bladder DSC by > 20 points (§IV-E).
        let delta = seneca_fpga::BLADDER.mean - ct_org_unet3d::BLADDER.mean;
        assert!(delta > 20.0, "{delta}");
    }

    #[test]
    fn lungs_to_bladder_ratio_claim() {
        // §IV-D: lungs are 13.6x more frequent but only 1.21x higher DSC.
        let ratio = seneca_fpga::LUNGS.mean / seneca_fpga::BLADDER.mean;
        assert!((ratio - 1.21).abs() < 0.02, "{ratio}");
    }
}
