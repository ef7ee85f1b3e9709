//! Segmentation quality metrics and distribution statistics:
//!
//! * [`seg`] — Dice similarity coefficient (Eq. 4), recall/TPR (Eq. 5),
//!   specificity/TNR (Eq. 6), per-organ and frequency-weighted global forms;
//! * [`agg`] — mean±std aggregation and box-plot statistics (quartiles,
//!   whiskers, outliers) for Fig. 6;
//! * [`boundary`] — Hausdorff / average-surface-distance boundary metrics
//!   (quantifying §IV-D's "conservative at the organ edges" observation);
//! * [`literature`] — the published CT-ORG 3D U-Net numbers [17] and the
//!   SENECA paper's own reported values, used as comparison columns when
//!   regenerating Tables IV and V.

pub mod agg;
pub mod boundary;
pub mod literature;
pub mod seg;
