//! A deterministic constant-cost backend for serving tests and demos.

use seneca_backend::{Backend, Prediction};
use seneca_tensor::Tensor;
use std::time::Duration;

/// A backend whose per-frame service time is a configurable constant and
/// whose output is a pure function of the input (`logits = 2·x + 1`), so
/// load tests are deterministic in both timing model and results. Batches
/// cost `n · per_frame` — the replica is occupied for the whole batch,
/// like a DPU core running frames back to back.
#[derive(Debug, Clone)]
pub struct SyntheticBackend {
    /// Service time per frame.
    pub per_frame: Duration,
}

impl SyntheticBackend {
    /// A backend taking `per_frame` per frame.
    pub fn new(per_frame: Duration) -> Self {
        Self { per_frame }
    }

    /// The deterministic transform applied to each frame.
    fn transform(img: &Tensor) -> Prediction {
        let data = img.data().iter().map(|v| v.mul_add(2.0, 1.0)).collect();
        Prediction::from_f32(Tensor::from_vec(img.shape(), data))
    }
}

impl Backend for SyntheticBackend {
    fn name(&self) -> String {
        format!("synthetic/{}us", self.per_frame.as_micros())
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        if !images.is_empty() && !self.per_frame.is_zero() {
            std::thread::sleep(self.per_frame * images.len() as u32);
        }
        images.iter().map(Self::transform).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seneca_tensor::Shape4;

    #[test]
    fn output_is_pure_and_shaped_like_the_input() {
        let b = SyntheticBackend::new(Duration::ZERO);
        let img = Tensor::from_vec(Shape4::new(1, 3, 1, 2), vec![0.0, 1.0, -1.0, 2.0, 0.5, -0.5]);
        let out = b.infer_batch(std::slice::from_ref(&img));
        let logits = out[0].as_f32().unwrap();
        assert_eq!(logits.shape(), img.shape());
        assert_eq!(logits.data()[1], 3.0);
        // Same input, same bits.
        let again = b.infer_batch(std::slice::from_ref(&img));
        assert_eq!(again[0].labels, out[0].labels);
        assert_eq!(again[0].as_f32().unwrap().data(), logits.data());
    }

    #[test]
    fn batch_occupies_the_replica_serially() {
        let b = SyntheticBackend::new(Duration::from_millis(2));
        let imgs: Vec<Tensor> =
            (0..4).map(|i| Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![i as f32])).collect();
        let t0 = std::time::Instant::now();
        b.infer_batch(&imgs);
        assert!(t0.elapsed() >= Duration::from_millis(8));
    }
}
