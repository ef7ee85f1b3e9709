//! Dense `f32` NCHW tensors.

use crate::shape::Shape4;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense rank-4 `f32` tensor in NCHW layout.
///
/// The storage is a flat `Vec<f32>`; see [`Shape4::idx`] for the layout.
/// Tensors are value types: cloning copies the buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: Shape4) -> Self {
        Self { shape, data: vec![0.0; shape.len()] }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Shape4, value: f32) -> Self {
        Self { shape, data: vec![value; shape.len()] }
    }

    /// Wraps an existing buffer. Panics if the buffer length mismatches.
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// He-normal initialisation (for conv weights shaped `[C_out, C_in, K, K]`
    /// stored as NCHW with `n = C_out`).
    pub fn he_normal<R: Rng>(shape: Shape4, rng: &mut R) -> Self {
        let fan_in = (shape.c * shape.h * shape.w).max(1) as f32;
        let std = (2.0 / fan_in).sqrt();
        let data = (0..shape.len())
            .map(|_| {
                // Box-Muller keeps us independent of rand_distr here.
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Immutable access to the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by 4-D coordinates.
    #[inline(always)]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.idx(n, c, h, w)]
    }

    /// Mutable element access by 4-D coordinates.
    #[inline(always)]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let i = self.shape.idx(n, c, h, w);
        &mut self.data[i]
    }

    /// Returns a new tensor `self + other` (elementwise; shapes must match).
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape);
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { shape: self.shape, data }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Maximum absolute value (0.0 for empty tensors).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Stacks `1xCxHxW` tensors along the batch dimension.
    pub fn stack_batch(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "cannot stack zero tensors");
        let s0 = items[0].shape;
        let mut data = Vec::with_capacity(s0.chw() * items.len());
        for t in items {
            assert_eq!(t.shape.with_n(1), s0.with_n(1), "stack requires equal CxHxW");
            assert_eq!(t.shape.n, 1, "stack_batch expects batch-1 items");
            data.extend_from_slice(&t.data);
        }
        Tensor { shape: s0.with_n(items.len()), data }
    }

    /// Concatenates two tensors along the channel axis (equal N, H, W).
    pub fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
        let (sa, sb) = (a.shape, b.shape);
        assert_eq!((sa.n, sa.h, sa.w), (sb.n, sb.h, sb.w), "concat requires equal N/H/W");
        let mut data = Vec::with_capacity(sa.len() + sb.len());
        for (x_a, x_b) in a.data.chunks_exact(sa.chw()).zip(b.data.chunks_exact(sb.chw())) {
            data.extend_from_slice(x_a);
            data.extend_from_slice(x_b);
        }
        Tensor::from_vec(Shape4::new(sa.n, sa.c + sb.c, sa.h, sa.w), data)
    }

    /// Splits a channel-concatenated gradient back into the two parts.
    pub fn split_channels(&self, c_first: usize) -> (Tensor, Tensor) {
        let s = self.shape;
        assert!(c_first <= s.c);
        let c_second = s.c - c_first;
        let mut a = Tensor::zeros(Shape4::new(s.n, c_first, s.h, s.w));
        let mut b = Tensor::zeros(Shape4::new(s.n, c_second, s.h, s.w));
        let hw = s.hw();
        for n in 0..s.n {
            let src = n * s.chw();
            a.data[n * c_first * hw..(n + 1) * c_first * hw]
                .copy_from_slice(&self.data[src..src + c_first * hw]);
            b.data[n * c_second * hw..(n + 1) * c_second * hw]
                .copy_from_slice(&self.data[src + c_first * hw..src + s.chw()]);
        }
        (a, b)
    }
}

/// A borrowed NCHW tensor: a [`Shape4`] over a slice of a larger buffer.
///
/// The planned executors hand out views into their per-worker arenas;
/// a view stays valid only until the arena runs another frame. Callers that
/// need an owning value copy out with [`TensorView::to_tensor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorView<'a> {
    shape: Shape4,
    data: &'a [f32],
}

impl<'a> TensorView<'a> {
    /// Wraps a slice. Panics if the slice length mismatches the shape.
    pub fn new(shape: Shape4, data: &'a [f32]) -> Self {
        assert_eq!(data.len(), shape.len(), "view buffer/shape mismatch");
        Self { shape, data }
    }

    /// The view's shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// The underlying flat buffer.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Copies the view into an owning [`Tensor`].
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.shape, self.data.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_full() {
        let t = Tensor::zeros(Shape4::new(1, 2, 3, 4));
        assert_eq!(t.data().len(), 24);
        assert!(t.data().iter().all(|&v| v == 0.0));
        let f = Tensor::full(Shape4::new(1, 1, 2, 2), 3.5);
        assert!(f.data().iter().all(|&v| v == 3.5));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![0.0; 3]);
    }

    #[test]
    fn he_normal_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let t = Tensor::he_normal(Shape4::new(64, 32, 3, 3), &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.data().len() as f32;
        let expected_var = 2.0 / (32.0 * 9.0);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var / expected_var - 1.0).abs() < 0.1, "var {var} vs {expected_var}");
    }

    #[test]
    fn concat_then_split_roundtrips() {
        let a = Tensor::from_vec(Shape4::new(2, 1, 2, 2), (0..8).map(|v| v as f32).collect());
        let b = Tensor::from_vec(Shape4::new(2, 2, 2, 2), (8..24).map(|v| v as f32).collect());
        let cat = Tensor::concat_channels(&a, &b);
        assert_eq!(cat.shape(), Shape4::new(2, 3, 2, 2));
        assert_eq!(cat.at(0, 0, 0, 0), 0.0);
        assert_eq!(cat.at(0, 1, 0, 0), 8.0);
        assert_eq!(cat.at(1, 0, 0, 0), 4.0);
        let (a2, b2) = cat.split_channels(1);
        assert_eq!(a2, a);
        assert_eq!(b2, b);
    }

    #[test]
    fn stack_and_slice_batch() {
        let items: Vec<Tensor> =
            (0..3).map(|i| Tensor::full(Shape4::new(1, 2, 2, 2), i as f32)).collect();
        let stacked = Tensor::stack_batch(&items);
        assert_eq!(stacked.shape(), Shape4::new(3, 2, 2, 2));
        for (chunk, item) in stacked.data().chunks_exact(8).zip(&items) {
            assert_eq!(chunk, item.data());
        }
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::full(Shape4::new(1, 1, 1, 4), 1.0);
        let b = Tensor::full(Shape4::new(1, 1, 1, 4), 2.0);
        a.axpy(0.5, &b);
        assert!(a.data().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        a.scale(2.0);
        assert!(a.data().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![1.0, -3.0, 2.0, 0.0]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.abs_max(), 3.0);
    }
}
