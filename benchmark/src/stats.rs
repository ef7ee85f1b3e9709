//! Order statistics and the output checksum.

/// The `q`-quantile (`0.0..=1.0`) of `values`, linearly interpolated between
/// the two nearest ranks. An empty input reads 0, so a metric that does not
/// apply on a workload prints as 0 instead of poisoning the result line.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Distance between the first and third quartile, by the same "exclusive"
/// method as Python's `statistics.quantiles(values, n=4)` — the spread the
/// compare tool and the driver both use. Needs at least two values.
pub fn interquartile_range(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some(quartile(3) - quartile(1))
}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of INT8 logits (`i8 as u8` keeps the bit pattern).
pub fn hash_i8(data: &[i8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(data.iter().map(|&v| v as u8));
    h.finish()
}

/// FNV-1a of FP32 logits (little-endian bit patterns).
pub fn hash_f32(data: &[f32]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(data.iter().flat_map(|v| v.to_le_bytes()));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert!((percentile(&[1.0, 2.0], 0.9) - 1.9).abs() < 1e-12);
        // Order of the input does not matter.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
    }

    #[test]
    fn interquartile_range_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((interquartile_range(&v).unwrap() - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: clamped to the
        // end intervals, extrapolating like Python does.
        assert!((interquartile_range(&[1.0, 2.0]).unwrap() - 1.5).abs() < 1e-12);
        assert!(interquartile_range(&[1.0]).is_none());
    }

    #[test]
    fn fnv1a_known_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(*b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.update(*b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        // Negative INT8 values hash as their two's-complement byte.
        assert_eq!(hash_i8(&[-1]), {
            let mut h = Fnv1a::default();
            h.update([0xff]);
            h.finish()
        });
        assert_eq!(hash_f32(&[1.0]), {
            let mut h = Fnv1a::default();
            h.update(1.0f32.to_le_bytes());
            h.finish()
        });
    }
}
