//! The one HDR-style bucket scheme, shared by the trace aggregates (ns) and
//! the serving layer's `LatencyHistogram` (µs): the first [`SUB`] buckets are
//! exact (one per unit), and every octave above that is split into [`SUB`]
//! geometric sub-buckets, giving a bounded relative error of `1/SUB` (12.5%)
//! across the full `u64` range. Who counts, and how (plain or atomic), is
//! the caller's business; both read quantiles through [`percentile`].

/// Sub-buckets per octave (and the width of the exact linear prefix).
pub const SUB: u64 = 8;
/// Total buckets: linear prefix + `SUB` per octave for msb 3..=63.
pub const BUCKETS: usize = (SUB + (64 - SUB.trailing_zeros() as u64) * SUB) as usize;

/// Bucket index for a value.
pub fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= 3 because v >= SUB
    let mantissa = v >> (msb - 3); // in [SUB, 2*SUB)
    (SUB + (msb - 3) * SUB + (mantissa - SUB)) as usize
}

/// Inclusive upper edge of a bucket — what quantiles report.
pub fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let octave = (idx - SUB) / SUB;
    let mantissa = SUB + (idx - SUB) % SUB;
    // The topmost buckets' edges exceed u64; compute wide and saturate.
    let edge = (u128::from(mantissa) + 1) << octave;
    u64::try_from(edge - 1).unwrap_or(u64::MAX)
}

/// The `q`-quantile (`0.0..=1.0`) of `total` samples counted per bucket in
/// bucket order, whose exact maximum is `max`: the upper edge of the bucket
/// holding the target sample, capped at `max`, so it never understates the
/// true quantile by more than the bucket precision. 0 when empty.
pub fn percentile(counts: impl IntoIterator<Item = u64>, total: u64, max: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (idx, c) in counts.into_iter().enumerate() {
        seen += c;
        if seen >= target {
            return bucket_upper(idx).min(max);
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotonic_and_cover_u64() {
        let mut prev = 0usize;
        let values = [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            1_000_000,
            1_000_000_000,
            u64::MAX / 2,
            u64::MAX,
        ];
        for v in values {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            assert!(b >= prev, "buckets must be monotone in the value");
            prev = b;
            // The bucket's upper edge never undershoots the value.
            let upper = bucket_upper(b);
            assert!(upper >= v || b == BUCKETS - 1, "{v} -> [{b}] upper {upper}");
        }
        for v in 0..8u64 {
            assert_eq!(bucket_upper(bucket_of(v)), v, "exact below the linear prefix");
        }
    }
}
