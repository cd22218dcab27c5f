//! Order statistics over timing samples, and the log2-bucketed
//! histogram the traced run merges per worker.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs`, linearly interpolated between
/// the two closest ranks. `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Distance between the first and third quartile.
pub fn iqr(xs: &[f64]) -> f64 {
    quantile(xs, 0.75) - quantile(xs, 0.25)
}

/// Sub-buckets per power of two: the histogram's relative resolution
/// is 1/16 of a value's magnitude.
const SUB: usize = 16;
const SUB_BITS: u32 = 4;
/// Power-of-two groups: values up to 2^64.
const GROUPS: usize = 64;

/// A log2-bucketed histogram of `u64` values (nanoseconds): each power
/// of two is split into [`SUB`] linear sub-buckets, so recording is a
/// few shifts and quantiles are exact to 1/16 of the value.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; GROUPS * SUB],
            total: 0,
            sum: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let group = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
        group * SUB + sub
    }

    /// The lower bound and width of bucket `b`.
    fn range(b: usize) -> (f64, f64) {
        let group = b / SUB;
        let sub = (b % SUB) as f64;
        if group == 0 {
            return (sub, 1.0);
        }
        let width = (1u64 << (group - 1)) as f64;
        ((SUB as f64 + sub) * width, width)
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
    }

    /// Fold `other` into this histogram.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of the recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The `q`-quantile, interpolated linearly inside its bucket.
    /// `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 > rank {
                let (lo, width) = Self::range(b);
                return lo + width * (rank - seen as f64 + 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank lies below the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(iqr(&xs), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn buckets_cover_every_value_in_order() {
        let mut last = 0;
        for v in (0..5000u64).chain([u64::MAX / 3, u64::MAX]) {
            let b = Hist::bucket(v);
            assert!(b >= last, "bucket order broken at {v}");
            let (lo, width) = Hist::range(b);
            assert!(
                lo <= v as f64 && v as f64 <= lo + width,
                "{v} outside bucket {b}"
            );
            last = b;
        }
    }

    #[test]
    fn histogram_quantile_is_within_a_sixteenth() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let mut other = Hist::default();
        other.record(20_000);
        h.merge(&other);
        assert_eq!(h.count(), 10_001);
        for (q, want) in [(0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() <= want / 16.0, "q{q}: {got} vs {want}");
        }
    }
}
