//! Numeric helpers: the output digest, percentiles, and the
//! quartile spread the regression check is defined on.

/// Streaming FNV-1a 64-bit hash, the digest the correctness gates
/// compare against committed values.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let data = sorted(values);
    let rank = (p / 100.0 * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// The median, averaging the two middle values of an even sample (as
/// Python's `statistics.median` does).
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values);
    let mid = data.len() / 2;
    if data.len().is_multiple_of(2) {
        f64::midpoint(data[mid - 1], data[mid])
    } else {
        data[mid]
    }
}

/// First and third quartiles by Python's `statistics.quantiles(data,
/// n=4)` (the default "exclusive" method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a metric's bound is checked against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&values), 5.5);
    }

    #[test]
    fn nearest_rank_percentile() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 10.0);
        assert_eq!(percentile(&values, 90.0), 18.0);
        assert_eq!(percentile(&values, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut fnv = Fnv::new();
        fnv.update(b"a");
        assert_eq!(fnv.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
