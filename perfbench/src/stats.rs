//! Order statistics and the determinism digest.

/// Linear-interpolation quantile (the "type 7" estimator) of `xs`,
/// which need not be sorted. `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Median of integer-valued readings (the profiler's whole
/// microseconds) treated as grouped data: each reading `k` stands for
/// the interval `[k - 0.5, k + 0.5)`, and the median interpolates
/// inside the median's interval. Unlike the plain median it does not
/// collapse to the same whole number on every run.
pub fn grouped_median(xs: &[u64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let n = v.len();
    let m = v[n / 2];
    let below = v.partition_point(|&x| x < m) as f64;
    let at = (v.partition_point(|&x| x <= m) as f64) - below;
    Some(m as f64 - 0.5 + (n as f64 / 2.0 - below) / at)
}

/// `num / den`, or `None` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// FNV-1a over everything written into it: the same-seed determinism
/// digest of a run's simulated outcomes.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one line (terminated, so adjacent lines cannot merge).
    pub fn line(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(b"\n");
    }

    /// Folds a number.
    pub fn u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Folds a float by its bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Folds a series of `(instant, value)` samples.
    pub fn series(&mut self, samples: &[(presto_sim::SimTime, f64)]) {
        self.u64(samples.len() as u64);
        for &(t, v) in samples {
            self.u64(t.as_micros());
            self.f64(v);
        }
    }

    /// Folds a pipeline answer.
    pub fn answer(&mut self, a: &presto_proxy::PipelineAnswer) {
        use presto_proxy::PipelineAnswer;
        match a {
            PipelineAnswer::Scalar(a) => {
                self.line(&format!("{:?}", a));
            }
            PipelineAnswer::Series(a) => {
                self.line(&format!("{:?} {:?}", a.source, a.latency));
                self.series(&a.samples);
            }
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn grouped_median_splits_ties() {
        // Ten readings of 5 µs: the median sits mid-interval.
        assert_eq!(grouped_median(&[5; 10]), Some(5.0));
        // Skewed ties move it inside the interval.
        let g = grouped_median(&[4, 5, 5, 5, 9]).unwrap();
        assert!(g > 4.5 && g < 5.5, "{g}");
    }

    #[test]
    fn digest_separates_lines() {
        let mut a = Digest::default();
        a.line("ab");
        a.line("c");
        let mut b = Digest::default();
        b.line("a");
        b.line("bc");
        assert_ne!(a.hex(), b.hex());
    }
}
