//! Order statistics over timing samples.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` in any order; `None` for an empty sample.
    ///
    /// Quartiles follow the exclusive method of Python's
    /// `statistics.quantiles(values, n=4)`, the rule used to judge the
    /// spread of repeated benchmark runs, so a spread printed here and
    /// one computed from the printed values agree.
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let mid = n / 2;
        let median = if n % 2 == 1 {
            *v.get(mid)?
        } else {
            (*v.get(mid.checked_sub(1)?)? + *v.get(mid)?) / 2.0
        };
        Some(Self {
            median,
            q1: quartile(&v, 1)?,
            q3: quartile(&v, 3)?,
            n,
        })
    }

    /// A single measurement.
    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median, where a share is undefined).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th quartile (1 or 3) of sorted, non-empty `v`, by linear
/// interpolation at rank `i * (n + 1) / 4`; the base rank is clamped to
/// `[1, n - 1]`, so two samples extrapolate past their extremes.
fn quartile(v: &[f64], i: usize) -> Option<f64> {
    let n = v.len();
    if n == 1 {
        return v.first().copied();
    }
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    let (lo, hi) = (*v.get(j - 1)?, *v.get(j)?);
    Some((lo * (4.0 - delta) + hi * delta) / 4.0)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn odd_sample_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let s = Summary::of(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]);
        assert_eq!(
            s,
            Some(Summary {
                median: 4.0,
                q1: 2.0,
                q3: 6.0,
                n: 7
            })
        );
    }

    #[test]
    fn even_sample_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(
            s,
            Some(Summary {
                median: 5.5,
                q1: 2.75,
                q3: 8.25,
                n: 10
            })
        );
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = Summary::of(&[8.0, 1.0, 4.0, 2.0]);
        assert_eq!(s.map(|s| (s.q1, s.median, s.q3)), Some((1.25, 3.0, 7.0)));
    }

    #[test]
    fn tiny_samples_clamp_to_the_extremes() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[3.0]), Some(Summary::single(3.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[3.0, 1.0]);
        assert_eq!(s.map(|s| (s.q1, s.median, s.q3)), Some((0.5, 2.0, 3.5)));
        let s = Summary::of(&[1.0, 2.0, 9.0]);
        assert_eq!(s.map(|s| (s.q1, s.median, s.q3)), Some((1.0, 2.0, 9.0)));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = Summary::of(&[9.0, 10.0, 11.0, 10.0, 10.0]);
        let spread = s.map_or(f64::NAN, |s| s.spread());
        // quartiles 9.5 and 10.5 around a median of 10
        assert!((spread - 0.1).abs() < 1e-12, "{spread}");
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }
}
