//! Order statistics over small samples.

/// A copy of `values` in ascending order (NaN-free inputs only).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count, 0 for
/// an empty sample (a layer that did not run).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the rule the driver
/// applies to a metric's ten values), or `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// A nearest-rank 90th percentile with the count of samples strictly
/// beyond its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct P90 {
    pub value: f64,
    pub beyond: usize,
}

impl P90 {
    /// The guide's rule: a percentile is reported only with at least ten
    /// samples beyond it, which for p90 means at least 100 samples.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

pub fn p90(values: &[f64]) -> P90 {
    let v = sorted(values);
    if v.is_empty() {
        return P90 { value: 0.0, beyond: 0 };
    }
    let rank = (v.len() * 9).div_ceil(10).max(1);
    P90 { value: v[rank - 1], beyond: v.len() - rank }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = p90(&hundred);
        assert_eq!((p.value, p.beyond), (90.0, 10));
        assert!(p.supported());
        let p = p90(&hundred[..99]);
        assert_eq!((p.value, p.beyond), (90.0, 9));
        assert!(!p.supported());
        assert!(!p90(&[]).supported());
    }
}
