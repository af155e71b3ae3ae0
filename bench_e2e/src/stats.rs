//! Sample statistics and metric-name validation.

/// Median of a non-empty sample set (mean of the middle pair when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest and largest sample.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Nearest-rank percentile of an unsorted sample set, `p` in 0..=100
/// (the same rule as `polyraptor::metrics::percentile_sorted`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    polyraptor::metrics::percentile_sorted(&v, p)
}

/// Samples strictly beyond the `p`-th percentile's rank — the guide's
/// rule is that a reported percentile needs at least ten of them.
pub fn samples_beyond(len: usize, p: f64) -> usize {
    len - 1 - ((p / 100.0) * (len - 1) as f64).round() as usize
}

/// The contract's naming rule: starts with a letter or digit, then at
/// most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Check a metric list against the contract: valid names, each used
/// once, at most `limit` of them.
pub fn validate_metric_names(names: &[&str], limit: usize) -> Result<(), String> {
    if names.is_empty() || names.len() > limit {
        return Err(format!("{} metrics, allowed 1..={limit}", names.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for &n in names {
        if !valid_metric_name(n) {
            return Err(format!("invalid metric name {n:?}"));
        }
        if !seen.insert(n) {
            return Err(format!("metric name {n:?} used twice"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (0..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        // 201 samples: ranks 191..=200 lie beyond the 95th percentile.
        assert_eq!(samples_beyond(201, 95.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in ["wall_s", "rq.encode_mb_s_4m", "a", "9lives", "x-y.z_0"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(validate_metric_names(&["a", "b"], 2).is_ok());
        assert!(validate_metric_names(&["a", "b", "c"], 2).is_err());
        assert!(validate_metric_names(&["a", "a"], 16).is_err());
        assert!(validate_metric_names(&[], 16).is_err());
        assert!(validate_metric_names(&["a", "b c"], 16).is_err());
    }
}
