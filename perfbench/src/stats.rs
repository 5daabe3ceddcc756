//! Summary statistics: medians and the tail-percentile rule.

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// How many samples must lie beyond a percentile before it may be
/// reported as the tail.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A tail latency: the percentile it was taken at, its value and the
/// sample counts that justify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples ranked beyond the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_PERCENTILES`] with at least
/// [`MIN_BEYOND`] samples ranked beyond it, by nearest rank. `None`
/// when even the median has fewer than that many samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 leaves 1 beyond, p95 leaves 5, p90 leaves exactly 10.
        let t = tail(&v).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));

        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        // p75 has rank 30 and 9 beyond; the median keeps 19 beyond.
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 20.0, 19));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        assert_eq!(tail(&[]), None);
        assert!(tail(&(1..=20).map(f64::from).collect::<Vec<_>>()).is_some());
    }
}
