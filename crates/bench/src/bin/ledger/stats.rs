//! Order statistics over latency samples.
//!
//! Every timing the ledger reports carries its sample count, and a
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it — a p99 over 300 samples is three numbers, not a tail; see
//! [`tail`] for what is reported in its place.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The tail of `values`: the `q`-quantile (nearest rank), or — with too
/// few samples for it — the highest order statistic that still has
/// [`MIN_BEYOND`] samples beyond it, labelled with the percentile it is
/// (`p99`, `p98.7`). Below twenty samples not even the median qualifies
/// and the slowest sample stands in, labelled `max`. Lowering the
/// percentile one rank at a time keeps the figure continuous when a
/// run's sample count crosses what `q` needs.
pub fn tail(values: &[f64], q: f64) -> Option<(String, f64)> {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n < 2 * MIN_BEYOND {
        return sorted.last().map(|slowest| ("max".to_owned(), *slowest));
    }
    let wanted = (q * n as f64).ceil() as usize;
    let rank = wanted.min(n - MIN_BEYOND);
    let label = if rank == wanted {
        format!("p{}", q * 100.0)
    } else {
        format!("p{:.1}", rank as f64 / n as f64 * 100.0)
    };
    Some((label, sorted[rank - 1]))
}

/// Distance between the first and third quartile as a share of the
/// median — the spread `ledger check` compares against a metric's
/// bound. Quartiles are taken the way Python's
/// `statistics.quantiles(values, n=4)` takes them (its default,
/// exclusive method), so both tools agree.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |p: f64| {
        // Exclusive quantile: position p * (n + 1), clamped to the data.
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
    };
    let mid = median(&sorted)?;
    (mid != 0.0).then(|| (at(0.75) - at(0.25)).abs() / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(tail(&upto(2000), 0.99), Some(("p99".to_owned(), 1980.0)));
        // p99 of 1,000 samples is rank 990 with ten beyond: reported.
        assert_eq!(tail(&upto(1000), 0.99), Some(("p99".to_owned(), 990.0)));
        // Of 999 it is rank 990 with nine beyond: refused, and the tail
        // is one rank lower, not a jump to p90.
        assert_eq!(tail(&upto(999), 0.99), Some(("p99.0".to_owned(), 989.0)));
        assert_eq!(tail(&upto(100), 0.99), Some(("p90.0".to_owned(), 90.0)));
        // A p95 needs 200 samples.
        assert_eq!(tail(&upto(200), 0.95), Some(("p95".to_owned(), 190.0)));
        assert_eq!(tail(&upto(199), 0.95), Some(("p95.0".to_owned(), 189.0)));
        assert_eq!(tail(&upto(20), 0.99), Some(("p50.0".to_owned(), 10.0)));
        assert_eq!(tail(&upto(19), 0.99), Some(("max".to_owned(), 19.0)));
        assert_eq!(tail(&[], 0.99), None);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
