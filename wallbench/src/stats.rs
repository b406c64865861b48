//! Order statistics and the closure arithmetic of the per-layer split.

/// Samples that must lie strictly above a reported percentile, so that the
/// percentile is set by more than a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q` (0 < q < 1): the smallest sample with at
/// least `ceil(q·n)` samples at or below it.
///
/// # Panics
/// Panics on an empty slice, a NaN sample or `q` outside (0, 1).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(q > 0.0 && q < 1.0, "percentile: q must lie in (0, 1)");
    let s = sorted(xs);
    s[rank_index(s.len(), q)]
}

/// Samples ranked above the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - (rank_index(n, q) + 1)
}

/// Whether `n` samples support percentile `q`: at least [`MIN_BEYOND`]
/// samples lie beyond it. For the 90th percentile that means n ≥ 100.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// Timed operations on either side of a sample whose steal ticks count
/// against it ([`steal_around`]).
pub const STEAL_REACH: usize = 2;

/// Steal ticks around one sample: those that fell during the operations
/// `first..=last` of a run's operation log (ticks per timed operation, in
/// the order they ran) and during the `reach` operations on either side.
/// Steal comes in bursts, so a sample next to a stolen one was likely
/// stolen from too, by less than the counter's one-tick resolution.
pub fn steal_around(log: &[u64], first: usize, last: usize, reach: usize) -> u64 {
    let end = (last + reach + 1).min(log.len());
    log.get(first.saturating_sub(reach)..end)
        .map_or(0, |w| w.iter().sum())
}

/// Which samples a statistic keeps, from the steal ticks that fell while
/// each was timed (or around it, [`steal_around`]): the steal-free ones, or, when fewer than `min` are
/// steal-free, those with the fewest ticks, the limit raised until at
/// least `min` are kept (ties kept). Every sample is kept when there are
/// fewer than `min`. The choice reads the hypervisor's counter, never the
/// measured times.
pub fn least_stolen(ticks: &[u64], min: usize) -> Vec<bool> {
    let mut s = ticks.to_vec();
    s.sort_unstable();
    let limit = s.get(min.max(1) - 1).copied().unwrap_or(u64::MAX);
    ticks.iter().map(|&t| t <= limit).collect()
}

/// The `values` whose flag in `keep` is set.
pub fn kept(values: &[f64], keep: &[bool]) -> Vec<f64> {
    values
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(&v, _)| v)
        .collect()
}

/// How far a set of layer times explains an end-to-end time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Closure {
    /// Sum of the layer times.
    pub explained: f64,
    /// End-to-end time minus the explained part (negative when the layers
    /// over-explain it).
    pub residue: f64,
    /// `explained / total`.
    pub ratio: f64,
}

/// Splits `total` into the sum of `parts` and the remainder no part
/// explains.
///
/// # Panics
/// Panics when `total` is not positive.
pub fn closure(total: f64, parts: &[f64]) -> Closure {
    assert!(total > 0.0, "closure of a non-positive total");
    let explained: f64 = parts.iter().sum();
    Closure {
        explained,
        residue: total - explained,
        ratio: explained / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!supports(99, 0.9));
        assert!(supports(100, 0.9));
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(250, 0.9), 25);
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        let above = xs.iter().filter(|&&x| x > percentile(&xs, 0.9)).count();
        assert_eq!(above, beyond(xs.len(), 0.9));
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn steal_free_samples_are_kept_while_there_are_enough() {
        let ticks = [0, 2, 0, 1, 0, 1];
        assert_eq!(
            least_stolen(&ticks, 3),
            [true, false, true, false, true, false]
        );
        // Too few steal-free samples: the limit rises one tick at a time,
        // keeping ties.
        assert_eq!(
            least_stolen(&ticks, 4),
            [true, false, true, true, true, true]
        );
        assert_eq!(least_stolen(&ticks, 6), [true; 6]);
        assert_eq!(least_stolen(&ticks, 100), [true; 6]);
        assert_eq!(least_stolen(&[3, 5], 0), [true, false]);
        assert!(least_stolen(&[], 4).is_empty());
        assert_eq!(kept(&[1.0, 2.0, 3.0], &[false, true, true]), [2.0, 3.0]);
    }

    #[test]
    fn steal_around_covers_the_neighbours() {
        let log = [0, 0, 1, 0, 0, 0, 0, 2];
        assert_eq!(steal_around(&log, 4, 4, 0), 0);
        assert_eq!(steal_around(&log, 4, 4, 1), 0);
        assert_eq!(steal_around(&log, 4, 4, 2), 1);
        assert_eq!(steal_around(&log, 5, 6, 1), 2);
        assert_eq!(steal_around(&log, 0, 0, 2), 1);
        assert_eq!(steal_around(&log, 7, 7, 3), 2);
        assert_eq!(steal_around(&log, 9, 9, 0), 0);
    }

    #[test]
    fn closure_splits_total_into_parts_and_residue() {
        let c = closure(10.0, &[4.0, 3.5, 0.5]);
        assert_eq!(c.explained, 8.0);
        assert_eq!(c.residue, 2.0);
        assert_eq!(c.ratio, 0.8);
        let over = closure(2.0, &[1.5, 1.0]);
        assert_eq!(over.residue, -0.5);
        assert_eq!(over.ratio, 1.25);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn closure_rejects_zero_total() {
        closure(0.0, &[1.0]);
    }
}
