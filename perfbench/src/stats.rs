//! Order statistics for benchmark results: medians and quartiles, tail
//! percentiles that refuse to extrapolate, and the alternating-pair rule
//! that decides whether a change won, lost or cannot be told apart.

/// Sorted copy of `values` (NaN-free input assumed; NaN sorts last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so figures printed here match the same check made in Python. A single value
/// is its own quartiles; an empty slice gives `NaN`s.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile.
#[must_use]
pub fn iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    q3 - q1
}

/// IQR as a share of the median (the benchmark's run-to-run spread).
#[must_use]
pub fn rel_spread(values: &[f64]) -> f64 {
    iqr(values) / median(values).abs()
}

/// The fastest of repeated timings of one deterministic operation: its
/// time while nothing else on the host slowed it. Whatever else runs on a
/// shared host (an SMT sibling above all) only ever slows a repetition, so
/// the fastest tracks the program where the median tracks the neighbours.
#[must_use]
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest relative deviation of any value from the median.
#[must_use]
pub fn worst_rel_dev(values: &[f64]) -> f64 {
    let med = median(values);
    values
        .iter()
        .map(|v| ((v - med) / med).abs())
        .fold(0.0, f64::max)
}

/// Minimum number of samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `values`, refused with an
/// explanation unless at least [`TAIL_SAMPLES`] samples lie beyond it: a
/// p99 from 200 samples is the second-largest value, not a tail estimate.
///
/// # Errors
///
/// Returns a message naming the sample count when too few samples exceed
/// the percentile's rank.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let v = sorted(values);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if rank > n || n - rank < TAIL_SAMPLES {
        return Err(format!(
            "p{p} needs at least {TAIL_SAMPLES} samples beyond it; {n} samples leave {}",
            n.saturating_sub(rank)
        ));
    }
    Ok(v[rank - 1])
}

/// The highest of the usual reporting percentiles that [`percentile`]
/// accepts for this many samples, with its value.
#[must_use]
pub fn highest_tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p| percentile(values, p).ok().map(|v| (p, v)))
}

/// Outcome of comparing a parent's runs with a change's runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least 9 in 10 pairs and its median moved by more
    /// than the parent's IQR.
    Gain,
    /// Not a gain, and the median is no worse than the bound allows.
    Unchanged,
    /// The median is worse than the parent's by more than the bound.
    Regression,
    /// The parent's own spread exceeds the bound, so a move within it
    /// cannot be told from noise.
    Unresolved,
}

/// The alternating-pair rule. `parent[i]` and `change[i]` are the i-th
/// pair of runs (the sides alternate which runs first); `bound` is the
/// share of the parent's median by which the metric may worsen.
#[must_use]
pub fn compare_pairs(
    parent: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> Verdict {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let better = |c: f64, p: f64| sign * (c - p) > 0.0;
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let gain = sign * (cm - pm);
    if rel_spread(parent) > bound {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
        return if all_better {
            Verdict::Gain
        } else {
            Verdict::Unresolved
        };
    }
    if pairs > 0 && wins * 10 >= pairs * 9 && gain > iqr(parent) {
        Verdict::Gain
    } else if -gain > bound * pm.abs() {
        Verdict::Regression
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[5.0, 9.0]), [4.0, 7.0, 10.0]);
        assert_eq!(iqr(&v), 5.5);
        assert!((rel_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[1.5, 0.9, 1.2]), 0.9);
        assert_eq!(fastest(&[]), f64::INFINITY);
    }

    #[test]
    fn worst_deviation_is_relative_to_the_median() {
        assert!((worst_rel_dev(&[9.0, 10.0, 12.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn p99_is_refused_without_ten_samples_beyond_it() {
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        let err = percentile(&small, 99.0).unwrap_err();
        assert!(err.contains("200 samples leave 2"), "{err}");
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Ok(990.0));
        assert_eq!(percentile(&big, 50.0), Ok(500.0));
    }

    #[test]
    fn highest_tail_steps_down_with_the_sample_count() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(highest_tail(&v), Some((95.0, 190.0)));
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(highest_tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(highest_tail(&v), Some((50.0, 10.0)));
    }

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 5)).collect()
    }

    #[test]
    fn pair_rule_gain_needs_nine_wins_and_a_gap_beyond_the_iqr() {
        let parent = runs(100.0, 1.0); // median 102, IQR 2.5
        assert_eq!(
            compare_pairs(&parent, &runs(110.0, 1.0), true, 0.1),
            Verdict::Gain
        );
        // Lower-is-better flips the direction.
        assert_eq!(
            compare_pairs(&parent, &runs(90.0, 1.0), false, 0.1),
            Verdict::Gain
        );
        // Wins every pair, but the gap is inside the parent's IQR.
        let close: Vec<f64> = parent.iter().map(|p| p + 0.5).collect();
        assert_eq!(
            compare_pairs(&parent, &close, true, 0.1),
            Verdict::Unchanged
        );
        // Big median gap but only 8 of 10 pairs won.
        let mut mixed = runs(110.0, 1.0);
        mixed[0] = 50.0;
        mixed[1] = 50.0;
        assert_eq!(
            compare_pairs(&parent, &mixed, true, 0.5),
            Verdict::Unchanged
        );
    }

    #[test]
    fn pair_rule_flags_regressions_beyond_the_bound() {
        let parent = runs(100.0, 1.0);
        assert_eq!(
            compare_pairs(&parent, &runs(80.0, 1.0), true, 0.1),
            Verdict::Regression
        );
        assert_eq!(
            compare_pairs(&parent, &runs(95.0, 1.0), true, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn pair_rule_is_unresolved_when_the_spread_exceeds_the_bound() {
        let noisy = runs(100.0, 20.0); // IQR/median well above 0.1
        assert_eq!(
            compare_pairs(&noisy, &runs(90.0, 20.0), true, 0.1),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        assert_eq!(
            compare_pairs(&noisy, &runs(300.0, 1.0), true, 0.1),
            Verdict::Gain
        );
    }
}
