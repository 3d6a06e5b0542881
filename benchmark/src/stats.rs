//! Exact order statistics over the samples of one run.

/// Ceil-rank percentile of an ascending-sorted slice: the smallest sample
/// that has at least `p` percent of all samples at or below it. Always an
/// observed value, never an interpolation.
///
/// An empty sample (every operation failed) has no percentile: the result
/// is NaN, which `report::print_result` refuses to pass off as a number.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (total order, so NaN cannot panic the sort).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median (ceil-rank p50) of unsorted samples.
pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    percentile(&values, 50.0)
}

/// The percentile every timing of this benchmark is reported at.
///
/// The box this runs on is a small shared VM: whatever else the host does
/// (it shows in a memory-bound probe, not in a cache-resident one) slows a
/// frame by up to a half, for seconds or for minutes, and never speeds one
/// up. Medians therefore follow the neighbours (the same code gave
/// p50 = 29 ms and 42 ms twenty minutes apart) while the fast end of the
/// distribution follows the code. The fifth percentile is the compromise:
/// far enough from the minimum that one lucky sample cannot set it (a
/// `serve_64` request now and then skips the 40 ms TCP stall all the
/// others pay), close enough to the floor that sets of ten runs taken
/// minutes apart agree within a fifth where their medians differ by half.
pub const QUIET_PERCENTILE: f64 = 5.0;

/// [`QUIET_PERCENTILE`] of unsorted samples.
pub fn quiet(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    percentile(&values, QUIET_PERCENTILE)
}

/// Closed-loop throughput at the same percentile: `callers`, times the
/// share of operations that were correct, over the quiet
/// completion-to-completion interval of a caller. Each sequence lists one
/// caller's completions in one window, in order, as `(seconds since that
/// window started, correct?)`; an interval that ends in a failed operation
/// is no sample, and the failed share scales the rate down.
/// NaN when no operation was correct, like [`percentile`].
pub fn quiet_rate(sequences: &[Vec<(f64, bool)>], callers: usize) -> f64 {
    let mut cycles = Vec::new();
    let mut attempted = 0usize;
    for completions in sequences {
        let mut previous = 0.0;
        for &(end_s, correct) in completions {
            attempted += 1;
            if correct {
                cycles.push(end_s - previous);
            }
            previous = end_s;
        }
    }
    let correct_share = cycles.len() as f64 / attempted as f64;
    callers as f64 * correct_share / quiet(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_rate_ignores_disturbed_cycles_and_counts_failures() {
        // One caller, a frame every 0.1 s, every fourth one disturbed to 0.3 s.
        let mut t = 0.0;
        let steady: Vec<(f64, bool)> = (0..100)
            .map(|i| {
                t += if i % 4 == 3 { 0.3 } else { 0.1 };
                (t, true)
            })
            .collect();
        assert!((quiet_rate(std::slice::from_ref(&steady), 1) - 10.0).abs() < 1e-6);
        // Two callers at that pace serve twice the frames.
        assert!((quiet_rate(&[steady.clone(), steady.clone()], 2) - 20.0).abs() < 1e-6);
        // The same caller's two windows are still one caller.
        assert!((quiet_rate(&[steady.clone(), steady.clone()], 1) - 10.0).abs() < 1e-6);
        // Half the operations failing halves the rate.
        let half: Vec<(f64, bool)> = steady
            .iter()
            .map(|&(t, _)| (t, ((t * 10.0) as u64).is_multiple_of(2)))
            .collect();
        let share = half.iter().filter(|(_, ok)| *ok).count() as f64 / 100.0;
        assert!((quiet_rate(&[half], 1) - 10.0 * share).abs() < 1e-6);
    }

    #[test]
    fn quiet_is_the_fifth_percentile() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quiet(v), 5.0);
    }

    #[test]
    fn ceil_rank_picks_observed_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        // Odd count: the true middle.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn an_empty_sample_has_no_number() {
        assert!(percentile(&[], 50.0).is_nan());
        assert!(quiet_rate(&[vec![(1.0, false)]], 1).is_nan());
        assert!(quiet_rate(&[], 1).is_nan());
    }
}
