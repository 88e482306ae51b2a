//! The estimators: exact nearest-rank percentiles within a round, and
//! the best repetition of identical work across rounds.
//!
//! Host interference on a shared guest is one-sided (it only ever adds
//! time) and arrives in bursts of seconds, so among repetitions of the
//! same work the fastest is the closest to the program's own cost. Where
//! rounds can be short there are many of them and the best *round* is
//! kept; where a round cannot be shorter than a couple of seconds, the
//! best repetition is kept per *operation* of the round instead. The
//! median round stays beside either as the noise indicator.

/// Seconds since `from`.
pub fn secs(from: std::time::Instant) -> f64 {
    from.elapsed().as_secs_f64()
}

/// Whether a smaller or a larger value of a metric is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// sample with at least `q` of the samples at or below it. `None` for
/// an empty sample.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&mut samples.to_vec(), 0.5)
}

/// One metric's value in every round, summarised.
#[derive(Clone, Debug, PartialEq)]
pub struct Rounds {
    /// The best round: the minimum when lower is better, else the
    /// maximum.
    pub best: f64,
    /// The median round.
    pub median: f64,
    /// `|median − best| / best`: how far a typical round sat from the
    /// best one, i.e. how much interference the run saw.
    pub noise: f64,
    /// Every round's value, in round order.
    pub values: Vec<f64>,
}

/// Summarise per-round values around a given best. `None` when there
/// were no rounds.
pub fn rounds_around(best: f64, values: &[f64]) -> Option<Rounds> {
    let median = median(values)?;
    Some(Rounds {
        best,
        median,
        noise: if best != 0.0 {
            (median - best).abs() / best.abs()
        } else {
            0.0
        },
        values: values.to_vec(),
    })
}

/// Summarise per-round values, the best round being the best value.
pub fn best_of_rounds(values: &[f64], better: Better) -> Option<Rounds> {
    let best = match better {
        Better::Lower => values.iter().copied().min_by(f64::total_cmp)?,
        Better::Higher => values.iter().copied().max_by(f64::total_cmp)?,
    };
    rounds_around(best, values)
}

/// For rounds that each ran the same operations in the same order:
/// the smallest value each operation took in any round.
/// `rounds[r][i]` is operation `i` in round `r`.
pub fn best_per_op(rounds: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    assert!(
        rounds.iter().all(|r| r.len() == first.len()),
        "rounds must run the same operations"
    );
    (0..first.len())
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut s, 0.5), Some(3.0));
        assert_eq!(percentile(&mut s, 0.0), Some(1.0));
        assert_eq!(percentile(&mut s, 1.0), Some(5.0));
        // 0.95 × 5 = 4.75 → rank 5; 0.8 × 5 = 4 → rank 4 exactly.
        assert_eq!(percentile(&mut s, 0.95), Some(5.0));
        assert_eq!(percentile(&mut s, 0.8), Some(4.0));
        // An even count takes the lower middle: rank ⌈0.5 × 4⌉ = 2.
        assert_eq!(percentile(&mut [4.0, 1.0, 3.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&mut [7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn best_round_follows_the_metric_direction() {
        let times = [33.0, 52.0, 34.0, 33.5];
        let r = best_of_rounds(&times, Better::Lower).unwrap();
        assert_eq!(r.best, 33.0);
        assert_eq!(r.median, 33.5);
        assert!((r.noise - 0.5 / 33.0).abs() < 1e-12);
        assert_eq!(r.values, times);

        let rates = [29.0, 19.0, 28.0];
        let r = best_of_rounds(&rates, Better::Higher).unwrap();
        assert_eq!(r.best, 29.0);
        assert_eq!(r.median, 28.0);
        assert!((r.noise - 1.0 / 29.0).abs() < 1e-12);

        assert_eq!(best_of_rounds(&[], Better::Lower), None);
    }

    #[test]
    fn best_per_op_takes_each_operations_fastest_round() {
        // Round 1 was disturbed during its first two operations, round 2
        // during its last; no whole round is clean, every operation is.
        let rounds = vec![
            vec![15.0, 30.0, 30.0],
            vec![10.0, 20.0, 45.0],
            vec![10.5, 21.0, 31.0],
        ];
        assert_eq!(best_per_op(&rounds), [10.0, 20.0, 30.0]);
        assert_eq!(best_per_op(&[]), Vec::<f64>::new());
        let r = rounds_around(60.0, &[75.0, 75.0, 62.5]).unwrap();
        assert_eq!((r.best, r.median), (60.0, 75.0));
        assert!((r.noise - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same operations")]
    fn best_per_op_refuses_rounds_of_different_shape() {
        best_per_op(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
