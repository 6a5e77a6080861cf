//! Sample statistics: medians, quartiles, the tail-percentile rule and
//! the offline convergence rule.

use hpc_nmf::ConvergencePolicy;

/// Percentiles a timing may report as its tail, lowest first, each with
/// the share of samples beyond it in parts per thousand (the rule is
/// evaluated in integers: 100 × (1 − 0.9) is not 10 in floating point).
const TAIL_LADDER: [(f64, usize); 5] =
    [(75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// Samples a tail percentile must leave beyond itself to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Timing samples of one measured operation (any unit).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.0.len() as f64
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `p` in `(0, 100]`. Panics on no samples:
    /// every caller measures at least once.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted(), p)
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// The highest ladder percentile that still has at least ten
    /// samples beyond it, with its value; `None` below 40 samples,
    /// where only the median is reported.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = tail_percentile(self.0.len())?;
        Some((p, self.percentile(p)))
    }
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile rule: the highest percentile with at least ten
/// samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|(_, beyond)| n * beyond >= TAIL_MIN_BEYOND * 1000)
        .map(|(p, _)| *p)
}

/// Median with the midpoint convention for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method), so spreads printed
/// here match the ones the acceptance procedure takes. One value has no
/// spread: both quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Evaluates the engine's own `RelTol` rule offline on a recorded
/// objective history: the 1-based iteration at which a run with that
/// policy would have stopped, or `None` if it never would within the
/// history.
pub fn iters_to_tol(history: &[f64], tol: f64) -> Option<usize> {
    let policy = ConvergencePolicy::RelTol { tol };
    let f0 = history.first()?.max(f64::MIN_POSITIVE);
    (1..history.len()).find_map(|i| {
        policy
            .decide(history[i - 1], history[i], f0, &history[..=i], false)
            .map(|_| i + 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [40usize, 100, 200, 1000, 10_000, 123_456] {
            let p = tail_percentile(n).unwrap();
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = Samples::new();
        for x in (1..=100).rev() {
            s.push(x as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.tail(), Some((90.0, 90.0)));
        assert_eq!(s.median(), 50.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn offline_reltol_matches_the_engine_rule() {
        // Improvements relative to f0 = 100: 10 %, 1 %, 0.005 %.
        let history = [100.0, 90.0, 89.0, 88.995, 88.99];
        assert_eq!(iters_to_tol(&history, 1e-4), Some(4));
        assert_eq!(iters_to_tol(&history, 1e-1), Some(3));
        assert_eq!(iters_to_tol(&history, 1e-9), None);
        // An increase stops the run too (ObjectiveIncreased).
        assert_eq!(iters_to_tol(&[100.0, 90.0, 91.0], 1e-9), Some(3));
        assert_eq!(iters_to_tol(&[], 1e-4), None);
        assert_eq!(iters_to_tol(&[5.0], 1e-4), None);
    }
}
