//! Medians, quartiles and the regression verdict of `compare`.

/// A timing's samples with their median and quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The samples, in measurement order.
    pub samples: Vec<f64>,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`. Quartiles use the same rule as Python's
    /// `statistics.quantiles(samples, n=4)` (the "exclusive" method), so
    /// the spreads printed here match the ones computed from the
    /// printed values. Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 };
        let (q1, q3) = if n < 2 {
            (s[0], s[0])
        } else {
            let q = |i: usize| {
                let m = (n + 1) * i;
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 - (4 * j) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        };
        Summary { samples: samples.to_vec(), median, q1, q3 }
    }

    /// The interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How a metric moved from run A to run B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A by more than A's own spread.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The change stays within the bound.
    WithinBound,
    /// One side's spread exceeds the bound: no call can be made.
    Unresolved,
}

impl Verdict {
    /// The word printed in the `compare` table.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for a metric where lower is better (every timed
/// metric and memory), given the bound as a share of A's median.
///
/// When either side's spread exceeds the bound the comparison is
/// unresolved, unless every sample of one side beats every sample of
/// the other. Otherwise B is worse when its median exceeds A's by more
/// than the bound, and better when it undercuts A's by more than A's
/// spread.
pub fn verdict(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    let max = |s: &Summary| s.samples.iter().copied().fold(f64::MIN, f64::max);
    let min = |s: &Summary| s.samples.iter().copied().fold(f64::MAX, f64::min);
    let change = (b.median - a.median) / a.median;
    if a.spread() > bound || b.spread() > bound {
        return if max(b) < min(a) {
            Verdict::Better
        } else if min(b) > max(a) && change > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if change > bound {
        Verdict::Worse
    } else if -change > a.spread() {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the data for tiny samples.
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
        assert!((Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).spread() - 1.0).abs() < 1e-12);
    }

    fn tight(median: f64) -> Summary {
        Summary::of(&[median * 0.999, median, median, median * 1.001, median])
    }

    #[test]
    fn verdicts_respect_bound_and_spread() {
        let a = tight(1.0);
        assert_eq!(verdict(&a, &tight(1.03), 0.05), Verdict::WithinBound);
        assert_eq!(verdict(&a, &tight(1.06), 0.05), Verdict::Worse);
        assert_eq!(verdict(&a, &tight(0.90), 0.05), Verdict::Better);
        assert_eq!(verdict(&a, &tight(0.9995), 0.05), Verdict::WithinBound);
        let noisy = Summary::of(&[0.8, 0.9, 1.0, 1.1, 1.2]);
        assert_eq!(verdict(&a, &noisy, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &a, 0.05), Verdict::Unresolved);
        // A noisy side still yields a call when the samples separate.
        let fast = Summary::of(&[0.5, 0.6, 0.7, 0.55, 0.65]);
        assert_eq!(verdict(&a, &fast, 0.05), Verdict::Better);
        let slow = Summary::of(&[1.5, 1.6, 1.7, 1.55, 1.65]);
        assert_eq!(verdict(&a, &slow, 0.05), Verdict::Worse);
    }
}
