//! Order statistics and the paired-run verdict rule.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latencies, set-up time, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// `true` when `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The `p`-th percentile (`0..=100`) of ascending `sorted` values, by linear
/// interpolation between the closest ranks. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// which is what run-to-run spreads are judged by. A single value is its
/// own quartiles; an empty slice gives `NaN`s.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Share of the index-paired runs `(parent[i], change[i])` that the change
/// wins; ties count for neither side but stay in the denominator.
pub fn win_fraction(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.beats(**c, **p))
        .count();
    wins as f64 / pairs as f64
}

/// The outcome of comparing a change's runs with its parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Wins at least nine tenths of the pairs and the medians differ by
    /// more than the parent's own interquartile distance.
    Improved,
    /// The change's median is within the bound of the parent's (or every
    /// change run beats every parent run).
    NoWorse,
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// The parent's own spread exceeds the bound, so "no worse" cannot be
    /// told apart from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label used in the compare table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` runs of one metric on one workload by
/// the paired-run rule: a gain needs ≥ 90% pair wins and a median shift
/// larger than the parent's interquartile distance; "no worse" needs the
/// median within `bound` (a share of the parent's median) while the
/// parent's spread is itself within `bound`, unless every change run beats
/// every parent run.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let [p1, pm, p3] = quartiles(parent);
    let [_, cm, _] = quartiles(change);
    if win_fraction(parent, change, better) >= 0.9
        && better.beats(cm, pm)
        && (cm - pm).abs() > p3 - p1
    {
        return Verdict::Improved;
    }
    let all_better = change
        .iter()
        .all(|c| parent.iter().all(|p| better.beats(*c, *p)));
    if all_better && !change.is_empty() && !parent.is_empty() {
        return Verdict::NoWorse;
    }
    if (p3 - p1) / pm.abs() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (cm - pm) / pm.abs(),
        Better::Higher => (pm - cm) / pm.abs(),
    };
    if worse_by <= bound {
        Verdict::NoWorse
    } else {
        Verdict::Regressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&sorted(&[3.0, 1.0, 2.0, 4.0]), 50.0), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn win_fraction_counts_ties_for_neither_side() {
        let parent = [10.0, 10.0, 10.0, 10.0];
        let change = [9.0, 10.0, 11.0, 8.0];
        assert_eq!(win_fraction(&parent, &change, Better::Lower), 0.5);
        assert_eq!(win_fraction(&parent, &change, Better::Higher), 0.25);
    }

    #[test]
    fn verdicts_follow_the_paired_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        // Clearly faster on every pair.
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
        // Within noise and within the bound.
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            verdict(&parent, &same, Better::Lower, 0.1),
            Verdict::NoWorse
        );
        // Slower by 20% against a 10% bound.
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        // A parent spread wider than the bound leaves a small slowdown unresolved.
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + 20.0 * f64::from(i)).collect();
        let noisy_change: Vec<f64> = noisy.iter().map(|p| p * 1.05).collect();
        assert_eq!(
            verdict(&noisy, &noisy_change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let disjoint: Vec<f64> = noisy.iter().map(|p| p - 1000.0).collect();
        assert_eq!(
            verdict(&noisy, &disjoint, Better::Lower, 0.1),
            Verdict::Improved
        );
        let barely: Vec<f64> = vec![49.0; 10];
        assert_eq!(
            verdict(&noisy, &barely, Better::Lower, 0.1),
            Verdict::NoWorse
        );
    }
}
