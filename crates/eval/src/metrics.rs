//! Evaluation metrics (paper Section 7.1.2).

/// The paper's Eq. (5):
/// `Score = 1 − min(1, |PredictLocation − GTLocation| / GTLength)`.
///
/// 1.0 for an exact location match, 0.0 when the prediction misses the
/// ground truth by a full anomaly length or more.
pub fn score(predict: usize, gt_start: usize, gt_len: usize) -> f64 {
    assert!(gt_len > 0, "ground-truth length must be positive");
    let miss = predict.abs_diff(gt_start) as f64 / gt_len as f64;
    1.0 - miss.min(1.0)
}

/// Best Eq. (5) score over a set of candidate locations (the paper takes
/// the maximum over the top-3 candidates). Zero when `candidates` is
/// empty.
pub fn best_score(candidates: &[usize], gt_start: usize, gt_len: usize) -> f64 {
    candidates
        .iter()
        .map(|&p| score(p, gt_start, gt_len))
        .fold(0.0, f64::max)
}

/// Hit indicator: did any candidate overlap the ground truth
/// (`Score > 0`)? HitRate is the mean of this over a corpus.
pub fn hit(candidates: &[usize], gt_start: usize, gt_len: usize) -> bool {
    best_score(candidates, gt_start, gt_len) > 0.0
}

/// Wins/ties/losses of the proposed method against one baseline
/// (Tables 6–9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Wtl {
    /// Series where the proposed method scored strictly higher.
    pub wins: usize,
    /// Series with (numerically) equal scores.
    pub ties: usize,
    /// Series where the baseline scored strictly higher.
    pub losses: usize,
}

impl Wtl {
    /// Tallies per-series `(proposed, baseline)` score pairs.
    /// Scores within `1e-9` count as ties.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let mut wtl = Wtl::default();
        for (p, b) in pairs {
            if (p - b).abs() <= 1e-9 {
                wtl.ties += 1;
            } else if p > b {
                wtl.wins += 1;
            } else {
                wtl.losses += 1;
            }
        }
        wtl
    }
}

impl std::fmt::Display for Wtl {
    /// Renders as the paper's `wins/ties/losses` notation.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.wins, self.ties, self.losses)
    }
}

/// Mean of a slice (0.0 when empty) — small local helper for reports.
pub fn mean_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_scores_one() {
        assert_eq!(score(100, 100, 50), 1.0);
    }

    #[test]
    fn miss_by_full_length_scores_zero() {
        assert_eq!(score(150, 100, 50), 0.0);
        assert_eq!(score(50, 100, 50), 0.0);
        assert_eq!(score(500, 100, 50), 0.0);
    }

    #[test]
    fn half_miss_scores_half() {
        assert!((score(125, 100, 50) - 0.5).abs() < 1e-12);
        assert!((score(75, 100, 50) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn best_score_takes_max() {
        let cands = [0, 90, 300];
        assert!((best_score(&cands, 100, 50) - 0.8).abs() < 1e-12);
        assert_eq!(best_score(&[], 100, 50), 0.0);
    }

    #[test]
    fn hit_iff_positive_score() {
        assert!(hit(&[120], 100, 50));
        assert!(!hit(&[150], 100, 50));
        assert!(!hit(&[], 100, 50));
    }

    #[test]
    fn wtl_tallies() {
        let wtl = Wtl::from_pairs([(1.0, 0.5), (0.5, 0.5), (0.2, 0.9), (0.7, 0.1)]);
        assert_eq!(
            wtl,
            Wtl {
                wins: 2,
                ties: 1,
                losses: 1
            }
        );
        assert_eq!(wtl.to_string(), "2/1/1");
    }

    #[test]
    fn wtl_treats_near_equal_as_tie() {
        let wtl = Wtl::from_pairs([(0.5, 0.5 + 1e-12)]);
        assert_eq!(wtl.ties, 1);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_gt_length_panics() {
        score(0, 0, 0);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean_or_zero(&[]), 0.0);
        assert_eq!(mean_or_zero(&[1.0, 3.0]), 2.0);
    }
}
