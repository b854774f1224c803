//! Anomaly candidate extraction from a density curve.
//!
//! The paper locates anomalies at minima of the (ensemble) rule density
//! curve and requires the reported top-k candidates to be mutually
//! non-overlapping (Section 7.1.2). We score each length-`n` window by its
//! *mean* density — integrating the curve over the window is the natural
//! windowed reading of "find the minima and rank by density value" and is
//! robust to single-point dips; ties break toward the earlier window.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use egi_tskit::stats::PrefixStats;
use egi_tskit::window::{intervals_overlap, window_count};

/// One ranked anomaly candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Window start in the series.
    pub start: usize,
    /// Window length (the sliding-window length `n`).
    pub len: usize,
    /// Mean rule density over the window — lower is more anomalous.
    pub score: f64,
}

/// Result of a detection run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyReport {
    /// Top-k candidates, most anomalous first, mutually non-overlapping.
    pub anomalies: Vec<Candidate>,
    /// The density curve the candidates were extracted from (raw counts
    /// for single runs, normalized medians for the ensemble).
    pub curve: Vec<f64>,
}

impl AnomalyReport {
    /// An empty report with the given curve (used for degenerate inputs).
    pub fn empty(curve: Vec<f64>) -> Self {
        Self {
            anomalies: Vec::new(),
            curve,
        }
    }

    /// Start position of the best candidate, if any.
    pub fn top_location(&self) -> Option<usize> {
        self.anomalies.first().map(|c| c.start)
    }
}

/// Extracts up to `k` non-overlapping windows of length `n` with the
/// lowest mean density from `curve`.
///
/// Greedy by ascending score (ties toward the earlier window): the best
/// window is taken, every window overlapping it is discarded, and so
/// on. The `N` window scores are heapified in `O(N)` and popped in that
/// order only until `k` windows are picked, so the cost is
/// `O(N + P log N)` for `P` pops — each pick discards fewer than `2n`
/// windows, so `P < k · 2n` — rather than a full sort.
pub fn rank_anomalies(curve: &[f64], n: usize, k: usize) -> Vec<Candidate> {
    let count = window_count(curve.len(), n);
    if count == 0 || k == 0 {
        return Vec::new();
    }
    let ps = PrefixStats::new(curve);
    let keys: Vec<RankKey> = (0..count)
        .map(|start| RankKey {
            score: ps.range_sum(start, start + n) / n as f64,
            start,
        })
        .collect();
    let mut heap = BinaryHeap::from(keys);

    let mut picked: Vec<Candidate> = Vec::with_capacity(k.min(count));
    while picked.len() < k {
        let Some(RankKey { score, start }) = heap.pop() else {
            break;
        };
        if picked
            .iter()
            .all(|c| !intervals_overlap(c.start, c.len, start, n))
        {
            picked.push(Candidate {
                start,
                len: n,
                score,
            });
        }
    }
    picked
}

/// A window's `(score, start)` ranking key, ordered so the max-heap
/// pops the lowest score first and, among equal scores, the earliest
/// start.
#[derive(PartialEq)]
struct RankKey {
    score: f64,
    start: usize,
}

impl Eq for RankKey {}

impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .expect("density scores are finite")
            .then(other.start.cmp(&self.start))
    }
}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_single_dip() {
        // Density 5 everywhere except a dip of 0 at [10, 15).
        let mut curve = vec![5.0; 40];
        for v in curve[10..15].iter_mut() {
            *v = 0.0;
        }
        let got = rank_anomalies(&curve, 5, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start, 10);
        assert_eq!(got[0].score, 0.0);
    }

    #[test]
    fn candidates_do_not_overlap() {
        let mut curve = vec![5.0; 100];
        for v in curve[20..30].iter_mut() {
            *v = 0.0;
        }
        for v in curve[60..70].iter_mut() {
            *v = 1.0;
        }
        let got = rank_anomalies(&curve, 10, 3);
        assert_eq!(got.len(), 3);
        for i in 0..got.len() {
            for j in i + 1..got.len() {
                assert!(
                    !intervals_overlap(got[i].start, got[i].len, got[j].start, got[j].len),
                    "{:?} overlaps {:?}",
                    got[i],
                    got[j]
                );
            }
        }
        // Deepest dip first.
        assert_eq!(got[0].start, 20);
        assert_eq!(got[1].start, 60);
    }

    #[test]
    fn scores_are_nondecreasing() {
        let curve: Vec<f64> = (0..50).map(|i| ((i * 7) % 13) as f64).collect();
        let got = rank_anomalies(&curve, 8, 4);
        for pair in got.windows(2) {
            assert!(pair[0].score <= pair[1].score);
        }
    }

    #[test]
    fn k_larger_than_possible_returns_fewer() {
        let curve = vec![1.0; 10];
        // Only ⌊10/4⌋ = 2 non-overlapping windows of length 4 fit greedily.
        let got = rank_anomalies(&curve, 4, 10);
        assert!(got.len() <= 3);
        assert!(!got.is_empty());
    }

    #[test]
    fn window_longer_than_curve_gives_nothing() {
        let curve = vec![1.0; 5];
        assert!(rank_anomalies(&curve, 6, 2).is_empty());
        assert!(rank_anomalies(&curve, 0, 2).is_empty());
        assert!(rank_anomalies(&[], 3, 2).is_empty());
    }

    #[test]
    fn tie_breaks_toward_earlier_window() {
        let curve = vec![2.0; 30];
        let got = rank_anomalies(&curve, 5, 1);
        assert_eq!(got[0].start, 0);
    }

    #[test]
    fn report_helpers() {
        let r = AnomalyReport::empty(vec![0.0; 3]);
        assert!(r.top_location().is_none());
        let r = AnomalyReport {
            anomalies: vec![Candidate {
                start: 7,
                len: 3,
                score: 0.1,
            }],
            curve: vec![],
        };
        assert_eq!(r.top_location(), Some(7));
    }
}
