//! The matrix profile type, discord extraction, and the shared
//! `(distance, index)` tie-break rule.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use egi_tskit::window::intervals_overlap;

/// `(distance, index)` lexicographic improvement: `(d, idx)` beats
/// `(best_d, best_idx)` iff it is strictly smaller under the total order
/// *distance first, neighbor index second*.
///
/// Every profile fold in this crate (the kernel's per-cell fold and
/// the per-worker partial-profile merge of STOMP and of the streaming
/// monitor's finish) uses this single rule. Because min-folding under a
/// total order is commutative and associative, any processing order —
/// diagonal chunks, seeded diagonal orders, append schedules,
/// per-thread partials — produces the *same* profile and index vectors,
/// including on exact distance ties (the smallest neighbor index wins).
///
/// A fresh slot is `(f64::INFINITY, usize::MAX)`: any finite distance
/// improves it.
#[inline]
pub fn improves(d: f64, idx: usize, best_d: f64, best_idx: usize) -> bool {
    d < best_d || (d == best_d && idx < best_idx)
}

/// Pointwise min-merge of one partial profile into another under
/// [`improves`].
///
/// `src` may be shorter than `dst` (a partial computed before the series
/// grew); entries past its end are left untouched. Because the underlying
/// fold is commutative and associative, merging partials in any order
/// yields the same result — this is the primitive behind the kernel's
/// per-worker merge in STOMP and in the streaming monitor's finish.
///
/// # Panics
///
/// Panics if `dst_profile` and `dst_index` lengths differ, or if `src`
/// is longer than `dst`.
pub fn merge_min_into(
    dst_profile: &mut [f64],
    dst_index: &mut [usize],
    src_profile: &[f64],
    src_index: &[usize],
) {
    assert_eq!(dst_profile.len(), dst_index.len(), "dst length mismatch");
    assert_eq!(src_profile.len(), src_index.len(), "src length mismatch");
    assert!(
        src_profile.len() <= dst_profile.len(),
        "src longer than dst"
    );
    for i in 0..src_profile.len() {
        if improves(src_profile[i], src_index[i], dst_profile[i], dst_index[i]) {
            dst_profile[i] = src_profile[i];
            dst_index[i] = src_index[i];
        }
    }
}

/// A discord: a subsequence whose nearest non-self neighbor is far away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discord {
    /// Window start position.
    pub start: usize,
    /// Window length.
    pub len: usize,
    /// 1-NN (z-normalized Euclidean) distance — higher is more anomalous.
    pub distance: f64,
}

/// The matrix profile of a series for window length `m`: per window, the
/// distance to (and index of) its nearest non-self match.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixProfile {
    /// Window length the profile was computed for.
    pub m: usize,
    /// Exclusion zone half-width used (|i − j| ≤ zone are self-matches).
    pub exclusion: usize,
    /// `profile[i]` — distance from window `i` to its nearest neighbor.
    pub profile: Vec<f64>,
    /// `index[i]` — position of that neighbor (`usize::MAX` if none).
    pub index: Vec<usize>,
}

impl MatrixProfile {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.profile.len()
    }

    /// `true` when the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.profile.is_empty()
    }

    /// Extracts the top-`k` non-overlapping discords: windows with the
    /// largest nearest-neighbor distance, greedily filtered so no two
    /// reported windows overlap.
    ///
    /// Candidates are taken by distance, largest first, and then by
    /// start, smallest first. Windows whose neighborhood was entirely
    /// excluded (profile still at `+∞`) are skipped — they carry no
    /// evidence. The candidates sit in a heap built in `O(n)` and popped
    /// only until `k` picks are made, so `k = 1` costs `O(n)` and no `k`
    /// costs more than a full sort.
    pub fn discords(&self, k: usize) -> Vec<Discord> {
        let mut candidates: BinaryHeap<Candidate> = self
            .profile
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .map(|(start, &distance)| Candidate { distance, start })
            .collect();
        let mut picked: Vec<Discord> = Vec::with_capacity(k.min(candidates.len()));
        while picked.len() < k {
            let Some(Candidate { distance, start }) = candidates.pop() else {
                break;
            };
            if picked
                .iter()
                .all(|d| !intervals_overlap(d.start, d.len, start, self.m))
            {
                picked.push(Discord {
                    start,
                    len: self.m,
                    distance,
                });
            }
        }
        picked
    }
}

/// A finite profile entry as a discord candidate, ordered so the heap's
/// maximum is the largest distance and, among equal distances, the
/// smallest start.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    distance: f64,
    start: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance
            .partial_cmp(&other.distance)
            .expect("candidate distances are finite")
            .then(other.start.cmp(&self.start))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Candidate distances are finite, so `==` is an equivalence.
impl Eq for Candidate {}

#[cfg(test)]
mod tests {
    use super::*;

    fn mp(profile: Vec<f64>, m: usize) -> MatrixProfile {
        let index = vec![0; profile.len()];
        MatrixProfile {
            m,
            exclusion: m,
            profile,
            index,
        }
    }

    #[test]
    fn top_discord_is_max_distance() {
        let p = mp(vec![1.0, 5.0, 2.0, 1.0, 1.0, 1.0], 2);
        let d = p.discords(1);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].start, 1);
        assert_eq!(d[0].distance, 5.0);
    }

    #[test]
    fn discords_do_not_overlap() {
        let p = mp(vec![9.0, 8.5, 8.0, 1.0, 1.0, 7.0, 6.0, 1.0], 3);
        let d = p.discords(2);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].start, 0);
        // 1 and 2 overlap window 0 (length 3) → next is 5.
        assert_eq!(d[1].start, 5);
    }

    #[test]
    fn infinite_profile_entries_are_skipped() {
        let p = mp(vec![f64::INFINITY, 2.0, 1.0], 1);
        let d = p.discords(3);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].start, 1);
    }

    #[test]
    fn improves_is_lexicographic() {
        // Strictly smaller distance wins regardless of index.
        assert!(improves(1.0, 99, 2.0, 0));
        assert!(!improves(2.0, 0, 1.0, 99));
        // Equal distance: smaller index wins.
        assert!(improves(1.0, 3, 1.0, 7));
        assert!(!improves(1.0, 7, 1.0, 3));
        assert!(!improves(1.0, 5, 1.0, 5));
        // Fresh slot is beaten by any finite distance.
        assert!(improves(1e300, 0, f64::INFINITY, usize::MAX));
        // inf == inf in IEEE, so even infinite ties fall through to the
        // index comparison — still a total order, never a cycle.
        assert!(improves(f64::INFINITY, 0, f64::INFINITY, usize::MAX));
        assert!(!improves(
            f64::INFINITY,
            usize::MAX,
            f64::INFINITY,
            usize::MAX
        ));
    }

    #[test]
    fn empty_profile() {
        let p = mp(vec![], 4);
        assert!(p.is_empty());
        assert!(p.discords(2).is_empty());
    }

    #[test]
    fn merge_min_into_takes_pointwise_best() {
        let mut dp = vec![1.0, 5.0, f64::INFINITY];
        let mut di = vec![3, 7, usize::MAX];
        merge_min_into(&mut dp, &mut di, &[2.0, 5.0], &[9, 2]);
        // Entry 0: 1.0 beats 2.0 — kept. Entry 1: tie, smaller index
        // wins. Entry 2: src shorter — untouched.
        assert_eq!(dp, vec![1.0, 5.0, f64::INFINITY]);
        assert_eq!(di, vec![3, 2, usize::MAX]);
        merge_min_into(&mut dp, &mut di, &[0.5, 9.0, 4.0], &[1, 1, 8]);
        assert_eq!(dp, vec![0.5, 5.0, 4.0]);
        assert_eq!(di, vec![1, 2, 8]);
    }

    #[test]
    #[should_panic(expected = "src longer than dst")]
    fn merge_min_into_rejects_longer_src() {
        let mut dp = vec![1.0];
        let mut di = vec![0];
        merge_min_into(&mut dp, &mut di, &[1.0, 2.0], &[0, 1]);
    }
}
