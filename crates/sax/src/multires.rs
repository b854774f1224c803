//! Multi-resolution SAX symbol lookup (paper Section 6.2.2, Figure 6).
//!
//! The ensemble repeatedly discretizes the same subsequence under many
//! alphabet sizes. Rather than one breakpoint search per alphabet, we merge
//! the breakpoints of *all* alphabet sizes `2..=amax` into one sorted list.
//! The merged cuts partition the real line into intervals ("cells"); for
//! each cell we precompute the symbol it maps to under every alphabet size
//! (the paper's "symbol matrix", stored one row per alphabet). A single
//! binary search (`O(log Σ(a−1)) = O(log amax²) = O(2 log amax)`,
//! matching the paper's bound) then yields the symbol at every resolution
//! simultaneously.
//!
//! **Why a cell fixes every symbol exactly.** Merged cuts are deduplicated
//! only when they are equal, and equal fractions `i/a = j/b` round to the
//! same `f64` and so give bit-equal probits. Every alphabet's cuts
//! therefore survive the merge unchanged, the merged partition refines
//! each alphabet's partition, and the count of an alphabet's cuts `≤ v`
//! (its symbol for `v`) is the same for every `v` in one cell — NaN and
//! ±∞ included, which land in the end cells as they land in the end
//! symbols of [`BreakpointTable::symbol`]. The all-alphabet table
//! ([`MultiResBreakpoints::all`], 211 cuts and 212 cells at
//! `amax = MAX_ALPHABET`) is what [`PaaStream`](crate::stream::PaaStream)
//! searches once per coefficient; every member then maps the stored cell
//! through the per-alphabet [`lookup`](MultiResBreakpoints::lookup) table
//! instead of searching again.

use std::sync::OnceLock;

use crate::breakpoints::{BreakpointTable, MAX_ALPHABET, MIN_ALPHABET};

/// Merged breakpoints of all alphabet sizes `2..=amax` plus the
/// precomputed symbol matrix.
#[derive(Debug, Clone)]
pub struct MultiResBreakpoints {
    amax: usize,
    /// Distinct breakpoints, ascending; cell `i` covers
    /// `[merged[i-1], merged[i])` with the usual ±∞ ends.
    merged: Vec<f64>,
    /// The symbol matrix by rows: `lookups[a - 2][cell]` is the symbol of
    /// `cell` under alphabet size `a`.
    lookups: Vec<Vec<u8>>,
}

impl MultiResBreakpoints {
    /// Builds the merged table for alphabet sizes `2..=amax`.
    ///
    /// # Panics
    ///
    /// Panics unless `MIN_ALPHABET ≤ amax ≤ MAX_ALPHABET`.
    pub fn new(amax: usize) -> Self {
        assert!(
            (MIN_ALPHABET..=MAX_ALPHABET).contains(&amax),
            "amax {amax} outside [{MIN_ALPHABET}, {MAX_ALPHABET}]"
        );
        let tables: Vec<BreakpointTable> =
            (MIN_ALPHABET..=amax).map(BreakpointTable::new).collect();

        let mut merged: Vec<f64> = tables
            .iter()
            .flat_map(|t| t.cuts().iter().copied())
            .collect();
        merged.sort_by(|x, y| x.partial_cmp(y).expect("breakpoints are finite"));
        // Exact dedup only: a cut dropped as "close enough" would leave its
        // alphabet's partition unrefined (see the module docs).
        merged.dedup();
        assert!(
            merged.len() <= usize::from(u8::MAX),
            "cell indices must fit a u8"
        );

        // Representative value inside each interval → symbol per alphabet.
        let reps: Vec<f64> = (0..=merged.len())
            .map(|i| interval_representative(&merged, i))
            .collect();
        let lookups = tables
            .iter()
            .map(|t| reps.iter().map(|&rep| t.symbol(rep)).collect())
            .collect();

        Self {
            amax,
            merged,
            lookups,
        }
    }

    /// The table for every supported alphabet size
    /// (`amax = MAX_ALPHABET`), built once per process.
    pub fn all() -> &'static Self {
        static ALL: OnceLock<MultiResBreakpoints> = OnceLock::new();
        ALL.get_or_init(|| Self::new(MAX_ALPHABET))
    }

    /// Largest alphabet size covered.
    pub fn amax(&self) -> usize {
        self.amax
    }

    /// Number of merged intervals (`distinct breakpoints + 1`).
    pub fn interval_count(&self) -> usize {
        self.merged.len() + 1
    }

    /// The distinct merged breakpoints.
    pub fn merged_cuts(&self) -> &[f64] {
        &self.merged
    }

    /// Index of the cell (merged interval) containing `value`: the number
    /// of merged cuts `≤ value`, so NaN lands in cell 0.
    ///
    /// One binary search over the merged cuts — this is the whole point of
    /// the structure.
    #[inline]
    pub fn cell(&self, value: f64) -> u8 {
        // `new` keeps the cut count within u8 (211 at MAX_ALPHABET).
        self.merged.partition_point(|&c| c <= value) as u8
    }

    /// The symbol of every cell under alphabet size `a`, indexed by
    /// [`cell`](Self::cell).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ a ≤ amax`.
    #[inline]
    pub fn lookup(&self, a: usize) -> &[u8] {
        assert!(
            (MIN_ALPHABET..=self.amax).contains(&a),
            "alphabet {a} outside [{MIN_ALPHABET}, {}]",
            self.amax
        );
        &self.lookups[a - MIN_ALPHABET]
    }

    /// Symbol of `value` under alphabet size `a` (`2 ≤ a ≤ amax`).
    #[inline]
    pub fn symbol(&self, value: f64, a: usize) -> u8 {
        self.lookup(a)[usize::from(self.cell(value))]
    }
}

/// A point strictly inside interval `i` of the partition induced by `cuts`.
fn interval_representative(cuts: &[f64], i: usize) -> f64 {
    if cuts.is_empty() {
        return 0.0;
    }
    if i == 0 {
        cuts[0] - 1.0
    } else if i == cuts.len() {
        cuts[cuts.len() - 1] + 1.0
    } else {
        // Midpoint; adjacent cuts are distinct after dedup. If they are
        // pathologically close, nudge toward the lower bound, which is the
        // closed end of the interval.
        let lo = cuts[i - 1];
        let hi = cuts[i];
        let mid = 0.5 * (lo + hi);
        if mid > lo {
            mid
        } else {
            lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure6_interval_count() {
        // a from 2 to 4: cuts {0} ∪ {±0.43} ∪ {−0.67, 0, 0.67} → 6 distinct
        // breakpoints? No: {0, −0.4307, 0.4307, −0.6745, 0, 0.6745} → 5
        // distinct values → 6 intervals, matching Figure 6.
        let m = MultiResBreakpoints::new(4);
        assert_eq!(m.merged_cuts().len(), 5);
        assert_eq!(m.interval_count(), 6);
    }

    #[test]
    fn figure6_symbol_sequences() {
        let m = MultiResBreakpoints::new(4);
        let column = |v: f64| (2..=4).map(|a| m.symbol(v, a)).collect::<Vec<u8>>();
        // PAA value −1.0 lies in (−∞, −0.6745): column "aaa" (a per res).
        assert_eq!(column(-1.0), vec![0, 0, 0]);
        // PAA value −0.2 lies in (−0.43, 0]: a=2 → 'a', a=3 → 'b', a=4 → 'b'
        // (paper's yellow dot example "abb").
        assert_eq!(column(-0.2), vec![0, 1, 1]);
        // PAA value 1.0 lies in (0.6745, ∞): a=2 → 'b', a=3 → 'c', a=4 → 'd'
        // ("bcd" in the paper).
        assert_eq!(column(1.0), vec![1, 2, 3]);
    }

    #[test]
    fn agrees_with_single_resolution_tables_everywhere() {
        let amax = 12;
        let m = MultiResBreakpoints::new(amax);
        let tables: Vec<BreakpointTable> = (2..=amax).map(BreakpointTable::new).collect();
        for i in -500..=500 {
            let v = i as f64 / 100.0;
            for t in &tables {
                assert_eq!(
                    m.symbol(v, t.alphabet()),
                    t.symbol(v),
                    "disagreement at v={v} a={}",
                    t.alphabet()
                );
            }
        }
    }

    #[test]
    fn agrees_exactly_on_breakpoints() {
        // Boundary values are where merged-table bugs live.
        let amax = 10;
        let m = MultiResBreakpoints::new(amax);
        for a in 2..=amax {
            let t = BreakpointTable::new(a);
            for &cut in t.cuts() {
                assert_eq!(m.symbol(cut, a), t.symbol(cut), "on-cut v={cut} a={a}");
                let below = cut - 1e-9;
                assert_eq!(
                    m.symbol(below, a),
                    t.symbol(below),
                    "below-cut v={below} a={a}"
                );
            }
        }
    }

    #[test]
    fn all_alphabet_cells_fix_every_symbol_at_the_edges() {
        // Every cut of every alphabet, both float neighbours of each, the
        // signed zeros, the infinities and NaN: the values where a merged
        // cut that refined no partition, or a cell off by one, would show.
        let all = MultiResBreakpoints::all();
        assert_eq!(all.merged_cuts().len(), 211);
        assert_eq!(all.interval_count(), 212);
        let mut values = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for &cut in all.merged_cuts() {
            values.extend([cut, cut.next_up(), cut.next_down()]);
        }
        for a in MIN_ALPHABET..=MAX_ALPHABET {
            let table = BreakpointTable::new(a);
            let lookup = all.lookup(a);
            for &v in &values {
                let cell = usize::from(all.cell(v));
                assert_eq!(lookup[cell], table.symbol(v), "v={v:e} a={a}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "alphabet 11 outside")]
    fn lookup_rejects_alphabet_above_amax() {
        MultiResBreakpoints::new(10).lookup(11);
    }

    #[test]
    fn amax_two_has_single_cut() {
        let m = MultiResBreakpoints::new(2);
        assert_eq!(m.merged_cuts().len(), 1);
        assert_eq!(m.symbol(-0.5, 2), 0);
        assert_eq!(m.symbol(0.5, 2), 1);
    }

    #[test]
    fn merged_cuts_sorted_strictly() {
        let m = MultiResBreakpoints::new(20);
        for w in m.merged_cuts().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "amax")]
    fn rejects_amax_one() {
        MultiResBreakpoints::new(1);
    }
}
