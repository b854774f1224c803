//! MINDIST — the classic SAX lower-bounding distance (Lin et al. 2007,
//! the paper's reference \[12\]).
//!
//! `MINDIST(Q̂, Ĉ) = √(n/w) · √(Σ_i cell(q_i, c_i)²)` where `cell(r, c)` is
//! the gap between the breakpoint regions of two symbols (zero for
//! adjacent or equal symbols). Its defining property — proved in the SAX
//! paper and pinned by our property tests — is that it *lower-bounds* the
//! Euclidean distance between the original z-normalized subsequences,
//! which is what makes SAX indexable. The anomaly pipeline itself does not
//! need MINDIST, but any downstream user of a SAX library (similarity
//! search, HOTSAX variants, iSAX-style indexing) does.

use crate::breakpoints::BreakpointTable;
use crate::word::SaxWord;

/// Precomputed symbol-pair distance table for one alphabet size.
///
/// `cell(r, c) = 0` when `|r − c| ≤ 1`, otherwise the gap between the
/// closer breakpoints: `β_{max(r,c)−1} − β_{min(r,c)}`.
#[derive(Debug, Clone)]
pub struct MindistTable {
    alphabet: usize,
    /// Row-major `alphabet × alphabet` cell distances.
    cells: Vec<f64>,
}

impl MindistTable {
    /// Builds the cell table for alphabet size `a`.
    pub fn new(a: usize) -> Self {
        let table = BreakpointTable::new(a);
        let cuts = table.cuts();
        let mut cells = vec![0.0; a * a];
        for r in 0..a {
            for c in 0..a {
                if r.abs_diff(c) > 1 {
                    let (lo, hi) = (r.min(c), r.max(c));
                    cells[r * a + c] = cuts[hi - 1] - cuts[lo];
                }
            }
        }
        Self { alphabet: a, cells }
    }

    /// Alphabet size of the table.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Cell distance between two symbols.
    #[inline]
    pub fn cell(&self, r: u8, c: u8) -> f64 {
        self.cells[r as usize * self.alphabet + c as usize]
    }

    /// MINDIST between two SAX words of equal length from this alphabet,
    /// for original subsequence length `n`.
    ///
    /// # Panics
    ///
    /// Panics when the words differ in length or are empty.
    pub fn mindist(&self, q: &SaxWord, c: &SaxWord, n: usize) -> f64 {
        assert_eq!(q.len(), c.len(), "word length mismatch");
        assert!(!q.is_empty(), "empty SAX words");
        let w = q.len();
        let sum: f64 = q
            .symbols()
            .zip(c.symbols())
            .map(|(a, b)| {
                let d = self.cell(a, b);
                d * d
            })
            .sum();
        ((n as f64) / (w as f64)).sqrt() * sum.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::{sax_word, SaxConfig};

    #[test]
    fn adjacent_symbols_cost_zero() {
        let t = MindistTable::new(4);
        for r in 0..4u8 {
            for c in 0..4u8 {
                if r.abs_diff(c) <= 1 {
                    assert_eq!(t.cell(r, c), 0.0, "cell({r},{c})");
                } else {
                    assert!(t.cell(r, c) > 0.0, "cell({r},{c})");
                }
            }
        }
    }

    #[test]
    fn cell_table_is_symmetric() {
        let t = MindistTable::new(8);
        for r in 0..8u8 {
            for c in 0..8u8 {
                assert_eq!(t.cell(r, c), t.cell(c, r));
            }
        }
    }

    #[test]
    fn known_cell_value_a4() {
        // a = 4: cuts ±0.6745, 0. cell(0, 2) = β_1 − β_0 = 0 − (−0.6745).
        let t = MindistTable::new(4);
        assert!((t.cell(0, 2) - 0.6745).abs() < 1e-3);
        assert!((t.cell(0, 3) - 2.0 * 0.6745).abs() < 1e-3);
    }

    #[test]
    fn identical_words_have_zero_mindist() {
        let t = MindistTable::new(5);
        let w = SaxWord::from(vec![0, 2, 4, 1]);
        assert_eq!(t.mindist(&w, &w, 64), 0.0);
    }

    /// The lower-bounding property on deterministic subsequences.
    #[test]
    fn mindist_lower_bounds_euclidean() {
        let cfg = SaxConfig::new(8, 6);
        let table = BreakpointTable::new(6);
        let mt = MindistTable::new(6);
        let n = 64;
        let make = |f: f64, phase: f64| -> Vec<f64> {
            (0..n).map(|i| (i as f64 * f + phase).sin() * 2.0).collect()
        };
        let series_a = make(0.2, 0.0);
        for &(f, p) in &[(0.2, 1.0), (0.5, 0.0), (0.05, 2.0), (0.9, 0.5)] {
            let series_b = make(f, p);
            // True Euclidean distance between z-normalized versions.
            let mut za = series_a.clone();
            let mut zb = series_b.clone();
            egi_tskit::stats::znormalize(&mut za);
            egi_tskit::stats::znormalize(&mut zb);
            let euclid: f64 = za
                .iter()
                .zip(&zb)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            let wa = sax_word(&series_a, cfg, &table);
            let wb = sax_word(&series_b, cfg, &table);
            let lb = mt.mindist(&wa, &wb, n);
            assert!(
                lb <= euclid + 1e-9,
                "MINDIST {lb} exceeds Euclidean {euclid} (f={f}, p={p})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_words_panic() {
        let t = MindistTable::new(4);
        t.mindist(
            &SaxWord::from(vec![0, 1]),
            &SaxWord::from(vec![0, 1, 2]),
            16,
        );
    }
}
