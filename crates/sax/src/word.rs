//! SAX words and single-subsequence discretization.

use egi_tskit::stats;

use crate::breakpoints::BreakpointTable;
use crate::paa::paa_into;

/// Discretization parameters: PAA size `w` and alphabet size `a`
/// (the two parameters the paper's ensemble randomizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaxConfig {
    /// Number of PAA segments (word length).
    pub w: usize,
    /// Alphabet size.
    pub a: usize,
}

impl SaxConfig {
    /// Creates a config, validating both parameters.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `a` is outside the supported alphabet range.
    pub fn new(w: usize, a: usize) -> Self {
        assert!(w > 0, "PAA size must be positive");
        assert!(
            (crate::breakpoints::MIN_ALPHABET..=crate::breakpoints::MAX_ALPHABET).contains(&a),
            "alphabet size {a} unsupported"
        );
        Self { w, a }
    }
}

impl std::fmt::Display for SaxConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(w={}, a={})", self.w, self.a)
    }
}

/// A SAX word: `w` symbol indices, each in `0..a`.
///
/// Stored as raw `u8` indices rather than letters; [`SaxWord::to_letters`]
/// renders the conventional `abca`-style form.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SaxWord(pub Vec<u8>);

impl SaxWord {
    /// Word length (`w`).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty word.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Symbol indices.
    pub fn symbols(&self) -> &[u8] {
        &self.0
    }

    /// Renders as lowercase letters, e.g. `abca`.
    pub fn to_letters(&self) -> String {
        self.0.iter().map(|&s| BreakpointTable::letter(s)).collect()
    }
}

impl std::fmt::Display for SaxWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_letters())
    }
}

impl From<Vec<u8>> for SaxWord {
    fn from(symbols: Vec<u8>) -> Self {
        Self(symbols)
    }
}

/// Discretizes one subsequence into a SAX word.
///
/// Pipeline (paper Figure 3): z-normalize → PAA(`w`) → breakpoint lookup.
/// `table` must have been built for `config.a`.
///
/// # Panics
///
/// Panics when `config.w > sub.len()` or `table.alphabet() != config.a`.
pub fn sax_word(sub: &[f64], config: SaxConfig, table: &BreakpointTable) -> SaxWord {
    assert_eq!(
        table.alphabet(),
        config.a,
        "breakpoint table alphabet mismatch"
    );
    let mut z = sub.to_vec();
    stats::znormalize(&mut z);
    let mut coeffs = vec![0.0; config.w];
    paa_into(&z, &mut coeffs);
    SaxWord(coeffs.iter().map(|&c| table.symbol(c)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure3_example_shape() {
        // A subsequence engineered to produce `abca` with w = 4, a = 3:
        // low, mid, high, low segments.
        let sub = [
            -1.0, -1.2, -0.9, -1.1, // 'a'
            0.1, -0.1, 0.0, 0.05, // 'b'
            1.3, 1.1, 1.2, 1.25, // 'c'
            -1.0, -1.1, -0.95, -1.05, // 'a'
        ];
        let cfg = SaxConfig::new(4, 3);
        let table = BreakpointTable::new(3);
        let word = sax_word(&sub, cfg, &table);
        assert_eq!(word.to_letters(), "abca");
    }

    #[test]
    fn flat_subsequence_maps_to_middle_symbols() {
        let sub = [5.0; 16];
        let table = BreakpointTable::new(4);
        let word = sax_word(&sub, SaxConfig::new(4, 4), &table);
        // Flat → z-normalized zeros → region containing 0 (index 2 for a=4).
        assert_eq!(word.symbols(), &[2, 2, 2, 2]);
    }

    #[test]
    fn word_is_amplitude_and_offset_invariant() {
        let base: Vec<f64> = (0..32).map(|i| (i as f64 / 5.0).sin()).collect();
        let shifted: Vec<f64> = base.iter().map(|v| v * 7.0 + 100.0).collect();
        let cfg = SaxConfig::new(8, 5);
        let table = BreakpointTable::new(5);
        assert_eq!(
            sax_word(&base, cfg, &table),
            sax_word(&shifted, cfg, &table)
        );
    }

    #[test]
    fn display_and_letters() {
        let w = SaxWord(vec![0, 1, 2, 0]);
        assert_eq!(w.to_letters(), "abca");
        assert_eq!(format!("{w}"), "abca");
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
    }

    #[test]
    fn config_display() {
        assert_eq!(SaxConfig::new(4, 3).to_string(), "(w=4, a=3)");
    }

    #[test]
    fn config_bounds_are_the_supported_alphabets() {
        use crate::breakpoints::{MAX_ALPHABET, MIN_ALPHABET};
        let builds = |w, a| std::panic::catch_unwind(|| SaxConfig::new(w, a)).is_ok();
        assert!(builds(1, MIN_ALPHABET));
        assert!(builds(64, MAX_ALPHABET));
        assert!(!builds(0, 4), "PAA size 0 accepted");
        assert!(
            !builds(4, MIN_ALPHABET - 1),
            "alphabet below range accepted"
        );
        assert!(
            !builds(4, MAX_ALPHABET + 1),
            "alphabet above range accepted"
        );
    }

    #[test]
    #[should_panic(expected = "alphabet mismatch")]
    fn mismatched_table_panics() {
        let table = BreakpointTable::new(3);
        sax_word(&[1.0, 2.0, 3.0, 4.0], SaxConfig::new(2, 4), &table);
    }

    #[test]
    fn symbols_in_alphabet_range() {
        let sub: Vec<f64> = (0..50).map(|i| ((i * i) as f64).sin() * 3.0).collect();
        for a in 2..=8 {
            let table = BreakpointTable::new(a);
            let word = sax_word(&sub, SaxConfig::new(10, a), &table);
            assert!(word.symbols().iter().all(|&s| (s as usize) < a));
        }
    }
}
