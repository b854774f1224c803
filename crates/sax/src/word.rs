//! SAX words and single-subsequence discretization.

use egi_tskit::stats;

use crate::breakpoints::{BreakpointTable, MAX_ALPHABET, MIN_ALPHABET};
use crate::paa::paa_into;

/// The longest SAX word: 25 symbols of 5 bits fill 125 of a
/// [`SaxWord`]'s 128 bits.
pub const MAX_WORD_LEN: usize = 25;

/// Bits per packed symbol: `s + 1 ≤ MAX_ALPHABET = 26` fits in five.
const SYMBOL_BITS: u32 = 5;

/// One symbol group of a packed word.
const GROUP_MASK: u128 = (1 << SYMBOL_BITS) - 1;

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
    /// Panics if `w == 0`, `w > MAX_WORD_LEN` (a word would not pack
    /// into a [`SaxWord`]), or `a` is outside the supported alphabet
    /// range.
    pub fn new(w: usize, a: usize) -> Self {
        assert!(w > 0, "PAA size must be positive");
        assert!(
            w <= MAX_WORD_LEN,
            "PAA size {w} exceeds the longest SAX word ({MAX_WORD_LEN})"
        );
        assert!(
            (MIN_ALPHABET..=MAX_ALPHABET).contains(&a),
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

/// A SAX word: up to [`MAX_WORD_LEN`] symbol indices, each in `0..a`
/// with `a ≤ 26`, packed into one 16-byte `Copy` value.
///
/// Symbol `s` is stored as `s + 1` in a 5-bit group, the first symbol
/// in the most significant occupied group and the last in the lowest
/// five bits. A zero group means "no symbol", so the length needs no
/// field: the groups above the first symbol are zero, and two words are
/// equal (and hash alike) exactly when their symbol sequences are. The
/// value is two `u64` halves rather than one `u128`, so it is 8-byte
/// aligned and a [`Token`](crate::Token) takes 24 bytes, not 32.
///
/// Build one with [`SaxWord::from_symbols`] or `From<Vec<u8>>`;
/// [`SaxWord::to_letters`] renders the conventional `abca`-style form.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaxWord {
    hi: u64,
    lo: u64,
}

impl SaxWord {
    /// Packs `symbols`, first symbol first.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_WORD_LEN`] symbols, or one is
    /// not below `MAX_ALPHABET`.
    pub fn from_symbols(symbols: &[u8]) -> Self {
        assert!(
            symbols.iter().all(|&s| usize::from(s) < MAX_ALPHABET),
            "SAX symbols {symbols:?} outside the alphabet"
        );
        Self::pack(symbols.iter().copied())
    }

    /// Folds `symbols` into a word, first symbol first, with no
    /// allocation. The caller guarantees each symbol is below
    /// `MAX_ALPHABET`, as every breakpoint table's symbols are.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_WORD_LEN`] symbols.
    pub(crate) fn pack(symbols: impl ExactSizeIterator<Item = u8>) -> Self {
        assert!(
            symbols.len() <= MAX_WORD_LEN,
            "SAX word of {} symbols exceeds the longest ({MAX_WORD_LEN})",
            symbols.len()
        );
        let packed = symbols.fold(0u128, |acc, s| (acc << SYMBOL_BITS) | (u128::from(s) + 1));
        Self {
            hi: (packed >> 64) as u64,
            lo: packed as u64,
        }
    }

    fn packed(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// Word length (`w`).
    pub fn len(&self) -> usize {
        (u128::BITS - self.packed().leading_zeros()).div_ceil(SYMBOL_BITS) as usize
    }

    /// `true` for the empty word.
    pub fn is_empty(&self) -> bool {
        self.packed() == 0
    }

    /// Symbol indices, first to last.
    pub fn symbols(&self) -> impl Iterator<Item = u8> {
        let packed = self.packed();
        (0..self.len() as u32)
            .rev()
            .map(move |i| ((packed >> (i * SYMBOL_BITS)) & GROUP_MASK) as u8 - 1)
    }

    /// Renders as lowercase letters, e.g. `abca`.
    pub fn to_letters(&self) -> String {
        self.symbols().map(BreakpointTable::letter).collect()
    }
}

impl From<Vec<u8>> for SaxWord {
    fn from(symbols: Vec<u8>) -> Self {
        Self::from_symbols(&symbols)
    }
}

/// Prints the symbol indices, e.g. `SaxWord([0, 1, 2, 0])`.
impl std::fmt::Debug for SaxWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SaxWord")
            .field(&self.symbols().collect::<Vec<_>>())
            .finish()
    }
}

impl std::fmt::Display for SaxWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_letters())
    }
}

/// Discretizes one subsequence into a SAX word.
///
/// Pipeline (paper Figure 3): z-normalize → PAA(`w`) → breakpoint lookup.
/// `table` must have been built for `config.a`.
///
/// # Panics
///
/// Panics when `config.w > sub.len()`, `config.w > MAX_WORD_LEN` or
/// `table.alphabet() != config.a`.
pub fn sax_word(sub: &[f64], config: SaxConfig, table: &BreakpointTable) -> SaxWord {
    assert_eq!(
        table.alphabet(),
        config.a,
        "breakpoint table alphabet mismatch"
    );
    let mut z = sub.to_vec();
    stats::znormalize(&mut z);
    let mut coeffs = [0.0; MAX_WORD_LEN];
    let coeffs = &mut coeffs[..config.w];
    paa_into(&z, coeffs);
    SaxWord::pack(coeffs.iter().map(|&c| table.symbol(c)))
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
        assert_eq!(word.symbols().collect::<Vec<_>>(), [2, 2, 2, 2]);
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
        let w = SaxWord::from(vec![0, 1, 2, 0]);
        assert_eq!(w.to_letters(), "abca");
        assert_eq!(format!("{w}"), "abca");
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
    }

    #[test]
    fn debug_lists_the_symbol_indices() {
        let w = SaxWord::from(vec![0, 25, 3]);
        assert_eq!(format!("{w:?}"), "SaxWord([0, 25, 3])");
        assert_eq!(format!("{:?}", SaxWord::from_symbols(&[])), "SaxWord([])");
    }

    #[test]
    fn constructors_reject_what_does_not_pack() {
        let packs = |v: Vec<u8>| std::panic::catch_unwind(|| SaxWord::from(v)).is_ok();
        assert!(packs(vec![25; MAX_WORD_LEN]));
        assert!(!packs(vec![0; MAX_WORD_LEN + 1]), "26 symbols packed");
        assert!(!packs(vec![26]), "symbol past the alphabet packed");
        assert!(!packs(vec![255]), "symbol past the alphabet packed");
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
        assert!(builds(MAX_WORD_LEN, MAX_ALPHABET));
        assert!(!builds(MAX_WORD_LEN + 1, 4), "word longer than 25 accepted");
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
            assert!(word.symbols().all(|s| (s as usize) < a));
        }
    }
}
