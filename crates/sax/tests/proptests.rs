//! Property-based tests for the SAX layer.
//!
//! These pin the invariants the detectors rely on: the fast prefix-sum path
//! matches the naive specification, numerosity reduction is lossless about
//! run structure, symbol assignment is consistent across resolutions, and
//! a packed word holds exactly its symbol sequence.

use egi_sax::stream::{discretize_from_stream, PaaStream};
use egi_sax::{
    discretize_series, discretize_series_naive, numerosity_reduce, BreakpointTable, FastSax,
    MultiResBreakpoints, NumerosityReduced, SaxConfig, SaxWord, Token, MAX_WORD_LEN,
};
use egi_tskit::PrefixStats;
use proptest::prelude::*;

/// Splits `data` into the append schedule described by `cuts` (chunk
/// sizes cycle through `cuts`, clamped to what remains; 1-point appends
/// included whenever a cut is 1).
fn append_schedule<'a>(data: &'a [f64], cuts: &[usize]) -> Vec<&'a [f64]> {
    let mut parts = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < data.len() {
        let c = cuts[i % cuts.len()].max(1).min(data.len() - at);
        parts.push(&data[at..at + c]);
        at += c;
        i += 1;
    }
    parts
}

fn series_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, 8..max_len)
}

/// The layout behind the per-token memory: a word is two `u64` halves
/// (8-byte aligned, no heap), so a token is the word plus its offset.
#[test]
fn packed_word_and_token_sizes() {
    assert_eq!(std::mem::size_of::<SaxWord>(), 16);
    assert_eq!(std::mem::size_of::<Token>(), 24);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FastPAA coefficients equal naive z-normalize+PAA coefficients.
    #[test]
    fn fast_paa_matches_naive(data in series_strategy(200), w in 1usize..12, n in 8usize..64) {
        prop_assume!(n <= data.len());
        prop_assume!(w <= n);
        let fast = FastSax::new(&data);
        let mut out = vec![0.0; w];
        for start in [0, (data.len() - n) / 2, data.len() - n] {
            fast.paa_znorm_into(start, n, &mut out);
            let mut z = data[start..start + n].to_vec();
            egi_tskit::stats::znormalize(&mut z);
            let naive = egi_sax::paa(&z, w);
            for (f, nv) in out.iter().zip(&naive) {
                prop_assert!((f - nv).abs() < 1e-6, "start {} coeff {} vs {}", start, f, nv);
            }
        }
    }

    /// Whole-series fast discretization equals the naive specification.
    ///
    /// Words can only differ if a coefficient lands within float error of a
    /// breakpoint; with continuous random data this has probability ~0, and
    /// any persistent failure indicates a real boundary-convention bug.
    #[test]
    fn fast_discretization_matches_naive(
        data in series_strategy(150),
        w in 2usize..8,
        a in 2usize..10,
        n in 10usize..40,
    ) {
        prop_assume!(n <= data.len());
        prop_assume!(w <= n);
        let multi = MultiResBreakpoints::new(10);
        let fast = FastSax::new(&data);
        let cfg = SaxConfig::new(w, a);
        let got = discretize_series(&fast, n, cfg, &multi);
        let expected = discretize_series_naive(&data, n, cfg);
        prop_assert_eq!(got, expected);
    }

    /// Multi-resolution symbol lookup agrees with each single table, and
    /// so does the cell path: the all-alphabet cell of `v`, mapped
    /// through the lookup for `a`, for every supported `a`.
    #[test]
    fn multires_symbols_agree(v in -5.0f64..5.0, amax in 2usize..21) {
        let multi = MultiResBreakpoints::new(amax);
        for a in 2..=amax {
            let table = BreakpointTable::new(a);
            prop_assert_eq!(multi.symbol(v, a), table.symbol(v));
        }
        let all = MultiResBreakpoints::all();
        let cell = usize::from(all.cell(v));
        for a in 2..=26 {
            prop_assert_eq!(all.lookup(a)[cell], BreakpointTable::new(a).symbol(v));
        }
    }

    /// A packed word holds exactly its symbol sequence, for every length
    /// up to `MAX_WORD_LEN` and every alphabet: it gives the symbols and
    /// their count back, renders their letters, and equals (and hashes
    /// with) another word exactly when the sequences are equal. The
    /// other sequence is the same one, a prefix of it, one that differs
    /// only by an extra leading or trailing symbol 0 (`"a"` against
    /// `"aa"`), one with a single symbol changed, or an unrelated one.
    #[test]
    fn packed_word_round_trips_its_symbol_sequence(
        raw in prop::collection::vec(0u8..26, 0..26),
        a in 2u8..27,
        edit in 0usize..6,
        at in 0usize..26,
        unrelated in prop::collection::vec(0u8..26, 0..26),
    ) {
        let v: Vec<u8> = raw.iter().map(|&s| s % a).collect();
        let word = SaxWord::from(v.clone());
        prop_assert_eq!(word.symbols().collect::<Vec<u8>>(), v.clone());
        prop_assert_eq!(word, SaxWord::from_symbols(&v));
        prop_assert_eq!(word.len(), v.len());
        prop_assert_eq!(word.is_empty(), v.is_empty());
        let letters: String = v.iter().map(|&s| char::from(b'a' + s)).collect();
        prop_assert_eq!(word.to_letters(), letters);

        let mut u = match edit {
            0 | 4 => v.clone(),
            1 => v[..at.min(v.len())].to_vec(),
            2 => [&[0], &v[..]].concat(),
            3 => [&v[..], &[0]].concat(),
            _ => unrelated.iter().map(|&s| s % a).collect(),
        };
        if edit == 4 && !u.is_empty() {
            let i = at % u.len();
            u[i] = (u[i] + 1) % a;
        }
        u.truncate(MAX_WORD_LEN);
        let other = SaxWord::from(u.clone());
        prop_assert_eq!(word == other, v == u, "{:?} against {:?}", v, u);
        let distinct: std::collections::HashSet<SaxWord> = [word, other].into_iter().collect();
        prop_assert_eq!(distinct.len() == 1, v == u);
    }

    /// Symbols from a finer alphabet refine (never contradict) the coarse
    /// ordering: if value x < y then symbol(x) <= symbol(y) for every a.
    #[test]
    fn symbols_are_monotone(mut x in -4.0f64..4.0, mut y in -4.0f64..4.0, a in 2usize..15) {
        if x > y {
            std::mem::swap(&mut x, &mut y);
        }
        let table = BreakpointTable::new(a);
        prop_assert!(table.symbol(x) <= table.symbol(y));
    }

    /// Numerosity reduction: reconstructing the full sequence from tokens
    /// and run ranges reproduces the input exactly (the paper's claim that
    /// `S_NR` retains all information).
    #[test]
    fn numerosity_reduction_is_lossless(symbols in prop::collection::vec(0u8..4, 1..80)) {
        let words: Vec<SaxWord> = symbols.iter().map(|&s| SaxWord::from(vec![s])).collect();
        let nr = numerosity_reduce(words.clone(), 4);
        let mut rebuilt = Vec::with_capacity(words.len());
        for i in 0..nr.len() {
            let (s, e) = nr.run_range(i);
            for _ in s..e {
                rebuilt.push(nr.tokens[i].word);
            }
        }
        prop_assert_eq!(rebuilt, words);
    }

    /// Streaming/batch parity, SAX layer: a PAA stream grown through any
    /// randomized append schedule (including 1-point appends) is
    /// bit-identical to the batch stream, and folding its fresh windows
    /// after every append, as the streaming detector does, yields the
    /// token sequence of the naive specification.
    #[test]
    fn incrementally_grown_stream_matches_batch_for_any_schedule(
        data in series_strategy(180),
        cuts in prop::collection::vec(1usize..30, 1..6),
        w in 2usize..8,
        a in 2usize..10,
        n in 8usize..40,
    ) {
        prop_assume!(w <= n);
        let mut stats = PrefixStats::new(&[]);
        let mut grown = PaaStream::empty(n, w);
        let mut online = NumerosityReduced::empty(n);
        for part in append_schedule(&data, &cuts) {
            stats.extend(part);
            grown.extend_from_stats(&stats);
            grown.reduce_into(&mut online, a, grown.count);
        }
        let fast = FastSax::new(&data);
        let batch = PaaStream::new(&fast, n, w);
        prop_assert_eq!(grown.count, batch.count);
        prop_assert_eq!(grown.cells(), batch.cells());
        // Word + numerosity level: the online fold and the whole-stream
        // pass both equal the naive specification.
        let cfg = SaxConfig::new(w, a);
        let naive = discretize_series_naive(&data, n, cfg);
        let from_grown = discretize_from_stream(&grown, cfg, &MultiResBreakpoints::new(10));
        prop_assert_eq!(&online, &naive);
        prop_assert_eq!(from_grown, naive);
    }

    /// Eviction, SAX layer: a stream evicted at any cut, from the
    /// statistics of the surviving suffix, holds exactly the cells of a
    /// fresh stream over that suffix.
    #[test]
    fn evicted_stream_matches_the_fresh_suffix_stream(
        data in series_strategy(180),
        cut_pct in 0usize..=100,
        w in 2usize..8,
        n in 8usize..40,
    ) {
        prop_assume!(w <= n);
        let cut = data.len() * cut_pct / 100;
        let mut stream = PaaStream::new(&FastSax::new(&data), n, w);
        stream.evict_front(cut, &PrefixStats::new(&data[cut..]));
        let fresh = PaaStream::new(&FastSax::new(&data[cut..]), n, w);
        prop_assert_eq!(stream.count, fresh.count);
        prop_assert_eq!(stream.cells(), fresh.cells());
    }

    /// Online numerosity reduction (word-at-a-time fold) equals the
    /// batch reducer for every word sequence.
    #[test]
    fn online_numerosity_fold_matches_batch(
        symbols in prop::collection::vec(0u8..5, 0..120),
        window in 1usize..10,
    ) {
        let words: Vec<SaxWord> = symbols.iter().map(|&s| SaxWord::from(vec![s])).collect();
        let batch = numerosity_reduce(words.clone(), window);
        let mut online = NumerosityReduced::empty(window);
        let mut retained = 0;
        for word in words {
            if online.push_word(word) {
                retained += 1;
            }
        }
        prop_assert_eq!(retained, batch.len());
        prop_assert_eq!(online, batch);
    }

    /// PAA of a constant-shifted/scaled series yields the same SAX word
    /// (offset & amplitude invariance through z-normalization).
    #[test]
    fn sax_word_invariance(
        data in prop::collection::vec(-10.0f64..10.0, 16..64),
        scale in 0.5f64..20.0,
        offset in -100.0f64..100.0,
    ) {
        // Skip near-flat windows where z-normalization degenerates.
        prop_assume!(egi_tskit::stats::stddev(&data) > 1e-3);
        let transformed: Vec<f64> = data.iter().map(|v| v * scale + offset).collect();
        let cfg = SaxConfig::new(4, 5);
        let table = BreakpointTable::new(5);
        let w1 = egi_sax::sax_word(&data, cfg, &table);
        let w2 = egi_sax::sax_word(&transformed, cfg, &table);
        prop_assert_eq!(w1, w2);
    }
}
