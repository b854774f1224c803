//! Numerosity reduction (paper Section 4.2).
//!
//! Adjacent sliding windows differ by one point, so consecutive SAX words
//! are frequently identical; feeding those runs to grammar induction would
//! flood it with trivial-match rules. Numerosity reduction keeps only the
//! first word of each run together with its window offset, which is enough
//! to reconstruct time-series positions later (the paper's Eq. (2)→(3)
//! example).

use crate::word::SaxWord;

/// One retained token: a SAX word plus the offset (window start) of its
/// first occurrence in the run it represents (24 bytes, no heap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The SAX word.
    pub word: SaxWord,
    /// Start index (in the original series) of the window that produced
    /// the first occurrence of this word in its run.
    pub offset: usize,
}

/// A numerosity-reduced token sequence.
///
/// `end_offset` records one past the start of the *last* window of the
/// underlying pass so that the span of the final token can be recovered
/// (`tokens[i]` covers window starts `tokens[i].offset ..` the next token's
/// offset, and the last token runs to `end_offset`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumerosityReduced {
    /// The retained tokens in order.
    pub tokens: Vec<Token>,
    /// One past the last window start that was examined (i.e. the number
    /// of sliding windows in the pass).
    pub end_offset: usize,
    /// The sliding-window length the tokens were generated with.
    pub window: usize,
}

impl NumerosityReduced {
    /// An empty sequence (no windows examined yet) for online building
    /// via [`NumerosityReduced::push_word`].
    pub fn empty(window: usize) -> Self {
        Self {
            tokens: Vec::new(),
            end_offset: 0,
            window,
        }
    }

    /// Feeds the SAX word of the next sliding window (offsets are
    /// assigned consecutively). Returns `true` when the word opened a
    /// new run and was retained as a token, `false` when it extended
    /// the current run (and was dropped).
    ///
    /// Folding a word sequence through `push_word` is exactly
    /// [`numerosity_reduce`] — the batch function is implemented as
    /// this fold. The detectors fold PAA streams through
    /// [`PaaStream::reduce_into`](crate::stream::PaaStream::reduce_into),
    /// the same fold over each window's packed word.
    pub fn push_word(&mut self, word: SaxWord) -> bool {
        let offset = self.end_offset;
        self.end_offset += 1;
        match self.tokens.last() {
            Some(last) if last.word == word => false,
            _ => {
                self.tokens.push(Token { word, offset });
                true
            }
        }
    }

    /// Retires every token — the wholesale reset used by the streaming
    /// detector's eviction replay (allocation-reusing; `window` is
    /// kept).
    pub fn clear(&mut self) {
        self.tokens.clear();
        self.end_offset = 0;
    }

    /// Number of retained tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` when no tokens were retained.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The half-open range of window starts that token `i` stands for:
    /// `[tokens[i].offset, tokens[i+1].offset)` (or `end_offset` for the
    /// last token).
    pub fn run_range(&self, i: usize) -> (usize, usize) {
        let start = self.tokens[i].offset;
        let end = self
            .tokens
            .get(i + 1)
            .map(|t| t.offset)
            .unwrap_or(self.end_offset);
        (start, end)
    }

    /// The time-series interval covered by token `i`'s run:
    /// window starts in `run_range` each cover `window` points, so the
    /// union is `[run_start, run_end − 1 + window)`.
    pub fn series_span(&self, i: usize) -> (usize, usize) {
        let (s, e) = self.run_range(i);
        (s, e - 1 + self.window)
    }
}

/// Collapses runs of identical consecutive words.
///
/// `words` is the full sliding-window word sequence; `window` the window
/// length it was produced with. Offsets in the output refer to positions in
/// `words` (= window start positions).
pub fn numerosity_reduce(words: Vec<SaxWord>, window: usize) -> NumerosityReduced {
    let mut nr = NumerosityReduced::empty(window);
    for word in words {
        nr.push_word(word);
    }
    nr
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word spelled by lowercase `letters` (`b"ba"` is `[1, 0]`).
    fn w(letters: &[u8]) -> SaxWord {
        SaxWord::from(letters.iter().map(|&c| c - b'a').collect::<Vec<u8>>())
    }

    #[test]
    fn paper_example_eq2_to_eq3() {
        // S = ba,ba,ba,dc,dc,aa,ac,ac  →  ba1,dc4,aa6,ac7 (1-based in the
        // paper; 0-based here: ba0,dc3,aa5,ac6).
        let words = vec![
            w(b"ba"),
            w(b"ba"),
            w(b"ba"),
            w(b"dc"),
            w(b"dc"),
            w(b"aa"),
            w(b"ac"),
            w(b"ac"),
        ];
        let nr = numerosity_reduce(words, 4);
        let got: Vec<(String, usize)> = nr
            .tokens
            .iter()
            .map(|t| (t.word.to_letters(), t.offset))
            .collect();
        assert_eq!(
            got,
            vec![
                ("ba".into(), 0),
                ("dc".into(), 3),
                ("aa".into(), 5),
                ("ac".into(), 6)
            ]
        );
        assert_eq!(nr.end_offset, 8);
    }

    #[test]
    fn no_adjacent_duplicates_remain() {
        let words = vec![w(b"aa"), w(b"aa"), w(b"bb"), w(b"aa"), w(b"aa")];
        let nr = numerosity_reduce(words, 2);
        for pair in nr.tokens.windows(2) {
            assert_ne!(pair[0].word, pair[1].word);
        }
        // Non-adjacent repeats are preserved.
        assert_eq!(nr.len(), 3);
    }

    #[test]
    fn all_identical_collapses_to_one() {
        let words = vec![w(b"zz"); 10];
        let nr = numerosity_reduce(words, 3);
        assert_eq!(nr.len(), 1);
        assert_eq!(nr.tokens[0].offset, 0);
        assert_eq!(nr.run_range(0), (0, 10));
        assert_eq!(nr.series_span(0), (0, 12)); // 9 + 3
    }

    #[test]
    fn all_distinct_keeps_everything() {
        let words: Vec<SaxWord> = (0..5u8).map(|i| SaxWord::from(vec![i])).collect();
        let nr = numerosity_reduce(words, 1);
        assert_eq!(nr.len(), 5);
        for (i, t) in nr.tokens.iter().enumerate() {
            assert_eq!(t.offset, i);
        }
    }

    #[test]
    fn run_ranges_partition_input() {
        let words = vec![w(b"a"), w(b"a"), w(b"b"), w(b"c"), w(b"c"), w(b"c")];
        let nr = numerosity_reduce(words, 2);
        let mut covered = 0;
        for i in 0..nr.len() {
            let (s, e) = nr.run_range(i);
            assert_eq!(s, covered);
            covered = e;
        }
        assert_eq!(covered, nr.end_offset);
    }

    #[test]
    fn empty_input() {
        let nr = numerosity_reduce(Vec::new(), 4);
        assert!(nr.is_empty());
        assert_eq!(nr.end_offset, 0);
    }

    #[test]
    fn push_word_reports_retention() {
        let mut nr = NumerosityReduced::empty(3);
        assert!(nr.push_word(w(b"aa")));
        assert!(!nr.push_word(w(b"aa"))); // run continues
        assert!(nr.push_word(w(b"bb")));
        assert!(nr.push_word(w(b"aa"))); // non-adjacent repeat retained
        assert_eq!(nr.len(), 3);
        assert_eq!(nr.end_offset, 4);
        assert_eq!(nr.tokens[1].offset, 2);
    }

    #[test]
    fn clear_resets_for_replay() {
        let mut nr = numerosity_reduce(vec![w(b"a"), w(b"b"), w(b"b")], 3);
        nr.clear();
        assert!(nr.is_empty());
        assert_eq!(nr.end_offset, 0);
        assert!(nr.push_word(w(b"c")));
        assert_eq!(nr.tokens[0].offset, 0);
    }

    #[test]
    fn online_fold_equals_batch_reduce() {
        let words = vec![w(b"x"), w(b"x"), w(b"y"), w(b"z"), w(b"z"), w(b"x")];
        let batch = numerosity_reduce(words.clone(), 5);
        let mut online = NumerosityReduced::empty(5);
        for word in words {
            online.push_word(word);
        }
        assert_eq!(online, batch);
    }

    #[test]
    fn token_invariants_hold_under_push_and_retire() {
        // The shape every consumer of a token sequence relies on: the
        // first run starts at window 0, offsets strictly increase below
        // end_offset, and adjacent tokens carry different words.
        let mut nr = NumerosityReduced::empty(4);
        let mut state = 7u64;
        for step in 0..600 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize;
            if pick.is_multiple_of(9) {
                nr.clear();
            } else {
                nr.push_word(SaxWord::from(vec![(pick % 3) as u8]));
            }
            if let Some(first) = nr.tokens.first() {
                assert_eq!(first.offset, 0, "step {step}");
            }
            for pair in nr.tokens.windows(2) {
                assert!(pair[0].offset < pair[1].offset, "step {step}");
                assert_ne!(pair[0].word, pair[1].word, "step {step}");
            }
            if let Some(last) = nr.tokens.last() {
                assert!(last.offset < nr.end_offset, "step {step}");
            }
        }
        assert!(!nr.is_empty());
    }
}
