//! SAX-word interning.
//!
//! Sequitur operates on integer tokens; the discretizer produces
//! [`SaxWord`]s. Interning assigns consecutive `u32` ids in first-seen
//! order, which keeps the mapping deterministic for a given input (the
//! evaluation harness relies on run-to-run reproducibility).

use egi_sax::{NumerosityReduced, SaxWord};
use rustc_hash::FxHashMap;

/// Interns the words of a numerosity-reduced token sequence: a fold of
/// its words through a fresh [`OnlineInterner`].
///
/// Returns one token id per retained token, in order. Identical words get
/// identical ids; ids are dense starting at 0. The table keys are copies
/// of the packed words, so nothing is cloned onto the heap.
pub fn intern_tokens(nr: &NumerosityReduced) -> Vec<u32> {
    let mut interner = OnlineInterner::new();
    nr.tokens.iter().map(|t| interner.intern(t.word)).collect()
}

/// An interning table that assigns ids one word at a time, as the
/// member refresh of every ensemble member feeds them.
///
/// Ids are dense `u32`s in first-seen order, so feeding the words of a
/// token sequence through [`OnlineInterner::intern`] in order yields
/// exactly the ids [`intern_tokens`] assigns to the whole sequence at
/// once, for every append schedule. The table is keyed by the packed
/// 16-byte word itself under the Fx hash: one hash per lookup and no
/// heap clone of a word.
#[derive(Debug, Clone, Default)]
pub struct OnlineInterner {
    table: FxHashMap<SaxWord, u32>,
}

impl OnlineInterner {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `word`, assigning the next dense id on first sight.
    pub fn intern(&mut self, word: SaxWord) -> u32 {
        let next = self.table.len() as u32;
        *self.table.entry(word).or_insert(next)
    }

    /// Forgets every assignment, reusing the table allocation — the
    /// eviction-replay reset of the streaming detector. Ids are
    /// first-seen-order, so a replay over a token suffix must restart
    /// the numbering to land on the ids a fresh batch run would assign.
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// Number of distinct words seen.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` before any word has been interned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egi_sax::{numerosity_reduce, SaxWord};

    /// The word spelled by lowercase `letters` (`b"ab"` is `[0, 1]`).
    fn word(letters: &[u8]) -> SaxWord {
        SaxWord::from(letters.iter().map(|&c| c - b'a').collect::<Vec<u8>>())
    }

    fn nr_from(words: &[&[u8]]) -> NumerosityReduced {
        numerosity_reduce(words.iter().map(|w| word(w)).collect(), 4)
    }

    #[test]
    fn dense_first_seen_ids() {
        let nr = nr_from(&[b"ab", b"cd", b"ab", b"ee", b"cd"]);
        assert_eq!(intern_tokens(&nr), vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn empty_input() {
        let nr = nr_from(&[]);
        assert!(intern_tokens(&nr).is_empty());
    }

    #[test]
    fn single_word() {
        // Numerosity reduction collapses the run first.
        let nr = nr_from(&[b"xy", b"xy", b"xy"]);
        assert_eq!(intern_tokens(&nr), vec![0]);
    }

    #[test]
    fn deterministic_across_calls() {
        let nr = nr_from(&[b"aa", b"bb", b"aa", b"cc"]);
        assert_eq!(intern_tokens(&nr), intern_tokens(&nr));
    }

    #[test]
    fn online_interner_matches_batch() {
        let nr = nr_from(&[b"ab", b"cd", b"ab", b"ee", b"cd", b"ff", b"ab"]);
        let batch = intern_tokens(&nr);
        let mut online = OnlineInterner::new();
        let incremental: Vec<u32> = nr.tokens.iter().map(|t| online.intern(t.word)).collect();
        assert_eq!(incremental, batch);
        assert_eq!(online.len(), 4);
        assert!(!online.is_empty());
    }

    #[test]
    fn cleared_table_replays_to_the_live_ids() {
        // A checkpoint restore and an eviction replay both rebuild the
        // table by interning the same words again; first-seen order
        // alone must land every word, and the next new one, on the ids
        // the live table holds.
        let nr = nr_from(&[b"ab", b"cd", b"ab", b"ee", b"cd", b"ff", b"ab"]);
        let mut live = OnlineInterner::new();
        let live_ids: Vec<u32> = nr.tokens.iter().map(|t| live.intern(t.word)).collect();
        let mut replay = OnlineInterner::new();
        for letters in [b"zz", b"ee", b"yy"] {
            replay.intern(word(letters));
        }
        replay.clear();
        assert!(replay.is_empty());
        let replay_ids: Vec<u32> = nr.tokens.iter().map(|t| replay.intern(t.word)).collect();
        assert_eq!(replay_ids, live_ids);
        assert_eq!(replay.len(), live.len());
        let next = word(b"qq");
        assert_eq!(replay.intern(next), live.intern(next));
        assert_eq!(replay.intern(next), 4);
    }
}
