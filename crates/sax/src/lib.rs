//! # egi-sax — Symbolic Aggregate approXimation
//!
//! Discretization layer of the grammar-induction pipeline (paper Section 4
//! and Section 6.2):
//!
//! * [`mod@paa`] — Piecewise Aggregate Approximation of (z-normalized)
//!   subsequences, plus the prefix-sum **FastPAA** of Algorithm 2.
//! * [`breakpoints`] — Gaussian equiprobable breakpoint tables for any
//!   alphabet size, computed from the inverse normal CDF.
//! * [`word`] — [`SaxWord`], a word packed into one 16-byte `Copy`
//!   value (at most [`MAX_WORD_LEN`] symbols), and single-subsequence
//!   discretization.
//! * [`discretize`] — whole-series discretization via a sliding window.
//! * [`numerosity`] — numerosity reduction: collapse runs of identical
//!   consecutive words, keeping the first offset (Section 4.2).
//! * [`multires`] — the multi-resolution symbol matrix of Section 6.2:
//!   one binary search per PAA coefficient finds its cell in the merged
//!   breakpoint table, and the cell yields its symbol under *every*
//!   alphabet size at once.
//! * [`stream`] — shared PAA cell streams: compute each `(n, w)`
//!   stream's PAA coefficients once and keep only their cells, reuse
//!   them for every alphabet (the ensemble's PAA deduplication), and
//!   numerosity-reduce any alphabet by cell lookup
//!   ([`PaaStream::reduce_into`]); streams also grow incrementally
//!   ([`PaaStream::extend_from_stats`]) for the streaming detector,
//!   bit-identical to the batch build.
//!
//! The naive and fast paths are intentionally both kept public: the naive
//! implementations are the executable specification, the fast ones are what
//! the detectors run, and the test suites (unit + property) pin them to
//! agree exactly.
//!
//! # Examples
//!
//! Discretize one subsequence into a SAX word (`w = 4` PAA segments,
//! alphabet size `a = 3`):
//!
//! ```
//! use egi_sax::{sax_word, BreakpointTable, SaxConfig};
//!
//! let sub: Vec<f64> = (0..32).map(|i| (i as f64 * 0.5).sin()).collect();
//! let config = SaxConfig::new(4, 3);
//! let table = BreakpointTable::new(config.a);
//! let word = sax_word(&sub, config, &table);
//! assert_eq!(word.len(), 4);
//! // Symbols render as lowercase letters, 'a' for the lowest region.
//! assert!(word.to_letters().chars().all(|c| ('a'..='c').contains(&c)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod breakpoints;
pub mod discretize;
pub mod multires;
pub mod numerosity;
pub mod paa;
pub mod stream;
pub mod word;

pub use breakpoints::BreakpointTable;
pub use discretize::{discretize_series, discretize_series_naive, paa_znorm_from_stats, FastSax};
pub use multires::MultiResBreakpoints;
pub use numerosity::{numerosity_reduce, NumerosityReduced, Token};
pub use paa::{paa, paa_into};
pub use stream::{discretize_from_stream, PaaStream};
pub use word::{sax_word, SaxConfig, SaxWord, MAX_WORD_LEN};
