//! # egi-core — grammar-induction anomaly detection
//!
//! The paper's contribution, layered on the substrates:
//!
//! * [`intern`] — SAX-word interning into the `u32` tokens Sequitur eats.
//! * [`density`] — the **rule density curve** (Section 5.2): a meta time
//!   series counting, for every point of the input, how many grammar-rule
//!   occurrences cover it. Anomalies are its minima.
//! * [`detector`] — candidate extraction: lowest-mean-density,
//!   non-overlapping top-k windows.
//! * [`single`] — the single-run GrammarViz-style detector
//!   (discretize → Sequitur → density → rank), the engine behind the
//!   GI-Fix / GI-Random / GI-Select baselines.
//! * [`ensemble`] — **Algorithm 1**: N randomized `(w, a)` runs, standard
//!   deviation filtering (keep top τ·N curves), max-normalization, and
//!   point-wise median combination. Members sharing a PAA size share one
//!   PAA stream and run on rayon workers, collected in member order.
//! * [`streaming`] — **online ensemble grammar induction**:
//!   [`StreamingEnsembleDetector`] appends live traffic, refreshes
//!   members under wall-clock [`Deadline`](egi_tskit::Deadline)
//!   budgets, and finishes bit-identical to batch
//!   [`EnsembleDetector::detect`]. Its member refresh is the one member
//!   pipeline: batch detection runs each member through it from an
//!   empty engine.
//! * [`select`] — the GI-Select parameter-search baseline (Section 7.1.3).
//! * [`multiwindow`] — an extension beyond the paper: ensemble over
//!   several sliding-window lengths, reporting variable-length anomalies.
//!
//! # Examples
//!
//! Run the paper's ensemble detector on a sine train with one
//! corrupted beat (sizes kept small so this doubles as a doctest):
//!
//! ```
//! use egi_core::{EnsembleConfig, EnsembleDetector};
//!
//! let mut series: Vec<f64> = (0..600).map(|i| (i as f64 * 0.2).sin()).collect();
//! for (k, v) in series[400..430].iter_mut().enumerate() {
//!     *v = 1.5 + (k as f64 * 1.3).cos(); // anomalous shape
//! }
//! let detector = EnsembleDetector::new(EnsembleConfig {
//!     window: 40,
//!     ensemble_size: 12,
//!     ..EnsembleConfig::default()
//! });
//! let report = detector.detect(&series, 1, /* seed */ 7);
//! let top = &report.anomalies[0];
//! assert!(top.start >= 360 && top.start <= 440, "found {}", top.start);
//! // Same seed, same report, whatever the rayon worker count.
//! assert_eq!(report, detector.detect(&series, 1, 7));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod density;
pub mod detector;
pub mod ensemble;
pub mod intern;
pub mod multiwindow;
pub mod select;
pub mod session;
pub mod single;
pub mod streaming;

pub use density::RuleDensityCurve;
pub use detector::{rank_anomalies, AnomalyReport, Candidate};
pub use ensemble::{Combiner, EnsembleConfig, EnsembleDetector, MemberDiagnostics};
pub use intern::{intern_tokens, OnlineInterner};
pub use multiwindow::{MultiWindowConfig, MultiWindowEnsemble};
pub use select::select_parameters;
pub use single::{GiConfig, SingleGiDetector};
pub use streaming::StreamingEnsembleDetector;

/// The shared eviction error of both streaming subsystems, re-exported
/// from [`egi_tskit::evict`] for callers of
/// [`StreamingEnsembleDetector::evict`] /
/// [`StreamingEnsembleDetector::retain_last`].
pub use egi_tskit::EvictError;
