//! # egi — Ensemble Grammar Induction for Time Series Anomaly Detection
//!
//! Facade crate re-exporting the EGI workspace: a from-scratch Rust
//! reproduction of *"Ensemble Grammar Induction For Detecting Anomalies in
//! Time Series"* (Gao, Lin, Brif — EDBT 2020).
//!
//! ## Quick start
//!
//! ```
//! use egi::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Build a labeled test series the way the paper does (Section 7.1.1).
//! let mut rng = StdRng::seed_from_u64(7);
//! let spec = CorpusSpec::paper(UcrFamily::GunPoint);
//! let labeled = spec.generate_one(&mut rng);
//!
//! // Run the ensemble detector with the paper's defaults.
//! let config = EnsembleConfig {
//!     window: labeled.gt_len,
//!     ..EnsembleConfig::default()
//! };
//! let detector = EnsembleDetector::new(config);
//! let report = detector.detect(&labeled.series, 3, 42);
//! assert!(!report.anomalies.is_empty());
//! ```
//!
//! ## Crate map
//!
//! | Module | Source crate | Contents |
//! |--------|--------------|----------|
//! | [`tskit`] | `egi-tskit` | series type, statistics, generators, corpora |
//! | [`sax`] | `egi-sax` | PAA, SAX, numerosity reduction, multi-resolution SAX |
//! | [`sequitur`] | `egi-sequitur` | linear-time grammar induction |
//! | [`core`] | `egi-core` | rule density curves, single & ensemble detectors |
//! | [`discord`] | `egi-discord` | one centered diagonal matrix-profile kernel (diagonal-parallel STOMP, the streaming monitor) |
//! | [`serve`] | `egi-serve` | multi-stream fleet runtime: batched ingest, fair-share refresh over [`StreamSession`](tskit::session::StreamSession) monitors |
//! | [`eval`] | `egi-eval` | metrics and the experiment harness for every table/figure |

pub use egi_core as core;
pub use egi_discord as discord;
pub use egi_eval as eval;
pub use egi_sax as sax;
pub use egi_sequitur as sequitur;
pub use egi_serve as serve;
pub use egi_tskit as tskit;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use egi_core::{
        AnomalyReport, Candidate, EnsembleConfig, EnsembleDetector, GiConfig, MultiWindowConfig,
        MultiWindowEnsemble, RuleDensityCurve, SingleGiDetector,
    };
    pub use egi_discord::{DiscordConfig, DiscordDetector, MatrixProfile};
    pub use egi_sax::{NumerosityReduced, SaxConfig, SaxWord};
    pub use egi_sequitur::{Grammar, Sequitur};
    pub use egi_serve::{Fleet, FleetError};
    pub use egi_tskit::gen::UcrFamily;
    pub use egi_tskit::{CorpusSpec, LabeledSeries, TimeSeries};
}
