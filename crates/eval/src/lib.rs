//! # egi-eval — experiment harness
//!
//! Reproduces every table and figure of the paper's Section 7 on the
//! synthetic stand-in corpora of `egi_tskit::gen`, whose module docs give
//! each stand-in's rationale (the paper's datasets cannot be
//! redistributed):
//!
//! | Module | Reproduces |
//! |--------|------------|
//! | [`metrics`] | Score (Eq. 5), HitRate, wins/ties/losses |
//! | [`runner`] | the five compared methods on one labeled series |
//! | [`table45`] | Tables 4–6 and the Figure 10 scatter data |
//! | [`sweeps`] | Tables 7–14 (ranges, N, τ, window length) |
//! | [`scalability`] | Figure 8 (runtime vs. length, vs. STOMP) |
//! | [`fig1`] | Figure 1 (parameter-sensitivity motivation) |
//! | [`multi`] | Section 7.5 (multiple anomalies) |
//! | [`report`] | markdown/JSON rendering of results |
//!
//! The `experiments` binary drives everything:
//! `cargo run --release -p egi-eval --bin experiments -- all --quick`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fig1;
pub mod metrics;
pub mod multi;
pub mod report;
pub mod runner;
pub mod scalability;
pub mod sweeps;
pub mod table45;

pub use metrics::{best_score, hit, score, Wtl};
pub use runner::{Baseline, EnsembleParams, ExperimentParams};
