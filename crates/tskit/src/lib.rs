//! # egi-tskit — time series substrate
//!
//! Foundation crate for the EGI (Ensemble Grammar Induction) workspace. It
//! provides:
//!
//! * [`TimeSeries`] — an owned, ordered sequence of `f64` observations with
//!   convenience constructors and statistics.
//! * [`stats`] — prefix-sum statistics (the `ESum_x`, `ESum_xx` vectors of
//!   the paper's Algorithm 2) enabling O(1) mean/stddev of any subsequence,
//!   plus z-normalization utilities.
//! * [`window`] — sliding-window subsequence extraction.
//! * [`config`] — [`ConfigError`], the typed rejection every detector
//!   configuration's `validate` returns for an out-of-range field.
//! * [`deadline`] — the shared [`Deadline`] stopping condition for the
//!   workspace's budgeted streaming refresh loops (discord monitor,
//!   streaming ensemble detector).
//! * [`evict`] — the shared sliding-window eviction contract
//!   ([`EvictError`] + the boundary rule) both streaming subsystems
//!   apply when retiring old points.
//! * [`session`] — the [`StreamSession`] trait every online monitor
//!   implements (append/step/evict lifecycle, budgeted drivers
//!   provided once over `step`) plus the [`StreamClock`]
//!   epoch/offset/retention bookkeeping; the contract the `egi-serve`
//!   fleet runtime schedules against.
//! * [`gen`] — synthetic data generators: random walks, periodic signals,
//!   ECG/EEG-like traces, appliance power-usage cycles, and six UCR-style
//!   dataset families used by the paper's evaluation (Section 7.1.1).
//! * [`corpus`] — assembly of labeled evaluation corpora following the
//!   paper's protocol (concatenate 20 normal instances, plant one anomalous
//!   instance at a random position in `[40%, 80%]` of the series).
//! * [`io`] — minimal CSV reading/writing for series interchange.
//! * [`checkpoint`] — the versioned snapshot/restore substrate: the
//!   [`Checkpoint`] trait every streaming session implements, the
//!   length-prefixed checksummed container format, and the typed
//!   [`CheckpointError`] every malformed input maps to. A restored
//!   session replays the remainder of any schedule bit-identically to
//!   the uninterrupted original.
//!
//! Everything is dependency-light (only `rand`) and deterministic when
//! seeded, which the evaluation harness relies on for reproducibility.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod config;
pub mod corpus;
pub mod deadline;
pub mod evict;
pub mod gen;
pub mod io;
pub mod series;
pub mod session;
pub mod stats;
pub mod window;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::ConfigError;
pub use corpus::{CorpusSpec, LabeledSeries};
pub use deadline::Deadline;
pub use evict::EvictError;
pub use series::TimeSeries;
pub use session::{StreamClock, StreamSession};
pub use stats::{mean, stddev, znormalize, znormalize_into, PrefixStats};
pub use window::{sliding_windows, SlidingWindows};
