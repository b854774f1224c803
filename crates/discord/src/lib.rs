//! # egi-discord — distance-based anomaly detection baselines
//!
//! The paper compares ensemble grammar induction against *time series
//! discords*: the subsequences with the largest one-nearest-neighbor
//! distance. This crate implements that whole family from scratch:
//!
//! * [`fft`] — an in-house radix-2 FFT (no external DSP crates) with
//!   cached plans ([`fft::FftPlan`]: precomputed twiddle factors +
//!   bit-reversal tables) and real-input packing ([`fft::RealFftPlan`]:
//!   a length-`n` real transform as a length-`n/2` complex one).
//! * [`dist`] — z-normalized Euclidean distances and the dot-product
//!   identity `d² = 2m(1 − (QT − m·μ_q·μ_t)/(m·σ_q·σ_t))`.
//! * [`mass`] — MASS: one query's distance profile in `O(N log N)`, and
//!   [`mass::MassPrecomputed`] — the shared-spectrum fast path that
//!   transforms the series once at construction and answers every query
//!   against the cached spectrum. An engine never changes; a changed
//!   series gets a new engine.
//! * [`profile`] — the matrix profile type plus discord extraction.
//! * [`brute`] — `O(N²·m)` reference matrix profile (test oracle).
//! * [`mod@stomp`] — STOMP \[23\]: `O(N²)` matrix profile with incremental dot
//!   products, traversed by diagonals and parallelized with rayon
//!   (bit-deterministic for every thread count); the implementation the
//!   paper benchmarks against (Fig. 8).
//! * [`mod@stamp`] — STAMP \[21\]: MASS-per-query matrix profile, running on
//!   the shared spectrum.
//! * [`streaming`] — [`StreamingDiscordMonitor`]: online
//!   (append-to-series) discord monitoring — ingest points, refresh the
//!   profile under a hard latency budget, answer "best discords so
//!   far". It owns the live series and rebuilds its [`MassPrecomputed`]
//!   engine over it after every append and eviction, so every query
//!   runs on the engine batch STAMP builds and finished profiles are
//!   bit-identical to batch STAMP for every append and eviction
//!   schedule. It is also the crate's anytime and parallel
//!   STAMP: append a series once, then step it in a seeded random query
//!   order under query budgets or wall-clock deadlines, snapshot the
//!   converging profile, and finish sequentially or on rayon workers.
//! * [`hotsax`] — the original HOTSAX discord search \[9\] with SAX-bucket
//!   outer-loop ordering and early abandoning.
//! * [`detector`] — [`DiscordDetector`]: the "Discord" baseline of the
//!   evaluation (top-k non-overlapping discords via STOMP).
//!
//! # The `(distance, index)` tie-break contract
//!
//! Every profile fold in this crate — STOMP's diagonal merge, STAMP's
//! per-query fold, the monitor's per-worker partial profiles and its
//! carry-over — goes through one rule,
//! [`profile::improves`]: candidate `(d, idx)` wins iff it is strictly
//! smaller under the total order *distance first, neighbor index
//! second*. Min-folding under a total order is commutative and
//! associative, so **any** processing order (row sweeps, diagonal
//! chunks, random permutations, per-worker partials, append schedules)
//! produces bit-identical profile *and index* vectors, including on
//! exact distance ties.
//!
//! # The anytime-convergence guarantee
//!
//! Partial profiles from [`StreamingDiscordMonitor`] tighten
//! pointwise-monotonically as queries are processed and are always an
//! upper bound on the batch profile; run to completion, they land
//! bit-exactly on [`stamp()`](stamp::stamp)'s output for every seed,
//! query order and rayon worker count. See [`streaming`] for the fine
//! print (and the one FFT-round-off caveat at a streaming catch-up
//! transition).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod brute;
pub mod detector;
pub mod dist;
pub mod fft;
pub mod hotsax;
pub mod mass;
pub mod profile;
pub mod session;
pub mod stamp;
pub mod stomp;
pub mod streaming;

pub use detector::{DiscordConfig, DiscordDetector};
pub use fft::{FftPlan, RealFftPlan};
pub use hotsax::{hotsax_discord, hotsax_discords};
pub use mass::{MassPrecomputed, MassScratch};
pub use profile::{Discord, MatrixProfile};
pub use stamp::stamp;
pub use stomp::stomp;
pub use streaming::StreamingDiscordMonitor;
