//! # egi-discord — distance-based anomaly detection baselines
//!
//! The paper compares ensemble grammar induction against *time series
//! discords*: the subsequences with the largest one-nearest-neighbor
//! distance. This crate implements that whole family from scratch:
//!
//! * [`dist`] — per-window centered statistics ([`dist::WindowStats`]:
//!   mean, inverse centered norm, flatness, and MPX's slide terms), each
//!   computed directly over its own points, and the z-normalized
//!   distance `d = √(2m·(1 − corr))` with the flat-window conventions.
//! * [`mod@stomp`] — the one matrix-profile kernel, and STOMP \[23\], its
//!   diagonal-parallel batch form: each diagonal is seeded with a direct
//!   centered dot product and walked with MPX's centered covariance
//!   update; bit-identical for every worker count. The implementation
//!   the paper benchmarks against (Fig. 8). Every cell is walked, but
//!   only a cell whose correlation reaches the lower of its two ends'
//!   limits (`1 − p²/(2m) − δ`, stored beside each profile entry) pays
//!   the distance and the fold; the bound is exact, so the profile is
//!   bit for bit the fold of every cell.
//! * [`mod@stamp`] — `stamp` and `stamp_with_exclusion`, aliases of
//!   the batch kernel under STAMP's \[21\] name.
//! * [`profile`] — the matrix profile type plus discord extraction.
//! * [`brute`] — `O(N²·m)` reference matrix profile that computes each
//!   pair's z-normalized distance from the definition (test oracle).
//! * [`streaming`] — [`StreamingDiscordMonitor`]: online
//!   (append-to-series) discord monitoring — ingest points, refresh the
//!   profile under a hard latency budget, answer "best discords so
//!   far". It runs the kernel over its live series: an append extends
//!   every diagonal by its new cells, an eviction re-seeds them all,
//!   and finished profiles are bit-identical to batch [`stomp()`] for
//!   every append and eviction schedule. It is also the crate's anytime
//!   matrix profile: append a series once, then step it in seeded runs
//!   of diagonals under unit budgets or wall-clock deadlines, snapshot
//!   the converging profile, and finish sequentially or on rayon
//!   workers.
//! * [`detector`] — [`DiscordDetector`]: the "Discord" baseline of the
//!   evaluation (top-k non-overlapping discords via STOMP).
//!
//! # The `(distance, index)` tie-break contract
//!
//! Every profile fold in this crate — the kernel's per-cell fold, the
//! per-worker partial profiles of STOMP and of the monitor's finish —
//! goes through one rule, [`profile::improves`]: candidate `(d, idx)`
//! wins iff it is strictly smaller under the total order *distance
//! first, neighbor index second*. Min-folding under a total order is
//! commutative and associative, so **any** processing order (diagonal
//! chunks, seeded diagonal orders, per-worker partials, append
//! schedules) produces bit-identical profile *and index* vectors,
//! including on exact distance ties.
//!
//! # The anytime-convergence guarantee
//!
//! Partial profiles from [`StreamingDiscordMonitor`] are folds of exact
//! cells, so every entry is an upper bound on the final profile. They
//! tighten monotonically as units run and across appends, and only an
//! eviction resets them. Run to completion, they land bit-exactly on
//! [`stomp()`](stomp::stomp)'s output for every seed, unit order and
//! rayon worker count. See [`streaming`] for the contract.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod brute;
pub mod detector;
pub mod dist;
pub mod profile;
pub mod session;
pub mod stamp;
pub mod stomp;
pub mod streaming;

pub use detector::{DiscordConfig, DiscordDetector};
pub use profile::{Discord, MatrixProfile};
pub use stamp::stamp;
pub use stomp::stomp;
pub use streaming::StreamingDiscordMonitor;
