//! # egi-obs — zero-dependency observability for the egi stack
//!
//! Atomic counters, gauges, fixed log2-bucket histograms, span
//! timers, and a ring-buffer event trace, behind a process-wide
//! [`ObsRegistry`]. No external dependencies, no allocation on the
//! recording path, and — by construction — no `f64` anywhere:
//! recording a metric only ever touches `u64` atomics and the
//! monotonic clock, so instrumented numeric code cannot drift from
//! its bit-parity contracts.
//!
//! ## Quickstart
//!
//! ```
//! use egi_obs::{counter, histogram, SpanTimer};
//!
//! // Handles are cached per call site; steady state is one atomic op.
//! counter!("egi_demo_queries_total").inc();
//!
//! let span = SpanTimer::start();
//! let answer = (0..100u64).sum::<u64>(); // ... the work being timed ...
//! span.record(histogram!("egi_demo_query_nanos"));
//!
//! assert_eq!(answer, 4950);
//! assert_eq!(counter!("egi_demo_queries_total").get(), 1);
//! let text = egi_obs::global().render_prometheus();
//! assert!(text.contains("egi_demo_queries_total 1"));
//! ```
//!
//! ## Naming conventions
//!
//! `egi_<tier>_<what>[_<unit>]`, snake_case: counters end in
//! `_total`, latency histograms in `_nanos`, size histograms in
//! `_bytes` or `_points`; gauges are bare nouns
//! (`egi_fleet_dirty_streams`). Tiers in this workspace: `discord`,
//! `core`, `session`, `monitor`, `fleet`, `checkpoint`.
//!
//! ## The never-touches-f64 invariant
//!
//! Every recorded value is a `u64` (a count, a byte size, or integer
//! nanoseconds from [`SpanTimer`]). The crate exposes no
//! floating-point API at all; ratios (cache hit rate, coalescing
//! factor) are left to consumers as `u64` numerator/denominator
//! pairs. Instrumentation therefore cannot reorder, round, or
//! otherwise perturb any `f64` computation it observes — the
//! bit-parity gates hold with metrics enabled.
//!
//! ## Disabling
//!
//! [`set_enabled`]`(false)` turns span timers into no-ops (no clock
//! reads) and is the "bare" arm of the bench's instrumented-vs-bare
//! overhead row. Plain counter/gauge increments stay live — they are
//! single relaxed atomic adds, far below measurement noise.

mod metrics;
mod registry;
mod span;
mod stats;
mod trace;

pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use registry::{ObsRegistry, RegistrySnapshot, DEFAULT_TRACE_CAPACITY};
pub use span::SpanTimer;
pub use stats::SessionStats;
pub use trace::{TraceEvent, TraceRing};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether observability is globally enabled (the default).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables observability. Disabling stops span
/// timers (and any call site that gates on [`enabled`]) from reading
/// the clock; registered metrics keep their values.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry every instrumented tier records into.
pub fn global() -> &'static ObsRegistry {
    static GLOBAL: ObsRegistry = ObsRegistry::new();
    &GLOBAL
}

/// A `&'static Counter` from the [`global`] registry, resolved once
/// per call site and cached in a `OnceLock`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::global().counter($name)))
    }};
}

/// A `&'static Gauge` from the [`global`] registry, cached per call
/// site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::global().gauge($name)))
    }};
}

/// A `&'static Histogram` from the [`global`] registry, cached per
/// call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::global().histogram($name)))
    }};
}

/// A `&'static TraceRing` from the [`global`] registry, cached per
/// call site; `$cap` sets the capacity on first creation.
#[macro_export]
macro_rules! trace {
    ($name:expr) => {
        $crate::trace!($name, $crate::DEFAULT_TRACE_CAPACITY)
    };
    ($name:expr, $cap:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::TraceRing>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::global().trace($name, $cap)))
    }};
}
