//! Radix-2 FFT with cached plans and real-input packing.
//!
//! Three layers, each fully in-house (no external DSP crates):
//!
//! * [`FftPlan`] — a reusable complex transform plan for one
//!   power-of-two size: the bit-reversal permutation table and the
//!   twiddle factors are computed **once** and shared by every
//!   subsequent transform.
//! * [`RealFftPlan`] — real-input packing: a real transform of length
//!   `n` runs as a complex transform of length `n/2` (even samples in
//!   the real lane, odd samples in the imaginary lane) plus an `O(n)`
//!   spectral unpack — roughly halving the work of both the forward and
//!   inverse transforms for MASS's all-real signals.
//! * [`sliding_dot_products`] (the MASS kernel) and a **global plan
//!   cache** ([`cached_real_plan`]): one shared `Arc` plan per transform
//!   size, behind a mutexed map. Each size is built once per process
//!   and handed out by refcount. Plan sizes are powers of two, so the
//!   map holds at most 63 entries and needs no eviction. The mutex
//!   guards only the map lookup (transforms themselves run lock-free on
//!   `&self`), so the cache is shared safely across rayon workers.
//!
//! `MassPrecomputed` in [`crate::mass`] builds on `RealFftPlan` to
//! transform a series **once** and answer every query against the cached
//! spectrum.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A complex number as a bare `(re, im)` pair.
pub type Complex = (f64, f64);

#[inline]
fn c_add(a: Complex, b: Complex) -> Complex {
    (a.0 + b.0, a.1 + b.1)
}

#[inline]
fn c_sub(a: Complex, b: Complex) -> Complex {
    (a.0 - b.0, a.1 - b.1)
}

/// Complex multiplication.
#[inline]
pub fn c_mul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Complex conjugate.
#[inline]
pub fn c_conj(a: Complex) -> Complex {
    (a.0, -a.1)
}

/// Next power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// A reusable complex FFT plan for one power-of-two size.
///
/// Construction precomputes the bit-reversal permutation and the
/// twiddle-factor table `e^{-2πik/n}` (`k < n/2`); transforms then run
/// with pure table lookups — no trigonometry, no recurrence error
/// accumulation — and may be shared across threads (`&self` methods).
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    bitrev: Vec<u32>,
    /// Stage-ordered twiddles: for each butterfly stage `len = 2, 4, …,
    /// n`, the `len/2` roots `e^{-2πik/len}` — laid out contiguously so
    /// the inner loop walks them sequentially (`n − 1` entries total).
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT size {n} not a power of two");
        let mut bitrev = vec![0u32; n];
        for i in 1..n {
            let prev = bitrev[i >> 1] >> 1;
            bitrev[i] = prev | if i & 1 == 1 { (n as u32) >> 1 } else { 0 };
        }
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            for k in 0..len / 2 {
                let ang = -std::f64::consts::TAU * k as f64 / len as f64;
                twiddles.push((ang.cos(), ang.sin()));
            }
            len <<= 1;
        }
        Self {
            n,
            bitrev,
            twiddles,
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate zero-length plan (never constructable —
    /// kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward DFT in place.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan size.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.transform(buf, false);
    }

    /// Unscaled inverse DFT in place (divide by `len` afterwards).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan size.
    pub fn inverse_unscaled(&self, buf: &mut [Complex]) {
        self.transform(buf, true);
    }

    fn transform(&self, buf: &mut [Complex], inverse: bool) {
        let n = self.n;
        assert_eq!(buf.len(), n, "buffer length does not match plan size");
        if n <= 1 {
            return;
        }
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let sign = if inverse { -1.0 } else { 1.0 };
        let mut stage_off = 0;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[stage_off..stage_off + half];
            for block in buf.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), &(wr, wi)) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let wi = sign * wi;
                    let t = (v.0 * wr - v.1 * wi, v.0 * wi + v.1 * wr);
                    *v = (u.0 - t.0, u.1 - t.1);
                    *u = (u.0 + t.0, u.1 + t.1);
                }
            }
            stage_off += half;
            len <<= 1;
        }
    }
}

/// A cached FFT plan for **real** inputs of even power-of-two length
/// `n ≥ 2`, using the half-size complex transform plus an `O(n)`
/// pack/unpack stage.
///
/// The spectrum representation is the standard real-FFT half-spectrum:
/// `n/2 + 1` bins `X[0..=n/2]`; the remaining bins are implied by the
/// Hermitian symmetry `X[n−k] = conj(X[k])` and never materialized.
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    n: usize,
    half: FftPlan,
    /// `e^{-2πik/n}` for `k < n/2`.
    twiddles: Vec<Complex>,
}

impl RealFftPlan {
    /// Builds a plan for real transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2 && n.is_power_of_two(), "real FFT size {n} invalid");
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| {
                let ang = -std::f64::consts::TAU * k as f64 / n as f64;
                (ang.cos(), ang.sin())
            })
            .collect();
        Self {
            n,
            half: FftPlan::new(n / 2),
            twiddles,
        }
    }

    /// Real transform length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never true; kept alongside [`RealFftPlan::len`] for idiom.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of half-spectrum bins (`n/2 + 1`).
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward real DFT: writes the `n/2 + 1` half-spectrum bins of
    /// `input` into `spec`. `scratch` is resized as needed and may be
    /// reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n`.
    pub fn forward_into(&self, input: &[f64], spec: &mut Vec<Complex>, scratch: &mut Vec<Complex>) {
        let n = self.n;
        let h = n / 2;
        assert_eq!(input.len(), n, "input length does not match plan size");
        scratch.clear();
        scratch.extend((0..h).map(|k| (input[2 * k], input[2 * k + 1])));
        self.half.forward(scratch);

        spec.clear();
        spec.reserve(h + 1);
        for k in 0..=h {
            let zk = scratch[k % h];
            let zr = c_conj(scratch[(h - k) % h]);
            // Spectra of the even/odd sample streams.
            let fe = ((zk.0 + zr.0) * 0.5, (zk.1 + zr.1) * 0.5);
            let fo_times_i = c_sub(zk, zr); // 2i·Fo[k]
            let fo = (fo_times_i.1 * 0.5, -fo_times_i.0 * 0.5);
            let w = if k < h { self.twiddles[k] } else { (-1.0, 0.0) };
            spec.push(c_add(fe, c_mul(w, fo)));
        }
    }

    /// Inverse real DFT: reconstructs the length-`n` real signal from its
    /// `n/2 + 1` half-spectrum bins. Properly scaled (a forward →
    /// inverse round trip is the identity).
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != n/2 + 1`.
    pub fn inverse_into(&self, spec: &[Complex], out: &mut Vec<f64>, scratch: &mut Vec<Complex>) {
        let n = self.n;
        let h = n / 2;
        assert_eq!(
            spec.len(),
            h + 1,
            "spectrum length does not match plan size"
        );
        scratch.clear();
        scratch.reserve(h);
        for k in 0..h {
            let xk = spec[k];
            let xr = c_conj(spec[h - k]);
            let fe = ((xk.0 + xr.0) * 0.5, (xk.1 + xr.1) * 0.5);
            let w_fo = ((xk.0 - xr.0) * 0.5, (xk.1 - xr.1) * 0.5); // W^k·Fo[k]
            let fo = c_mul(c_conj(self.twiddles[k]), w_fo);
            // Z[k] = Fe[k] + i·Fo[k]
            scratch.push((fe.0 - fo.1, fe.1 + fo.0));
        }
        self.half.inverse_unscaled(scratch);
        let scale = 1.0 / h as f64;
        out.clear();
        out.reserve(n);
        for z in scratch.iter() {
            out.push(z.0 * scale);
            out.push(z.1 * scale);
        }
    }
}

static REAL_PLANS: OnceLock<Mutex<HashMap<usize, Arc<RealFftPlan>>>> = OnceLock::new();

/// The process-wide shared [`RealFftPlan`] for size `n`, built on first
/// request and reused (by `Arc`) for the life of the process.
///
/// # Panics
///
/// Panics if `n < 2` or `n` is not a power of two.
pub fn cached_real_plan(n: usize) -> Arc<RealFftPlan> {
    assert!(n >= 2 && n.is_power_of_two(), "real FFT size {n} invalid");
    let cache = REAL_PLANS.get_or_init(|| Mutex::new(HashMap::new()));
    // A poisoned lock is safe to recover: the size is validated before
    // the lock is taken, and a plan is inserted only after it builds,
    // so a panic can never leave the map mid-mutation.
    let mut plans = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(plan) = plans.get(&n) {
        egi_obs::counter!("egi_fft_plan_cache_hits_total").inc();
        return Arc::clone(plan);
    }
    egi_obs::counter!("egi_fft_plan_cache_misses_total").inc();
    let plan = Arc::new(RealFftPlan::new(n));
    plans.insert(n, Arc::clone(&plan));
    plan
}

/// Sliding dot products of `query` against every window of `series`:
/// `out[j] = Σ_k query[k] · series[j + k]` for
/// `j = 0 ..= series.len() − query.len()`.
///
/// Computed as a circular cross-correlation on the packed real FFT,
/// `O(N log N)`. For repeated queries against one series, use
/// [`crate::mass::MassPrecomputed`], which caches the series spectrum.
///
/// # Panics
///
/// Panics if the query is empty or longer than the series.
pub fn sliding_dot_products(query: &[f64], series: &[f64]) -> Vec<f64> {
    let m = query.len();
    let n = series.len();
    assert!(m > 0, "empty query");
    assert!(m <= n, "query longer than series");
    let size = next_pow2(n).max(2);
    let plan = cached_real_plan(size);
    let mut scratch = Vec::new();
    let mut padded = vec![0.0; size];
    padded[..n].copy_from_slice(series);
    let mut series_spec = Vec::new();
    plan.forward_into(&padded, &mut series_spec, &mut scratch);
    padded.iter_mut().for_each(|v| *v = 0.0);
    padded[..m].copy_from_slice(query);
    let mut query_spec = Vec::new();
    plan.forward_into(&padded, &mut query_spec, &mut scratch);
    // Cross-correlation theorem: corr = IDFT(conj(Q) · S). Lags
    // 0 ..= n − m stay clear of the circular wrap-around.
    for (q, s) in query_spec.iter_mut().zip(&series_spec) {
        *q = c_mul(c_conj(*q), *s);
    }
    let mut corr = Vec::new();
    plan.inverse_into(&query_spec, &mut corr, &mut scratch);
    corr.truncate(n - m + 1);
    corr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_roundtrip_recovers_input() {
        let mut buf: Vec<Complex> = (0..16).map(|i| (i as f64, -(i as f64) / 3.0)).collect();
        let original = buf.clone();
        let plan = FftPlan::new(16);
        plan.forward(&mut buf);
        plan.inverse_unscaled(&mut buf);
        for ((re, im), (ore, oim)) in buf.iter().zip(&original) {
            assert!((re / 16.0 - ore).abs() < 1e-9);
            assert!((im / 16.0 - oim).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![(0.0, 0.0); 8];
        buf[0] = (1.0, 0.0);
        FftPlan::new(8).forward(&mut buf);
        for (re, im) in buf {
            assert!((re - 1.0).abs() < 1e-12);
            assert!(im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_parseval_energy() {
        let xs: Vec<f64> = (0..32).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let mut buf: Vec<Complex> = xs.iter().map(|&x| (x, 0.0)).collect();
        FftPlan::new(32).forward(&mut buf);
        let time_energy: f64 = xs.iter().map(|x| x * x).sum();
        let freq_energy: f64 = buf.iter().map(|(r, i)| r * r + i * i).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut buf = vec![(0.0, 0.0); 6];
        FftPlan::new(buf.len()).forward(&mut buf);
    }

    #[test]
    fn plan_matches_direct_dft() {
        // The table-driven plan must agree with a direct DFT.
        let n = 64;
        let signal: Vec<Complex> = (0..n)
            .map(|i| ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut fast = signal.clone();
        FftPlan::new(n).forward(&mut fast);
        for (k, &bin) in fast.iter().enumerate() {
            let mut direct = (0.0f64, 0.0f64);
            for (t, &x) in signal.iter().enumerate() {
                let ang = -std::f64::consts::TAU * (k * t % n) as f64 / n as f64;
                direct = c_add(direct, c_mul(x, (ang.cos(), ang.sin())));
            }
            assert!(
                (bin.0 - direct.0).abs() < 1e-8 && (bin.1 - direct.1).abs() < 1e-8,
                "bin {k}: {:?} vs {:?}",
                bin,
                direct
            );
        }
    }

    /// Every transform checks its buffer against the plan size before
    /// it writes anything, so a rejected call leaves the caller's
    /// buffers as they were.
    #[test]
    fn transforms_reject_buffers_of_another_size_untouched() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut short = vec![(1.0, 2.0); 4];
        let forward = catch_unwind(AssertUnwindSafe(|| FftPlan::new(8).forward(&mut short)));
        assert!(forward.is_err());
        assert_eq!(short, vec![(1.0, 2.0); 4]);
        let plan = RealFftPlan::new(8);
        let (mut spec, mut scratch, mut out) = (vec![(3.0, 0.0)], vec![(4.0, 0.0)], vec![5.0]);
        let real_forward = catch_unwind(AssertUnwindSafe(|| {
            plan.forward_into(&[0.0; 6], &mut spec, &mut scratch)
        }));
        assert!(real_forward.is_err());
        let real_inverse = catch_unwind(AssertUnwindSafe(|| {
            plan.inverse_into(&[(0.0, 0.0); 4], &mut out, &mut scratch)
        }));
        assert!(real_inverse.is_err());
        assert_eq!(spec, vec![(3.0, 0.0)]);
        assert_eq!(scratch, vec![(4.0, 0.0)]);
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn real_fft_matches_complex_fft() {
        for &n in &[2usize, 4, 16, 128] {
            let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.3).collect();
            let plan = RealFftPlan::new(n);
            let (mut spec, mut scratch) = (Vec::new(), Vec::new());
            plan.forward_into(&signal, &mut spec, &mut scratch);
            assert_eq!(spec.len(), n / 2 + 1);
            let mut full: Vec<Complex> = signal.iter().map(|&x| (x, 0.0)).collect();
            FftPlan::new(n).forward(&mut full);
            for k in 0..=n / 2 {
                assert!(
                    (spec[k].0 - full[k].0).abs() < 1e-9 && (spec[k].1 - full[k].1).abs() < 1e-9,
                    "n={n} bin {k}: {:?} vs {:?}",
                    spec[k],
                    full[k]
                );
            }
        }
    }

    #[test]
    fn real_fft_roundtrip_is_identity() {
        for &n in &[2usize, 8, 64, 512] {
            let signal: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 1.3).cos() * 2.0 - 0.5 * i as f64)
                .collect();
            let plan = RealFftPlan::new(n);
            let (mut spec, mut scratch, mut back) = (Vec::new(), Vec::new(), Vec::new());
            plan.forward_into(&signal, &mut spec, &mut scratch);
            plan.inverse_into(&spec, &mut back, &mut scratch);
            assert_eq!(back.len(), n);
            for (a, b) in signal.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sliding_dots_match_direct() {
        let series: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let query = &series[10..18];
        let fast = sliding_dot_products(query, &series);
        assert_eq!(fast.len(), 43);
        for j in 0..fast.len() {
            let direct: f64 = query
                .iter()
                .zip(&series[j..j + 8])
                .map(|(q, s)| q * s)
                .sum();
            assert!((fast[j] - direct).abs() < 1e-8, "offset {j}");
        }
    }

    #[test]
    fn sliding_dots_full_length_query() {
        let series = [1.0, -2.0, 3.0];
        let out = sliding_dot_products(&series, &series);
        assert_eq!(out.len(), 1);
        assert!((out[0] - 14.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty query")]
    fn sliding_dots_reject_an_empty_query() {
        sliding_dot_products(&[], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "query longer than series")]
    fn sliding_dots_reject_a_query_longer_than_the_series() {
        sliding_dot_products(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    #[test]
    fn plan_cache_reuses_one_plan_per_size() {
        let a = cached_real_plan(256);
        let b = cached_real_plan(256);
        assert!(Arc::ptr_eq(&a, &b), "same size must share one plan");
        let c = cached_real_plan(512);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn plan_cache_is_share_safe_across_threads() {
        let plans: Vec<Arc<RealFftPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cached_real_plan(1024)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in plans.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
    }

    /// Plan construction is deterministic, so a plan built in another
    /// process (where a checkpoint is restored) transforms bit for bit
    /// like the cached one.
    #[test]
    fn rebuilt_plans_transform_bit_identically() {
        let signal: Vec<f64> = (0..256)
            .map(|i| (i as f64 * 0.37).sin() * 2.5 - 0.4)
            .collect();
        let (mut cached, mut rebuilt, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        cached_real_plan(256).forward_into(&signal, &mut cached, &mut scratch);
        RealFftPlan::new(256).forward_into(&signal, &mut rebuilt, &mut scratch);
        assert_eq!(cached, rebuilt);
    }

    /// Every lookup counts as one hit or one miss; perfbench's
    /// `discord.fft_plan_hit_frac` is built from these two counters. No
    /// other test in this binary requests size 2¹⁶, so its first lookup
    /// here is the miss.
    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let hits = egi_obs::counter!("egi_fft_plan_cache_hits_total");
        let misses = egi_obs::counter!("egi_fft_plan_cache_misses_total");
        let (hits_before, misses_before) = (hits.get(), misses.get());
        let first = cached_real_plan(1 << 16);
        assert!(misses.get() > misses_before, "a new size is a miss");
        let again = cached_real_plan(1 << 16);
        assert!(Arc::ptr_eq(&first, &again));
        assert!(hits.get() > hits_before, "a repeated size is a hit");
    }

    /// A rejected size panics before the lock is taken, so the cache
    /// keeps serving every other size.
    #[test]
    fn rejected_sizes_leave_the_plan_cache_usable() {
        let plan = cached_real_plan(64);
        for n in [0usize, 1, 3, 48] {
            let rejected = std::panic::catch_unwind(|| cached_real_plan(n));
            assert!(rejected.is_err(), "size {n} must be rejected");
        }
        assert!(!REAL_PLANS.get().expect("built above").is_poisoned());
        assert!(Arc::ptr_eq(&plan, &cached_real_plan(64)));
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(8), 8);
        assert_eq!(next_pow2(1000), 1024);
    }
}
