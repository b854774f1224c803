//! Shared PAA cell streams.
//!
//! A window's PAA coefficients depend only on the window length `n` and
//! the PAA size `w` — **not** on the alphabet size `a`. Ensemble members
//! that share `w` and differ only in `a` would therefore recompute
//! identical coefficients. [`PaaStream`] computes the coefficients of
//! every sliding window once (`O(N·w)`) and keeps only each
//! coefficient's *cell*: its interval in the all-alphabet merged
//! breakpoint table ([`MultiResBreakpoints::all`]), found by one binary
//! search per coefficient. A cell fixes the coefficient's symbol under
//! every alphabet size, so [`PaaStream::reduce_into`] — the one
//! discretization kernel every detector runs — turns a stream into a
//! numerosity-reduced token sequence for any alphabet with one table
//! lookup per coefficient, no search and no PAA recomputation, and no
//! allocation: each window's symbols fold into one packed [`SaxWord`]
//! value. A cell takes one byte against an `f64` coefficient's eight.
//!
//! For append-only workloads (the streaming ensemble detector), a
//! stream also grows incrementally: [`PaaStream::empty`] starts with no
//! windows and [`PaaStream::extend_from_stats`] appends the cells of
//! every window completed by newly ingested points, running the exact
//! batch kernel ([`paa_znorm_from_stats`]) on prefix-sum statistics the
//! caller extends per append — so an incrementally grown stream is
//! **bit-identical** to [`PaaStream::new`] over the full series, for
//! every append schedule (property-tested), and
//! [`PaaStream::reduce_into`] folds just the fresh windows into the
//! token sequence built so far.

use egi_tskit::stats::PrefixStats;
use egi_tskit::window::window_count;

use crate::discretize::{paa_znorm_from_stats, FastSax};
use crate::multires::MultiResBreakpoints;
use crate::numerosity::NumerosityReduced;
use crate::word::{SaxConfig, SaxWord};

/// The cells of the PAA coefficients of every sliding window of one
/// series, for one `(n, w)` pair, row-major (`count × w`): each
/// coefficient's interval in the all-alphabet breakpoint table.
#[derive(Debug, Clone)]
pub struct PaaStream {
    /// Sliding-window length the stream was computed with.
    pub n: usize,
    /// PAA size (coefficients per window).
    pub w: usize,
    /// Number of windows.
    pub count: usize,
    /// Row-major cells: window `i` occupies `[i·w, (i+1)·w)`, and each
    /// is [`MultiResBreakpoints::all`]`.cell` of its PAA coefficient.
    cells: Vec<u8>,
}

impl PaaStream {
    /// Computes the stream for all windows of length `n` over the series
    /// behind `fast`, with `w` PAA segments per window.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `w > n`.
    pub fn new(fast: &FastSax<'_>, n: usize, w: usize) -> Self {
        let mut stream = Self::empty(n, w);
        stream.extend_from_stats(fast.stats());
        stream
    }

    /// An empty stream (no windows yet) for incremental building via
    /// [`PaaStream::extend_from_stats`].
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `w > n`.
    pub fn empty(n: usize, w: usize) -> Self {
        assert!(w > 0 && w <= n, "PAA size {w} invalid for window {n}");
        Self {
            n,
            w,
            count: 0,
            cells: Vec::new(),
        }
    }

    /// Appends the cell rows of every window the series behind `stats`
    /// has completed beyond the stream's current coverage; returns how
    /// many rows were added.
    ///
    /// `stats` must be the prefix-sum statistics of the *same* series
    /// the stream has seen so far, extended with the newly appended
    /// points ([`PrefixStats::extend`]). Existing rows are never
    /// touched: a window's coefficients read only the prefix sums in
    /// `[start, start + n]`, which `extend` leaves bit-identical, so
    /// after any append schedule the stream equals [`PaaStream::new`]
    /// over the full series (property-tested). Each window's
    /// coefficients go through one reused row of `w` values and only
    /// their cells are kept.
    ///
    /// # Panics
    ///
    /// Panics if `stats` covers fewer points than the windows already
    /// materialized (i.e. it belongs to a shorter series).
    pub fn extend_from_stats(&mut self, stats: &PrefixStats) -> usize {
        let target = window_count(stats.len(), self.n);
        assert!(
            target >= self.count,
            "stats cover {} windows but the stream already has {}",
            target,
            self.count
        );
        let fresh = target - self.count;
        self.cells.reserve(fresh * self.w);
        let all = MultiResBreakpoints::all();
        let mut row = vec![0.0; self.w];
        for start in self.count..target {
            paa_znorm_from_stats(stats, start, self.n, &mut row);
            self.cells.extend(row.iter().map(|&c| all.cell(c)));
        }
        self.count = target;
        fresh
    }

    /// Retires the windows evicted by dropping `points` from the front
    /// of the underlying series, recomputing every surviving row from
    /// `stats`, the prefix sums of the suffix
    /// ([`PrefixStats::new`] over the surviving points). Returns how
    /// many rows the rebuilt stream holds.
    ///
    /// Surviving windows cover the same raw points as before, but a
    /// row's z-normalization statistics are prefix-sum *differences*,
    /// and the suffix's sums accumulate from a different origin — the
    /// stored cells are not reusable (a coefficient near a breakpoint
    /// may change cell), so the whole stream is recomputed through the
    /// batch kernel (`O(remaining · w)`, allocation-reusing). The
    /// result is **bit-identical** to [`PaaStream::new`] over the
    /// suffix, which is what the streaming detector's suffix-parity
    /// contract needs; the recompute cost is the SAX-side mirror of
    /// the discord monitor's engine rebuild on eviction.
    ///
    /// The stream may lag the series when eviction strikes (appends
    /// extend streams lazily); the rebuild then also catches it up to
    /// every window the suffix supports.
    ///
    /// # Panics
    ///
    /// Panics if the implied pre-eviction series (`stats` plus the
    /// `points` evicted) could not have produced the windows already
    /// materialized — i.e. `stats` belongs to a shorter series than the
    /// one this stream was built over.
    pub fn evict_front(&mut self, points: usize, stats: &PrefixStats) -> usize {
        let target = window_count(stats.len(), self.n);
        assert!(
            target + points >= self.count,
            "stats cover {} windows after {} evicted points, but the stream \
             already had {}",
            target,
            points,
            self.count
        );
        self.count = 0;
        self.cells.clear();
        self.extend_from_stats(stats)
    }

    /// Bytes retained by the cell buffer — cheap accessor for
    /// memory-bound assertions on eviction workloads.
    pub fn capacity(&self) -> usize {
        self.cells.capacity()
    }

    /// Every window's cells, row-major: window `i` occupies
    /// `[i·w, (i+1)·w)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use egi_sax::stream::PaaStream;
    /// use egi_sax::{FastSax, MultiResBreakpoints};
    ///
    /// let series: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
    /// let fast = FastSax::new(&series);
    /// let stream = PaaStream::new(&fast, 16, 4);
    /// assert_eq!(stream.cells().len(), stream.count * 4);
    ///
    /// // Window 5's row holds the cells of its PAA coefficients.
    /// let mut coeffs = [0.0; 4];
    /// fast.paa_znorm_into(5, 16, &mut coeffs);
    /// let all = MultiResBreakpoints::all();
    /// let row: Vec<u8> = coeffs.iter().map(|&c| all.cell(c)).collect();
    /// assert_eq!(&stream.cells()[5 * 4..6 * 4], row.as_slice());
    /// ```
    pub fn cells(&self) -> &[u8] {
        &self.cells
    }

    /// Folds windows `nr.end_offset..upto` into `nr` under alphabet `a`:
    /// each coefficient's cell maps through the all-alphabet table's
    /// [`lookup`](MultiResBreakpoints::lookup) for `a`, the window's
    /// symbols fold into one packed [`SaxWord`] value, and a window
    /// whose word equals the current run's only extends the run. Nothing
    /// is allocated per window; `nr.tokens` grows when a run opens.
    ///
    /// This is numerosity reduction ([`NumerosityReduced::push_word`])
    /// over the stream's words: folding a stream in any sequence of
    /// `upto` steps yields the same tokens as folding it in one, and as
    /// [`discretize_series_naive`].
    ///
    /// # Panics
    ///
    /// Panics if `nr` was built for another window length, `upto`
    /// exceeds the stream's window count or lies before
    /// `nr.end_offset`, `a` is outside `2..=MAX_ALPHABET`, or a window
    /// is folded while `w > MAX_WORD_LEN`.
    ///
    /// [`discretize_series_naive`]: crate::discretize::discretize_series_naive
    pub fn reduce_into(&self, nr: &mut NumerosityReduced, a: usize, upto: usize) {
        assert_eq!(nr.window, self.n, "token window does not match stream");
        assert!(
            nr.end_offset <= upto && upto <= self.count,
            "cannot fold windows {}..{upto} of a {}-window stream",
            nr.end_offset,
            self.count
        );
        let lookup = MultiResBreakpoints::all().lookup(a);
        for cells in self.cells[nr.end_offset * self.w..upto * self.w].chunks_exact(self.w) {
            nr.push_word(SaxWord::pack(cells.iter().map(|&c| lookup[usize::from(c)])));
        }
    }
}

/// Discretizes a whole cell stream under alphabet `cfg.a` and
/// numerosity-reduces it ([`PaaStream::reduce_into`] over every window).
///
/// `multi` is the caller's table for its alphabet range; the symbols
/// themselves come from the stream's cells. Equals
/// [`discretize_series_naive`] for the same `(n, w, a)` — the property
/// tests pin the two paths to agree exactly.
///
/// # Panics
///
/// Panics if `cfg.w` differs from the stream's `w`, or `cfg.a` exceeds
/// `multi.amax()`.
///
/// [`discretize_series_naive`]: crate::discretize::discretize_series_naive
pub fn discretize_from_stream(
    stream: &PaaStream,
    cfg: SaxConfig,
    multi: &MultiResBreakpoints,
) -> NumerosityReduced {
    assert_eq!(cfg.w, stream.w, "config w does not match stream");
    assert!(
        cfg.a <= multi.amax(),
        "alphabet {} exceeds the table's amax {}",
        cfg.a,
        multi.amax()
    );
    let mut nr = NumerosityReduced::empty(stream.n);
    stream.reduce_into(&mut nr, cfg.a, stream.count);
    nr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::discretize_series_naive;

    fn wave(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 / 9.0).sin() * 3.0 + (i as f64 / 31.0).cos())
            .collect()
    }

    #[test]
    fn stream_discretization_matches_direct_path() {
        let data = wave(400);
        let fast = FastSax::new(&data);
        let multi = MultiResBreakpoints::new(10);
        let n = 40;
        for &w in &[2usize, 5, 8] {
            let stream = PaaStream::new(&fast, n, w);
            for a in 2..=10 {
                let cfg = SaxConfig::new(w, a);
                let from_stream = discretize_from_stream(&stream, cfg, &multi);
                let direct = discretize_series_naive(&data, n, cfg);
                assert_eq!(from_stream, direct, "divergence at w={w} a={a}");
            }
        }
    }

    #[test]
    fn stream_rows_match_fast_paa() {
        let data = wave(120);
        let fast = FastSax::new(&data);
        let stream = PaaStream::new(&fast, 16, 4);
        let all = MultiResBreakpoints::all();
        let mut direct = vec![0.0; 4];
        for start in [0usize, 7, stream.count - 1] {
            fast.paa_znorm_into(start, 16, &mut direct);
            let cells: Vec<u8> = direct.iter().map(|&c| all.cell(c)).collect();
            assert_eq!(
                &stream.cells()[start * 4..(start + 1) * 4],
                cells.as_slice(),
                "row {start}"
            );
        }
    }

    #[test]
    fn empty_series_yields_empty_stream() {
        let data = wave(5);
        let fast = FastSax::new(&data);
        let stream = PaaStream::new(&fast, 10, 3);
        assert_eq!(stream.count, 0);
        let multi = MultiResBreakpoints::new(4);
        let nr = discretize_from_stream(&stream, SaxConfig::new(3, 3), &multi);
        assert!(nr.is_empty());
    }

    #[test]
    fn incrementally_grown_stream_is_bit_identical_to_batch() {
        let data = wave(300);
        let n = 24;
        let w = 5;
        let batch = PaaStream::new(&FastSax::new(&data), n, w);
        for chunk in [1usize, 7, 100, 300] {
            let mut stats = egi_tskit::PrefixStats::new(&[]);
            let mut grown = PaaStream::empty(n, w);
            for part in data.chunks(chunk) {
                stats.extend(part);
                grown.extend_from_stats(&stats);
            }
            assert_eq!(grown.count, batch.count, "chunk {chunk}");
            assert_eq!(grown.cells(), batch.cells(), "chunk {chunk}");
        }
    }

    /// A stream keeps one byte per PAA coefficient, its cell, and
    /// `capacity` counts those bytes.
    #[test]
    fn capacity_counts_cell_bytes() {
        let data = wave(400);
        let stream = PaaStream::new(&FastSax::new(&data), 40, 8);
        assert_eq!(stream.cells().len(), stream.count * 8);
        assert_eq!(stream.capacity(), stream.cells().len());
        let mut grown = PaaStream::empty(40, 8);
        let mut stats = egi_tskit::PrefixStats::new(&[]);
        for part in data.chunks(50) {
            stats.extend(part);
            grown.extend_from_stats(&stats);
            assert!(grown.capacity() >= grown.cells().len());
            assert!(grown.capacity() <= 2 * grown.cells().len().max(8));
        }
    }

    #[test]
    fn extend_reports_fresh_row_count() {
        let data = wave(40);
        let mut stats = egi_tskit::PrefixStats::new(&data[..10]);
        let mut stream = PaaStream::empty(8, 4);
        // 10 points, n = 8 → 3 windows.
        assert_eq!(stream.extend_from_stats(&stats), 3);
        // No new points → no new rows.
        assert_eq!(stream.extend_from_stats(&stats), 0);
        stats.extend(&data[10..]);
        assert_eq!(stream.extend_from_stats(&stats), 30);
        assert_eq!(stream.count, 33);
    }

    #[test]
    fn evict_front_is_bit_identical_to_fresh_suffix_stream() {
        let data = wave(220);
        let n = 20;
        let w = 4;
        for cut in [1usize, 50, 201, 210, 220] {
            let mut stream = PaaStream::empty(n, w);
            stream.extend_from_stats(&egi_tskit::PrefixStats::new(&data));
            stream.evict_front(cut, &egi_tskit::PrefixStats::new(&data[cut..]));
            let fresh = PaaStream::new(&FastSax::new(&data[cut..]), n, w);
            assert_eq!(stream.count, fresh.count, "cut {cut}");
            assert_eq!(stream.cells(), fresh.cells(), "cut {cut}");
        }
    }

    #[test]
    fn evict_then_extend_matches_batch_over_suffix() {
        let data = wave(180);
        let n = 16;
        let w = 5;
        let mut stream = PaaStream::empty(n, w);
        stream.extend_from_stats(&egi_tskit::PrefixStats::new(&data[..120]));
        let mut stats = egi_tskit::PrefixStats::new(&data[70..120]);
        stream.evict_front(70, &stats);
        stats.extend(&data[120..]);
        stream.extend_from_stats(&stats);
        let fresh = PaaStream::new(&FastSax::new(&data[70..]), n, w);
        assert_eq!(stream.count, fresh.count);
        assert_eq!(stream.cells(), fresh.cells());
    }

    #[test]
    fn evict_catches_up_a_lagging_stream() {
        // Streams extend lazily, so an eviction can strike while the
        // stream is behind the series; the rebuild must land on the
        // fresh suffix stream regardless.
        let data = wave(200);
        let n = 16;
        let w = 4;
        let mut stream = PaaStream::empty(n, w);
        // Current through point 120, but the series moved on to 200.
        stream.extend_from_stats(&egi_tskit::PrefixStats::new(&data[..120]));
        stream.evict_front(50, &egi_tskit::PrefixStats::new(&data[50..]));
        let fresh = PaaStream::new(&FastSax::new(&data[50..]), n, w);
        assert_eq!(stream.count, fresh.count);
        assert_eq!(stream.cells(), fresh.cells());
    }

    #[test]
    #[should_panic(expected = "already had")]
    fn evict_with_too_short_stats_panics() {
        let data = wave(100);
        let stats = egi_tskit::PrefixStats::new(&data);
        let mut stream = PaaStream::empty(10, 2);
        stream.extend_from_stats(&stats); // 91 windows
                                          // Stats from a far shorter series than the stream ever saw.
        stream.evict_front(5, &egi_tskit::PrefixStats::new(&data[..20]));
    }

    #[test]
    #[should_panic(expected = "already has")]
    fn extend_with_shorter_stats_panics() {
        let data = wave(60);
        let mut stream = PaaStream::empty(8, 4);
        stream.extend_from_stats(&egi_tskit::PrefixStats::new(&data));
        stream.extend_from_stats(&egi_tskit::PrefixStats::new(&data[..20]));
    }

    #[test]
    #[should_panic(expected = "does not match stream")]
    fn mismatched_w_panics() {
        let data = wave(60);
        let fast = FastSax::new(&data);
        let stream = PaaStream::new(&fast, 12, 4);
        let multi = MultiResBreakpoints::new(4);
        discretize_from_stream(&stream, SaxConfig::new(3, 3), &multi);
    }

    #[test]
    #[should_panic(expected = "exceeds the longest")]
    fn rows_longer_than_a_packed_word_panic() {
        let data = wave(100);
        let stream = PaaStream::new(&FastSax::new(&data), 40, crate::MAX_WORD_LEN + 1);
        stream.reduce_into(&mut NumerosityReduced::empty(40), 4, stream.count);
    }

    #[test]
    #[should_panic(expected = "exceeds the table's amax")]
    fn alphabet_above_amax_panics() {
        let data = wave(60);
        let fast = FastSax::new(&data);
        let stream = PaaStream::new(&fast, 12, 4);
        let multi = MultiResBreakpoints::new(4);
        discretize_from_stream(&stream, SaxConfig::new(4, 5), &multi);
    }
}
