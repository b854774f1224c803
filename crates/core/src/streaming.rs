//! Streaming ensemble grammar induction: the paper's headline detector
//! as an online, append-to-series pipeline.
//!
//! [`StreamingEnsembleDetector`] owns a growing time series and keeps
//! the ensemble rule-density curve — and therefore the anomaly ranking
//! — current as points are appended, under hard latency budgets
//! between appends. It is the grammar-induction sibling of
//! `egi_discord::streaming::StreamingDiscordMonitor` (PR 3): ingest a
//! chunk of live traffic, spend a bounded slice of time refreshing
//! members, answer "most anomalous windows so far", repeat.
//!
//! # Architecture
//!
//! Every ensemble member runs a fully incremental pipeline, one layer
//! per crate:
//!
//! * **Prefix statistics** ([`egi_tskit::stats::PrefixStats`]) extend
//!   their running totals per append — bit-identical to a batch
//!   rebuild.
//! * **Sliding PAA** ([`egi_sax::stream::PaaStream`]) computes the PAA
//!   coefficients of every window the new points completed, via the
//!   one shared FastPAA kernel ([`egi_sax::paa_znorm_from_stats`]),
//!   and stores only each coefficient's cell in the all-alphabet
//!   breakpoint table — one binary search per coefficient, whatever
//!   the members' alphabets. Streams are shared across members with
//!   equal PAA size `w`, as in batch detection.
//! * **SAX word emission + numerosity reduction**
//!   ([`PaaStream::reduce_into`]) fold new windows into the token
//!   sequence online by mapping each stored cell through the member's
//!   alphabet lookup — the batch discretizer runs the same kernel over
//!   the whole stream.
//! * **Interning + grammar induction**
//!   ([`crate::intern::OnlineInterner`], [`egi_sequitur::Sequitur::push`])
//!   feed each retained token to the inherently online Sequitur engine.
//! * **Rule density** is maintained *in place*: the engine emits the
//!   net occurrence-span changes of each push
//!   ([`egi_sequitur::OccDelta`]) and
//!   [`RuleDensityCurve::fold_deltas`] folds each refresh's batch into
//!   the member's live curve — no grammar extraction, no occurrence
//!   re-enumeration, no full-curve rebuild (see *Delta maintenance vs.
//!   rebuild* below).
//!
//! Member curves combine under the *batch* detector's own
//! [`EnsembleDetector::combine_members`] (σ-ranking, τ-filter,
//! max-normalization, point-wise combiner), which borrows them where
//! they live, and batch
//! [`EnsembleDetector::member_curves`] runs each member through this
//! module's member refresh from an empty engine, so there is one member
//! pipeline and one Algorithm 1 implementation, not two.
//!
//! # Delta maintenance vs. rebuild
//!
//! **Cost model.** With delta tracking on, [`Sequitur::push`] emits
//! the *net* changes to the transitive occurrence-span multiset
//! ([`egi_sequitur::OccDelta`]): nothing for a plain terminal or a
//! rule-body creation, one created span per transitive occurrence of
//! the edited body for a substitution, one destroyed span for an
//! inline expansion — nested contributions cancel exactly because a
//! rule's body expands to precisely the tokens it replaced.
//! [`RuleDensityCurve::fold_deltas`] records each span's `±1` at the
//! two ends of its series interval in a difference array over the hull
//! of the refresh's intervals and adds it into the curve in one
//! running-sum pass, so a member
//! [`step`](StreamingEnsembleDetector::step) costs
//! `O(new windows + deltas + touched hull)` instead of the `O(series)`
//! of a [`RuleDensityCurve::from_occurrences`] rebuild.
//!
//! A refresh that starts from an **empty engine** — a member's first
//! fill, an eviction replay, a checkpoint restore, or a batch member —
//! has no curve worth patching: every span would be a creation. It
//! pushes with tracking off and builds the curve once with that
//! rebuild, then switches tracking on.
//! The refresh path is chosen only by whether the engine is empty.
//!
//! **Why integer deltas keep bit-parity for free.** Curve values are
//! exact small integers stored in `f64` (coverage counts). The rebuild
//! reaches them by a difference-array prefix scan over the whole
//! series; the fold by the same scan over the hull of a batch's
//! intervals, added onto the live curve. Addition of exact small
//! integers in `f64` is exact and order-independent, so the
//! delta-maintained curve is **bit-identical** to a
//! [`RuleDensityCurve::from_occurrences`] rebuild at every drain
//! boundary — the batch-parity contract of
//! [`finish`](StreamingEnsembleDetector::finish) holds by
//! construction, and the rebuild doubles as the test oracle
//! ([`delta_curves_match_rebuild`](StreamingEnsembleDetector::delta_curves_match_rebuild),
//! exercised by `tests/density_delta_proptests.rs` and the bench's
//! in-run parity gate).
//!
//! **Eviction rebase rule.** Pending deltas are in token coordinates;
//! eviction re-derives the token stream from a new origin, so
//! [`Sequitur::clear`] drops them. The member's cached curve — a
//! shifted structural carry served for snapshots — is *not* a valid
//! delta base; the member is flagged, and its next refresh starts from
//! the cleared engine, so the replay builds the curve once from the
//! suffix grammar and replaces the carry wholesale. A checkpoint
//! (member payload v3) stores such a member's carry curve and nothing
//! else; every other member is stored as its refresh length, and
//! restore replays it through the same refresh path.
//!
//! # Why streaming SAX is *exactly* incremental here
//!
//! Like the discord monitor's matrix-profile kernel, the
//! grammar-induction pipeline depends on no global of the series: a
//! window's z-normalization statistics come from prefix sums over
//! `[start, start + n]` only, and [`PrefixStats::extend`] leaves every
//! existing slot bit-identical — so **nothing computed before an append ever
//! needs recomputation**. No numerical carry-over layer exists because
//! none is needed.
//!
//! What *does* shift under appends is grammar structure: Sequitur may
//! form a new rule whose second occurrence is fresh but whose first
//! occurrence covers an old region, retroactively raising old density.
//! A member's cached curve is therefore a **carry-over in the
//! structural sense**: exact for the member's consumed prefix *as of
//! its last refresh*, served zero-padded to the current series length
//! by [`StreamingEnsembleDetector::snapshot`] until the member's next
//! refresh. Once
//! every member has caught up
//! ([`StreamingEnsembleDetector::is_current`]), the snapshot *is* the
//! batch ensemble curve, bit for bit.
//!
//! # Sliding-window eviction
//!
//! [`StreamingEnsembleDetector::evict`] retires the oldest points, and
//! [`StreamingEnsembleDetector::retain_last`] installs a retention
//! policy that trims automatically after every append — the
//! bounded-memory mode for unbounded streams. The parity contract
//! extends one level up: **after any interleaving of appends and
//! evictions, [`finish`](StreamingEnsembleDetector::finish) is
//! bit-identical to batch [`EnsembleDetector::detect`] over the
//! surviving suffix** (property-tested). Reported indices are local to
//! the live window; the global position of local index `i` is
//! [`stream_offset`](StreamingEnsembleDetector::stream_offset)` + i`.
//!
//! ## Eviction cost model (why eviction is a replay)
//!
//! Appends are exactly incremental here because nothing old is ever
//! recomputed. Eviction breaks both halves of that argument:
//!
//! * **Numerically**, a window's z-normalization reads prefix-sum
//!   *differences*, and after the front truncation the sums
//!   re-accumulate from a new origin (the statistics are rebuilt over
//!   the suffix, in place, with [`PrefixStats::clear`] and
//!   [`PrefixStats::extend`]), so surviving windows can
//!   re-discretize to different SAX words near breakpoint boundaries.
//!   The shared PAA streams are therefore rebuilt from the suffix's
//!   statistics at evict time ([`PaaStream::evict_front`],
//!   `O(remaining · w)` per distinct `w`).
//! * **Structurally**, Sequitur is order-dependent: the grammar of the
//!   token suffix is not a sub-grammar of the full-history grammar
//!   (rules whose occurrences lay in or straddled the retired region
//!   cease to exist; suffix-only rules may appear). Each member is
//!   therefore reset ([`NumerosityReduced::clear`],
//!   [`OnlineInterner::clear`](crate::intern::OnlineInterner::clear),
//!   [`Sequitur::clear`] — allocation-reusing) and **replays** the
//!   surviving windows through the normal refresh path, so the replay
//!   cost (`O(remaining)` per member) is paid in
//!   [`step`](StreamingEnsembleDetector::step) units under the usual
//!   deadline budgets, not inside `evict` itself.
//!
//! As with the discord monitor's re-transform, **callers should batch
//! evictions**: per eviction of `c` points the total work is
//! `O(remaining)`-shaped, i.e. `O(remaining / c)` per retired point.
//! Until a member's replay completes, [`snapshot`](StreamingEnsembleDetector::snapshot)
//! serves its pre-eviction curve shifted into suffix coordinates — the
//! structural carry-over again, healed by the next refresh.
//!
//! # Parity and budget contract
//!
//! * [`StreamingEnsembleDetector::finish`] returns an [`AnomalyReport`]
//!   — scores, ranked anomaly indices, tie-breaks, and the ensemble
//!   curve — **bit-identical** to batch
//!   [`EnsembleDetector::detect`] on the full ingested series, for
//!   every append schedule, chunk size (including 1-point appends),
//!   seed, and rayon worker count (property-tested, the PR 3 contract).
//! * One **unit of work** is one member refresh
//!   ([`StreamingEnsembleDetector::step`]): fold that member's backlog
//!   of fresh windows into its tokens and grammar, and fold the
//!   resulting occurrence deltas into its density curve (or, from an
//!   empty engine, build the curve once).
//!   [`StreamingEnsembleDetector::run_until`] checks the shared
//!   [`Deadline`] before each unit, so a wall-clock deadline is
//!   overshot by at most one member refresh (regression-tested).
//! * [`StreamingEnsembleDetector::append`] never does scoring work:
//!   its cost is `O(c)` statistics extension for `c` new points, plus
//!   `O(members)` queue bookkeeping.
//!
//! [`PrefixStats::extend`]: egi_tskit::stats::PrefixStats::extend
//! [`Deadline`]: egi_tskit::Deadline

use std::collections::VecDeque;
use std::io::{Read, Write};

/// The shared per-session telemetry snapshot, re-exported from
/// [`egi_obs`] for callers of [`StreamingEnsembleDetector::metrics`].
pub use egi_obs::SessionStats;
use egi_sax::stream::PaaStream;
use egi_sax::{NumerosityReduced, SaxConfig};
use egi_sequitur::Sequitur;
/// The persistence contract implemented by the detector, re-exported
/// from [`egi_tskit::checkpoint`]: save at any point of an
/// append/evict/step schedule, restore, replay the rest — the finished
/// report is bit-identical to the uninterrupted run.
pub use egi_tskit::checkpoint::{Checkpoint, CheckpointError};
use egi_tskit::checkpoint::{CheckpointReader, CheckpointWriter, FieldReader, FieldWriter};
use egi_tskit::evict::{validate_evict, EvictError};
use egi_tskit::session::StreamClock;
/// The shared session contract (and its budgeted drivers), re-exported
/// from [`egi_tskit::session`]: import it to drive the detector
/// generically (e.g. from an `egi-serve` fleet).
pub use egi_tskit::session::StreamSession;
use egi_tskit::stats::PrefixStats;
use egi_tskit::window::window_count;
use rayon::prelude::*;

use crate::density::RuleDensityCurve;
use crate::detector::{rank_anomalies, AnomalyReport, Candidate};
use crate::ensemble::{Combiner, EnsembleConfig, EnsembleDetector};
use crate::intern::OnlineInterner;

/// One ensemble member's incremental pipeline state: its token
/// sequence, live grammar, and last-computed density curve.
#[derive(Debug)]
struct MemberState {
    /// The member's `(w, a)` draw.
    sax: SaxConfig,
    /// Index of the shared PAA stream for this member's `w`.
    stream: usize,
    /// Online numerosity-reduced token sequence; its `end_offset`
    /// counts the sliding windows already folded into the pipeline.
    nr: NumerosityReduced,
    /// Online SAX-word interning table.
    interner: OnlineInterner,
    /// The live Sequitur engine (delta tracking on between refreshes).
    seq: Sequitur,
    /// Delta-maintained density curve; `curve.len()` records the
    /// series length as of the last refresh.
    curve: RuleDensityCurve,
    /// `true` while `curve` is a valid delta base (bit-identical to a
    /// rebuild from `seq.occurrences()` at `curve.len()` points).
    /// Cleared by eviction, whose shifted structural carry is served
    /// for snapshots but must be replaced — not delta-patched — by
    /// the next refresh (see the module docs' eviction rebase rule).
    delta_base: bool,
}

/// Builds one member's empty pipeline state (engine delta tracking on).
fn empty_member(sax: SaxConfig, stream: usize, window: usize) -> MemberState {
    let mut seq = Sequitur::new();
    seq.set_delta_tracking(true);
    MemberState {
        sax,
        stream,
        nr: NumerosityReduced::empty(window),
        interner: OnlineInterner::new(),
        seq,
        curve: RuleDensityCurve { values: Vec::new() },
        delta_base: true,
    }
}

/// Advances one member through every window in `nr.end_offset..target` and
/// brings its density curve to `series_len` points.
///
/// A member with a live grammar pushes its new tokens with delta
/// tracking on and folds the batch of occurrence deltas into its curve
/// in one pass over the batch's hull — `O(new windows + deltas +
/// touched hull)`, never `O(series)` (see the module docs' *Delta
/// maintenance vs. rebuild*). A member whose engine is empty — its
/// first fill, an eviction replay, or a checkpoint restore — has no
/// curve worth patching: it pushes with tracking off, builds the curve
/// once with [`RuleDensityCurve::from_occurrences`], and switches
/// tracking back on while the curve equals that rebuild, as
/// [`Sequitur::set_delta_tracking`] requires.
///
/// This is the "one unit of work" of the budget contract, shared by the
/// serial [`StreamingEnsembleDetector::step`] path, the parallel
/// catch-up, checkpoint restore, and batch
/// [`EnsembleDetector::member_curves`] ([`member_curve`]) — members are
/// independent, so running units in any order or on any worker count
/// yields identical member states.
///
/// Each refresh adds to three `egi-obs` counters: the deltas it folded,
/// the curve points it wrote, and the points a rebuild would have
/// written (the series length). A refresh from an empty engine, which
/// includes every batch member, counts as a full build on the last two.
fn refresh_member(member: &mut MemberState, stream: &PaaStream, target: usize, series_len: usize) {
    let fresh = member.seq.token_count() == 0;
    debug_assert!(
        fresh || member.delta_base,
        "curve flagged non-base with a live grammar"
    );
    if fresh {
        member.seq.set_delta_tracking(false);
    }
    let retained = member.nr.len();
    stream.reduce_into(&mut member.nr, member.sax.a, target);
    for token in &member.nr.tokens[retained..] {
        let id = member.interner.intern(token.word);
        member.seq.push(id);
    }
    let written = if fresh {
        member.curve =
            RuleDensityCurve::from_occurrences(&member.seq.occurrences(), &member.nr, series_len);
        member.seq.set_delta_tracking(true);
        member.delta_base = true;
        series_len
    } else {
        // Appends extend coverage with zeros until a rule covers them;
        // the curve never shrinks while the grammar lives.
        member.curve.values.resize(series_len, 0.0);
        let deltas = member.seq.take_deltas();
        egi_obs::counter!("egi_core_density_deltas_applied_total").add(deltas.len() as u64);
        member.curve.fold_deltas(&deltas, &member.nr)
    };
    egi_obs::counter!("egi_core_density_delta_coverage_points_total").add(written as u64);
    // What a from-scratch rebuild would have written instead — the
    // delta win is this counter divided by the coverage counter.
    egi_obs::counter!("egi_core_density_rebuild_equiv_points_total").add(series_len as u64);
}

/// The density curve of member `sax` run from an empty engine over every
/// window of `stream`, whose series has `series_len` points: the batch
/// member run, through the same [`refresh_member`] the detector steps.
pub(crate) fn member_curve(
    sax: SaxConfig,
    stream: &PaaStream,
    series_len: usize,
) -> RuleDensityCurve {
    // No detector's stream list here, so the member's index into one is moot.
    let mut member = empty_member(sax, 0, stream.n);
    refresh_member(&mut member, stream, stream.count, series_len);
    member.curve
}

/// The distinct PAA sizes of `params`, ascending: one shared
/// [`PaaStream`] each, which a member finds by binary search on its `w`.
pub(crate) fn distinct_ws(params: &[SaxConfig]) -> Vec<usize> {
    let mut ws: Vec<usize> = params.iter().map(|p| p.w).collect();
    ws.sort_unstable();
    ws.dedup();
    ws
}

/// An online ensemble grammar-induction detector over an append-only
/// time series.
///
/// See the [module docs](self) for the architecture, the
/// exact-vs-carry-over split, and the parity contract.
///
/// # Examples
///
/// ```
/// use egi_core::streaming::StreamingEnsembleDetector;
/// use egi_core::{EnsembleConfig, EnsembleDetector};
///
/// // A sine train with one corrupted beat in the second half.
/// let mut series: Vec<f64> = (0..600).map(|i| (i as f64 * 0.2).sin()).collect();
/// for (k, v) in series[400..430].iter_mut().enumerate() {
///     *v = 1.5 + (k as f64 * 1.3).cos();
/// }
///
/// let config = EnsembleConfig {
///     window: 40,
///     ensemble_size: 8,
///     ..EnsembleConfig::default()
/// };
/// let seed = 7;
/// let mut detector = StreamingEnsembleDetector::new(config, seed);
/// for chunk in series.chunks(100) {
///     detector.append(chunk);          // live traffic arrives…
///     detector.run_for(4);             // …refresh up to 4 members now,
///     let _ = detector.anomalies(1);   // best candidates so far
/// }
///
/// // Caught up, the result is bit-identical to the batch detector.
/// let report = detector.finish(1);
/// let batch = EnsembleDetector::new(config).detect(&series, 1, seed);
/// assert_eq!(report, batch);
/// let top = &report.anomalies[0];
/// assert!(top.start >= 360 && top.start <= 440, "found {}", top.start);
/// ```
#[derive(Debug)]
pub struct StreamingEnsembleDetector {
    detector: EnsembleDetector,
    seed: u64,
    series: Vec<f64>,
    stats: PrefixStats,
    /// One shared PAA stream per distinct member PAA size `w`
    /// (ascending), window length fixed at `config.window`.
    streams: Vec<PaaStream>,
    /// Members in draw order (= batch `member_params` order).
    members: Vec<MemberState>,
    /// Members awaiting a refresh, FIFO in member order.
    stale: VecDeque<usize>,
    /// Epoch, stream offset, and retention bookkeeping — the
    /// [`StreamClock`] shared by every [`StreamSession`] implementor.
    clock: StreamClock,
    /// Lifetime telemetry (appends, member refreshes, staleness) —
    /// pure `u64` bookkeeping, outside the checkpoint payload and
    /// every parity contract.
    telemetry: SessionStats,
}

impl StreamingEnsembleDetector {
    /// Builds an empty streaming detector.
    ///
    /// `seed` draws the member `(w, a)` pairs exactly as batch
    /// [`EnsembleDetector::detect`] does, so
    /// [`finish`](StreamingEnsembleDetector::finish) can land on the
    /// identical report.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid configurations as
    /// [`EnsembleDetector::new`].
    pub fn new(config: EnsembleConfig, seed: u64) -> Self {
        let detector = EnsembleDetector::new(config);
        let params = detector.member_params(seed);
        let ws = distinct_ws(&params);
        let streams: Vec<PaaStream> = ws
            .iter()
            .map(|&w| PaaStream::empty(config.window, w))
            .collect();
        let members: Vec<MemberState> = params
            .iter()
            .map(|&sax| {
                let stream = ws.binary_search(&sax.w).expect("w collected above");
                empty_member(sax, stream, config.window)
            })
            .collect();
        Self {
            detector,
            seed,
            series: Vec::new(),
            stats: PrefixStats::new(&[]),
            streams,
            members,
            stale: VecDeque::new(),
            clock: StreamClock::new(),
            telemetry: SessionStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> EnsembleConfig {
        self.detector.config()
    }

    /// The member-draw seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The drawn member parameter pairs, in member order (identical to
    /// batch [`EnsembleDetector::member_params`] for this seed).
    pub fn member_params(&self) -> Vec<SaxConfig> {
        self.members.iter().map(|m| m.sax).collect()
    }

    /// Points ingested so far.
    pub fn series_len(&self) -> usize {
        self.series.len()
    }

    /// The full series ingested so far.
    pub fn series(&self) -> &[f64] {
        &self.series
    }

    /// Number of sliding windows the current series supports.
    pub fn window_count(&self) -> usize {
        window_count(self.series.len(), self.config().window)
    }

    /// Members awaiting a refresh (= pending units of work).
    pub fn pending_members(&self) -> usize {
        self.stale.len()
    }

    /// Ingest events (appends and evictions) so far.
    pub fn epochs(&self) -> u64 {
        self.clock.epochs()
    }

    /// Points retired from the front of the stream so far. Every index
    /// the detector reports (anomaly starts, curve positions) is local
    /// to the live window; its global stream position is
    /// `stream_offset() + index`.
    pub fn stream_offset(&self) -> usize {
        self.clock.offset()
    }

    /// The retention policy installed by
    /// [`StreamingEnsembleDetector::retain_last`], if any.
    pub fn retention(&self) -> Option<usize> {
        self.clock.retention()
    }

    /// Total bytes retained by the shared PAA streams' cell buffers —
    /// cheap accessor for memory-bound assertions on eviction
    /// workloads.
    pub fn paa_capacity(&self) -> usize {
        self.streams.iter().map(PaaStream::capacity).sum()
    }

    /// Total grammar-slab slots allocated across members (live nodes
    /// plus free-list holes) — cheap accessor for memory-bound
    /// assertions; see [`Sequitur::slab_len`].
    pub fn slab_len(&self) -> usize {
        self.members.iter().map(|m| m.seq.slab_len()).sum()
    }

    /// Capacity (in `f64`s) retained by the live series buffer.
    pub fn series_capacity(&self) -> usize {
        self.series.capacity()
    }

    /// `true` once every member's curve covers the current series —
    /// from here [`snapshot`](Self::snapshot) and
    /// [`anomalies`](Self::anomalies) answer with the exact batch
    /// ensemble curve of the ingested series.
    pub fn is_current(&self) -> bool {
        self.stale.is_empty()
    }

    /// Lifetime telemetry for this detector: appends, evictions,
    /// member refreshes served, staleness (points appended since the
    /// ensemble last caught up), and structural staleness (points of
    /// the current snapshot served from a zero-pad or eviction carry
    /// rather than healed coverage — see
    /// [`structural_staleness`](Self::structural_staleness)). Pure
    /// `u64` counters, deliberately not part of checkpoints (a
    /// restored detector starts from zero).
    pub fn metrics(&self) -> SessionStats {
        self.telemetry
    }

    /// Points of the current series whose [`snapshot`](Self::snapshot)
    /// contribution is structurally stale for at least one member:
    /// zero-padded beyond the member's last refresh, or — after an
    /// eviction — served from the shifted pre-eviction carry until the
    /// replay heals it. Distinct from `SessionStats::staleness_points`
    /// (points *appended* since last caught up): an eviction adds no
    /// points but makes every member's whole curve structurally stale
    /// until its replay completes. Zero exactly when
    /// [`is_current`](Self::is_current) work has healed all coverage.
    pub fn structural_staleness(&self) -> usize {
        let len = self.series.len();
        let healed = self
            .members
            .iter()
            .map(|m| {
                if m.delta_base {
                    m.curve.len().min(len)
                } else {
                    0
                }
            })
            .min()
            .unwrap_or(len);
        len - healed
    }

    /// Test/bench oracle for the incremental density layer: `true` iff
    /// every member's delta-maintained curve is **bit-identical** to a
    /// from-scratch [`RuleDensityCurve::from_occurrences`] rebuild over
    /// its live grammar, and its engine tracks deltas so the next
    /// refresh can keep it so (members still serving a post-eviction
    /// carry are excluded — their curve is intentionally not a delta
    /// base until the replay refresh). The rebuild is also the refresh
    /// path of a member whose engine is empty; here it serves as a
    /// differential check, which the property harness in
    /// `tests/density_delta_proptests.rs` and the bench's in-run parity
    /// gate both assert after every schedule operation.
    pub fn delta_curves_match_rebuild(&self) -> bool {
        self.members.iter().all(|m| {
            !m.delta_base
                || (m.seq.delta_tracking()
                    && m.curve
                        == RuleDensityCurve::from_occurrences(
                            &m.seq.occurrences(),
                            &m.nr,
                            m.curve.len(),
                        ))
        })
    }

    /// Ingests new points. Never blocks on scoring work: the cost is
    /// the `O(c)` prefix-statistics extension plus `O(members)` queue
    /// bookkeeping; all discretization, grammar, and density work is
    /// deferred to [`step`](Self::step) / [`run_until`](Self::run_until)
    /// so the caller controls the latency budget.
    ///
    /// Every member goes stale on an append — even when no new window
    /// completed, curves must grow to the new series length (and fresh
    /// tokens may retroactively change old coverage through new rules).
    ///
    /// # Panics
    ///
    /// Panics if `points` contains non-finite values (same contract as
    /// batch [`EnsembleDetector::detect`]).
    pub fn append(&mut self, points: &[f64]) {
        assert!(
            points.iter().all(|v| v.is_finite()),
            "series contains non-finite values"
        );
        if points.is_empty() {
            return;
        }
        let span = egi_obs::SpanTimer::start();
        self.clock.record_append();
        self.series.extend_from_slice(points);
        self.stats.extend(points);
        self.stale.clear();
        self.stale.extend(0..self.members.len());
        let excess = self.clock.excess(self.series.len());
        if excess > 0 {
            self.evict(excess)
                .expect("retention >= window leaves a viable suffix");
        }
        self.telemetry
            .record_append(points.len() as u64, self.stale.is_empty());
        self.telemetry
            .set_structural_staleness(self.structural_staleness() as u64);
        span.record(egi_obs::histogram!("egi_monitor_append_nanos"));
    }

    /// Retires the oldest `count` points from the live window. After
    /// the eviction the detector behaves — bit for bit, for every
    /// future operation — like a fresh detector that ingested only the
    /// surviving suffix (plus the [`stream_offset`] bookkeeping), so
    /// [`finish`](Self::finish) lands on batch
    /// [`EnsembleDetector::detect`] over that suffix.
    ///
    /// The immediate cost is the statistics and shared PAA stream
    /// rebuild over the suffix (`O(remaining)`-shaped); each member's
    /// grammar replay over the suffix is deferred to
    /// [`step`](Self::step)/[`run_until`](Self::run_until) like any
    /// other refresh, and until it runs,
    /// [`snapshot`](Self::snapshot) serves the member's pre-eviction
    /// curve shifted into suffix coordinates (see the
    /// [module docs](self) for why eviction cannot be incremental).
    ///
    /// # Errors
    ///
    /// Rejected atomically (state untouched) when `count` exceeds the
    /// live point count ([`EvictError::PastEnd`]) or a non-empty suffix
    /// shorter than the analysis `window` would survive
    /// ([`EvictError::BelowMinimum`]). Evicting *everything* is
    /// allowed: the stream resets (offset preserved).
    ///
    /// [`stream_offset`]: Self::stream_offset
    pub fn evict(&mut self, count: usize) -> Result<(), EvictError> {
        validate_evict(self.series.len(), count, self.config().window)?;
        if count == 0 {
            return Ok(());
        }
        let span = egi_obs::SpanTimer::start();
        self.clock.record_evict(count);
        self.series.drain(..count);
        // Rebuilt in the old allocation, so the next append need not grow it.
        self.stats.clear();
        self.stats.extend(&self.series);
        for stream in &mut self.streams {
            stream.evict_front(count, &self.stats);
        }
        let windowless = window_count(self.series.len(), self.config().window) == 0;
        for member in &mut self.members {
            member.nr.clear();
            member.interner.clear();
            // Drops pending deltas too (the eviction rebase rule).
            member.seq.clear();
            member.delta_base = false;
            if windowless {
                // No window fits the suffix (under the boundary rule
                // this is the full drain): the exact batch curve is
                // all zeros, so materialize it now rather than letting
                // a stale carry of coincidentally-right length pass
                // the parallel catch-up's currency check.
                member.curve.values.clear();
                member.curve.values.resize(self.series.len(), 0.0);
            } else {
                // Structural carry for live snapshots: the cached
                // curve, shifted into suffix coordinates (exact for
                // the member's pre-eviction view, replaced wholesale
                // by its replay).
                let drop = count.min(member.curve.values.len());
                member.curve.values.drain(..drop);
            }
        }
        self.stale.clear();
        self.stale.extend(0..self.members.len());
        self.telemetry
            .record_evict(count as u64, self.stale.is_empty());
        self.telemetry
            .set_structural_staleness(self.structural_staleness() as u64);
        span.record(egi_obs::histogram!("egi_monitor_evict_nanos"));
        Ok(())
    }

    /// Installs a sliding-window retention policy and trims the live
    /// window to at most `n` points now and after every future append —
    /// the bounded-memory mode for unbounded streams. Returns how many
    /// points the immediate trim retired.
    ///
    /// # Errors
    ///
    /// [`EvictError::BelowMinimum`] when `n` is smaller than the
    /// analysis `window` (the policy could never keep a viable window);
    /// the state is untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use egi_core::streaming::StreamingEnsembleDetector;
    /// use egi_core::{EnsembleConfig, EnsembleDetector};
    ///
    /// let series: Vec<f64> = (0..700)
    ///     .map(|i| (i as f64 * 0.21).sin() + ((i * 11) % 5) as f64 * 0.04)
    ///     .collect();
    /// let config = EnsembleConfig {
    ///     window: 32,
    ///     ensemble_size: 6,
    ///     ..EnsembleConfig::default()
    /// };
    /// let mut detector = StreamingEnsembleDetector::new(config, 7);
    /// detector.retain_last(300).unwrap();
    /// for chunk in series.chunks(100) {
    ///     detector.append(chunk); // auto-trims to the last 300 points
    /// }
    /// assert_eq!(detector.series_len(), 300);
    /// assert_eq!(detector.stream_offset(), 400);
    ///
    /// // The finished report is bit-identical to the batch detector
    /// // over the surviving suffix.
    /// let report = detector.finish(2);
    /// let batch = EnsembleDetector::new(config).detect(&series[400..], 2, 7);
    /// assert_eq!(report, batch);
    /// ```
    pub fn retain_last(&mut self, n: usize) -> Result<usize, EvictError> {
        let window = self.config().window;
        if n < window {
            return Err(EvictError::BelowMinimum {
                remaining: n,
                minimum: window,
            });
        }
        self.clock.set_retention(n);
        let excess = self.clock.excess(self.series.len());
        if excess > 0 {
            self.evict(excess)?;
        }
        Ok(excess)
    }

    /// Refreshes the next stale member (one unit of work): advances the
    /// shared PAA stream, folds the member's backlog of fresh windows
    /// through cell lookup + numerosity reduction
    /// ([`PaaStream::reduce_into`]) → interning → [`Sequitur::push`],
    /// and brings its density curve to the current series length —
    /// folding the occurrence deltas, or building the curve once when
    /// the member's engine was empty. Returns `false` when no member
    /// is stale.
    pub fn step(&mut self) -> bool {
        let Some(i) = self.stale.pop_front() else {
            return false;
        };
        let target = self.window_count();
        let len = self.series.len();
        let si = self.members[i].stream;
        self.streams[si].extend_from_stats(&self.stats);
        refresh_member(&mut self.members[i], &self.streams[si], target, len);
        self.telemetry.record_step(self.stale.is_empty());
        self.telemetry
            .set_structural_staleness(self.structural_staleness() as u64);
        true
    }

    /// The current best-known ensemble rule-density curve, combined
    /// from each member's cached curve under the batch combination rule
    /// (σ-rank → τ-filter → max-normalize → point-wise combine) of
    /// [`EnsembleDetector::combine_members`].
    ///
    /// The members' curves are borrowed, not copied: stale members
    /// contribute their last refresh read as zero-padded to the current
    /// series length (the structural carry-over — see the
    /// [module docs](self)). The cost is two σ passes over every member
    /// curve and one normalizing, merging pass over the kept ones, and
    /// no member curve is copied. Once
    /// [`is_current`](Self::is_current), the result is bit-identical to
    /// batch [`EnsembleDetector::ensemble_curve`] on the ingested
    /// series.
    pub fn snapshot(&self) -> RuleDensityCurve {
        let curves: Vec<&[f64]> = self
            .members
            .iter()
            .map(|m| m.curve.values.as_slice())
            .collect();
        self.detector.combine_members(&curves, self.series.len())
    }

    /// Top-`k` non-overlapping anomaly candidates of the current
    /// [`snapshot`](Self::snapshot) — the "most anomalous windows so
    /// far" answer, available at any moment.
    pub fn anomalies(&self, k: usize) -> Vec<Candidate> {
        let curve = self.snapshot();
        rank_anomalies(&curve.values, self.config().window, k)
    }

    /// Refreshes every stale member on rayon workers and returns the
    /// finished report: **bit-identical** to batch
    /// [`EnsembleDetector::detect`] on the full ingested series with this
    /// detector's seed, for every append schedule, chunk size, and worker
    /// count.
    pub fn finish(&mut self, k: usize) -> AnomalyReport {
        self.catch_up();
        let curve = self.snapshot();
        let anomalies = rank_anomalies(&curve.values, self.config().window, k);
        AnomalyReport {
            anomalies,
            curve: curve.values,
        }
    }

    /// Drains the stale queue. Members are independent, so the parallel
    /// path (in-place rayon iteration) produces states bit-identical to
    /// stepping them one by one, which a queue of at most one member
    /// does.
    fn catch_up(&mut self) {
        if self.stale.len() <= 1 {
            while self.step() {}
            return;
        }
        self.telemetry.steps += self.stale.len() as u64;
        self.telemetry.caught_up += 1;
        self.telemetry.staleness_points = 0;
        self.stale.clear();
        let target = self.window_count();
        let len = self.series.len();
        for stream in self.streams.iter_mut() {
            stream.extend_from_stats(&self.stats);
        }
        let streams = &self.streams;
        self.members.par_iter_mut().for_each(|member| {
            if member.nr.end_offset < target || member.curve.len() != len || !member.delta_base {
                refresh_member(member, &streams[member.stream], target, len);
            }
        });
        self.telemetry
            .set_structural_staleness(self.structural_staleness() as u64);
    }
}

/// Section tag of the detector-state section (`b"ENS1"` little-endian).
const CKPT_SECTION_DETECTOR: u32 = u32::from_le_bytes(*b"ENS1");
/// Section tag of each per-member section (`b"MEM1"`), one per ensemble
/// member in draw order.
const CKPT_SECTION_MEMBER: u32 = u32::from_le_bytes(*b"MEM1");
/// Detector payload v2: the configuration, seed, clock, series, stale
/// queue and member count. v1 payloads, which also held the removed
/// `parallel` configuration flag, are rejected as
/// [`CheckpointError::UnsupportedSection`].
const CKPT_DETECTOR_VERSION: u32 = 2;
/// Member payload v3: a flag saying whether the member's curve is an
/// eviction carry, then either that carry curve or the series length
/// at the member's last refresh. Everything else a member holds is a
/// pure function of the series and its `(w, a)` draw, so the loader
/// replays it through [`refresh_member`]. v1 and v2 payloads (which
/// encoded token sequences, interning tables, and grammar slabs) are
/// rejected as [`CheckpointError::UnsupportedSection`].
const CKPT_MEMBER_VERSION: u32 = 3;

fn corrupt(what: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(what.into())
}

/// Persistence for the detector (see [`Checkpoint`] for the container
/// format). The checkpoint holds the series, the clock, the stale
/// queue, and per member only what the series cannot reproduce: an
/// eviction carry's curve, or else the series length of the member's
/// last refresh (member payload v3). Load re-derives the prefix
/// statistics and shared PAA streams, then replays every member that
/// is not a carry up to its refresh length through the member refresh
/// of [`step`](StreamingEnsembleDetector::step), the path a
/// post-eviction replay runs, so a restore costs a replay of the live
/// series. The replay is exact: a non-carry member always sits at
/// `window_count(curve.len(), window)` windows, its tokens come from
/// the re-derived PAA cells, interner ids follow first-seen order, a
/// Sequitur fed the same tokens evolves identically, the replay builds
/// the curve from the rebuild that a delta-folded curve equals at its
/// length, and no deltas are pending between units.
impl Checkpoint for StreamingEnsembleDetector {
    fn save_checkpoint(&self, writer: &mut impl Write) -> Result<(), CheckpointError> {
        let config = self.config();
        let mut out = CheckpointWriter::begin(writer, 1 + self.members.len() as u32)?;
        let mut f = FieldWriter::new();
        f.usize(config.window);
        f.usize(config.ensemble_size);
        f.usize(config.wmax);
        f.usize(config.amax);
        f.f64(config.selectivity);
        f.u32(match config.combiner {
            Combiner::Median => 0,
            Combiner::Mean => 1,
            Combiner::Min => 2,
            Combiner::Max => 3,
        });
        f.u64(self.seed);
        f.u64(self.clock.epochs());
        f.usize(self.clock.offset());
        f.opt_usize(self.clock.retention());
        f.f64_slice(&self.series);
        let stale: Vec<usize> = self.stale.iter().copied().collect();
        f.usize_slice(&stale);
        f.usize(self.members.len());
        out.section(
            CKPT_SECTION_DETECTOR,
            CKPT_DETECTOR_VERSION,
            &f.into_bytes(),
        )?;
        for member in &self.members {
            let mut f = FieldWriter::new();
            let carry = !member.delta_base;
            f.bool(carry);
            if carry {
                f.f64_slice(&member.curve.values);
            } else {
                f.usize(member.curve.len());
            }
            out.section(CKPT_SECTION_MEMBER, CKPT_MEMBER_VERSION, &f.into_bytes())?;
        }
        Ok(())
    }

    fn load_checkpoint(reader: &mut impl Read) -> Result<Self, CheckpointError> {
        let mut input = CheckpointReader::begin(reader)?;
        let (version, payload) = input.section(CKPT_SECTION_DETECTOR, CKPT_DETECTOR_VERSION)?;
        if version != CKPT_DETECTOR_VERSION {
            return Err(CheckpointError::UnsupportedSection {
                tag: CKPT_SECTION_DETECTOR,
                found: version,
                supported: CKPT_DETECTOR_VERSION,
            });
        }
        let mut f = FieldReader::new(&payload);
        let window = f.usize()?;
        let ensemble_size = f.usize()?;
        let wmax = f.usize()?;
        let amax = f.usize()?;
        let selectivity = f.f64()?;
        let combiner = match f.u32()? {
            0 => Combiner::Median,
            1 => Combiner::Mean,
            2 => Combiner::Min,
            3 => Combiner::Max,
            other => return Err(corrupt(format!("unknown combiner tag {other}"))),
        };
        let seed = f.u64()?;
        let epochs = f.u64()?;
        let offset = f.usize()?;
        let retention = f.opt_usize()?;
        let series = f.f64_vec()?;
        let stale = f.usize_vec()?;
        let member_count = f.usize()?;
        f.finish()?;

        let config = EnsembleConfig {
            window,
            ensemble_size,
            wmax,
            amax,
            selectivity,
            combiner,
        };
        // Every bound a panicking constructor downstream would assert,
        // surfaced as a typed error first.
        config.validate().map_err(|e| corrupt(e.to_string()))?;
        if !series.iter().all(|v| v.is_finite()) {
            return Err(corrupt("series contains non-finite values"));
        }
        if let Some(n) = retention {
            if n < window {
                return Err(corrupt(format!("retention {n} below window {window}")));
            }
        }
        let mut detector = Self::new(config, seed);
        if detector.members.len() != member_count
            || input.sections_remaining() as usize != member_count
        {
            return Err(corrupt(format!(
                "member count {member_count} disagrees with the {} drawn \
                 by this configuration and seed",
                detector.members.len()
            )));
        }
        let mut seen = vec![false; member_count];
        for &i in &stale {
            if i >= member_count || std::mem::replace(&mut seen[i], true) {
                return Err(corrupt("stale queue cites a bad member"));
            }
        }
        detector.series = series;
        detector.stats = PrefixStats::new(&detector.series);
        for stream in &mut detector.streams {
            stream.extend_from_stats(&detector.stats);
        }
        let len = detector.series.len();
        for (i, member) in detector.members.iter_mut().enumerate() {
            let (version, payload) = input.section(CKPT_SECTION_MEMBER, CKPT_MEMBER_VERSION)?;
            if version != CKPT_MEMBER_VERSION {
                // v1 and v2 members encode the whole pipeline state,
                // which v3 replays instead.
                return Err(CheckpointError::UnsupportedSection {
                    tag: CKPT_SECTION_MEMBER,
                    found: version,
                    supported: CKPT_MEMBER_VERSION,
                });
            }
            let mut f = FieldReader::new(&payload);
            let carry = f.bool()?;
            let current = if carry {
                let curve = f.f64_vec()?;
                f.finish()?;
                if curve.len() > len || !curve.iter().all(|v| v.is_finite()) {
                    return Err(corrupt(format!("member {i} carries a malformed curve")));
                }
                member.delta_base = false;
                member.curve = RuleDensityCurve { values: curve };
                false
            } else {
                let refreshed = f.usize()?;
                f.finish()?;
                if refreshed > len {
                    return Err(corrupt(format!("member {i} refreshed beyond the series")));
                }
                let stream = &detector.streams[member.stream];
                refresh_member(member, stream, window_count(refreshed, window), refreshed);
                refreshed == len
            };
            // Only a queued member may lag the series: one outside the
            // queue would never be refreshed, and finish would serve
            // its stale curve as the batch answer.
            if !current && !seen[i] {
                return Err(corrupt(format!("member {i} is out of date but not queued")));
            }
        }
        detector.stale = stale.into();
        detector.clock = StreamClock::with_state(epochs, offset, retention);
        // Lifetime counters restart at zero, but structural staleness
        // is a level derived from the restored state — initialize the
        // gauge so a half-healed snapshot reports truthfully at once.
        detector
            .telemetry
            .set_structural_staleness(detector.structural_staleness() as u64);
        Ok(detector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::Combiner;
    use egi_tskit::Deadline;
    use std::time::{Duration, Instant};

    fn test_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.11).sin() * 1.4 + 0.6 * (t * 0.037).cos() + ((i * 31) % 17) as f64 * 0.05
            })
            .collect()
    }

    fn config(window: usize, members: usize) -> EnsembleConfig {
        EnsembleConfig {
            window,
            ensemble_size: members,
            ..EnsembleConfig::default()
        }
    }

    #[test]
    fn finish_matches_batch_detect_bitwise() {
        let series = test_series(400);
        let cfg = config(32, 10);
        let batch = EnsembleDetector::new(cfg).detect(&series, 3, 11);
        for chunk in [1usize, 13, 100, 400] {
            let mut streaming = StreamingEnsembleDetector::new(cfg, 11);
            for part in series.chunks(chunk) {
                streaming.append(part);
            }
            let report = streaming.finish(3);
            assert_eq!(report, batch, "chunk {chunk}");
            assert!(streaming.is_current());
        }
    }

    #[test]
    fn interleaved_stepping_still_matches_batch() {
        let series = test_series(350);
        let cfg = config(28, 8);
        let batch = EnsembleDetector::new(cfg).detect(&series, 2, 5);
        let mut streaming = StreamingEnsembleDetector::new(cfg, 5);
        for part in series.chunks(37) {
            streaming.append(part);
            streaming.run_for(3); // leave a backlog on purpose
            let _ = streaming.snapshot();
            let _ = streaming.anomalies(2);
        }
        assert_eq!(streaming.finish(2), batch);
    }

    #[test]
    fn member_draw_matches_batch_member_params() {
        let cfg = config(64, 20);
        let streaming = StreamingEnsembleDetector::new(cfg, 99);
        let batch = EnsembleDetector::new(cfg).member_params(99);
        assert_eq!(streaming.member_params(), batch);
    }

    #[test]
    fn append_defers_all_scoring_work() {
        let mut streaming = StreamingEnsembleDetector::new(config(16, 6), 1);
        streaming.append(&test_series(200));
        assert_eq!(streaming.pending_members(), 6);
        assert_eq!(streaming.epochs(), 1);
        assert!(!streaming.is_current());
        // Members are untouched until stepped.
        assert!(streaming.members.iter().all(|m| m.nr.end_offset == 0));
        assert_eq!(streaming.run_for(usize::MAX), 6);
        assert!(streaming.is_current());
    }

    #[test]
    fn snapshot_before_any_step_is_all_zero() {
        let mut streaming = StreamingEnsembleDetector::new(config(16, 5), 3);
        streaming.append(&test_series(120));
        let snap = streaming.snapshot();
        assert_eq!(snap.len(), 120);
        assert!(snap.values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn snapshot_when_current_equals_batch_ensemble_curve() {
        let series = test_series(300);
        let cfg = config(24, 7);
        let mut streaming = StreamingEnsembleDetector::new(cfg, 21);
        for part in series.chunks(50) {
            streaming.append(part);
            streaming.run_for(usize::MAX);
        }
        let batch = EnsembleDetector::new(cfg).ensemble_curve(&series, 21);
        assert_eq!(streaming.snapshot(), batch);
    }

    #[test]
    fn short_series_yields_empty_everything() {
        let mut streaming = StreamingEnsembleDetector::new(config(64, 5), 0);
        streaming.append(&test_series(10)); // shorter than the window
        assert_eq!(streaming.window_count(), 0);
        assert!(streaming.anomalies(3).is_empty());
        let report = streaming.finish(3);
        assert!(report.anomalies.is_empty());
        assert_eq!(report.curve, vec![0.0; 10]);
        let batch = EnsembleDetector::new(config(64, 5)).detect(streaming.series(), 3, 0);
        assert_eq!(report, batch);
    }

    #[test]
    fn empty_append_is_a_noop() {
        let mut streaming = StreamingEnsembleDetector::new(config(8, 4), 2);
        streaming.append(&[]);
        assert_eq!(streaming.epochs(), 0);
        assert_eq!(streaming.series_len(), 0);
        assert!(streaming.is_current());
    }

    #[test]
    fn expired_deadline_runs_zero_units() {
        let mut streaming = StreamingEnsembleDetector::new(config(8, 6), 4);
        streaming.append(&test_series(100));
        assert_eq!(streaming.run_until(Deadline::at(Instant::now())), 0);
        assert_eq!(streaming.pending_members(), 6);
        assert_eq!(streaming.run_for_duration(Duration::ZERO), 0);
    }

    #[test]
    fn deadline_overshoots_by_at_most_one_unit() {
        // A deadline that expires mid-run: the unit count processed can
        // exceed the expiry check count by at most one (checked before
        // each unit).
        let mut streaming = StreamingEnsembleDetector::new(config(8, 10), 4);
        streaming.append(&test_series(300));
        let ran = streaming.run_until(Deadline::queries(3));
        assert_eq!(ran, 3, "query-capped deadline runs exactly the cap");
        assert_eq!(streaming.pending_members(), 7);
    }

    #[test]
    fn finish_deterministic_across_thread_counts() {
        let series = test_series(280);
        let cfg = config(18, 8);
        let reference = EnsembleDetector::new(cfg).detect(&series, 2, 13);
        for threads in [1usize, 2, 4] {
            let mut streaming = StreamingEnsembleDetector::new(cfg, 13);
            for part in series.chunks(45) {
                streaming.append(part);
                streaming.run_for(2);
            }
            let report = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| streaming.finish(2));
            assert_eq!(report, reference, "{threads} threads");
        }
    }

    #[test]
    fn detects_planted_anomaly_mid_stream() {
        let mut series: Vec<f64> = (0..500).map(|i| (i as f64 * 0.25).sin()).collect();
        for (k, v) in series[350..380].iter_mut().enumerate() {
            *v = 1.8 + (k as f64 * 1.1).cos();
        }
        let mut streaming = StreamingEnsembleDetector::new(config(40, 10), 42);
        for part in series.chunks(125) {
            streaming.append(part);
            streaming.run_for(usize::MAX);
        }
        let top = streaming.anomalies(1);
        assert_eq!(top.len(), 1);
        assert!(
            (310..=390).contains(&top[0].start),
            "top candidate at {} should cover the corrupted beat",
            top[0].start
        );
    }

    #[test]
    fn alternative_combiner_parity_holds_too() {
        let series = test_series(260);
        let cfg = EnsembleConfig {
            combiner: Combiner::Mean,
            selectivity: 0.6,
            ..config(22, 7)
        };
        let batch = EnsembleDetector::new(cfg).detect(&series, 2, 77);
        let mut streaming = StreamingEnsembleDetector::new(cfg, 77);
        for part in series.chunks(19) {
            streaming.append(part);
        }
        assert_eq!(streaming.finish(2), batch);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_append_rejected() {
        let mut streaming = StreamingEnsembleDetector::new(config(8, 4), 0);
        streaming.append(&[1.0, f64::NAN]);
    }

    // ------------------------------------------------------------------
    // Sliding-window eviction: boundary regressions. The property
    // harness in tests/eviction_proptests.rs covers random schedules;
    // these pin the exact edges of the contract.
    // ------------------------------------------------------------------

    #[test]
    fn evict_then_finish_matches_batch_over_suffix() {
        let series = test_series(360);
        let cfg = config(24, 7);
        for cut in [1usize, 60, 200] {
            let mut streaming = StreamingEnsembleDetector::new(cfg, 9);
            for part in series.chunks(45) {
                streaming.append(part);
                streaming.run_for(2);
            }
            streaming.evict(cut).unwrap();
            assert_eq!(streaming.stream_offset(), cut);
            let report = streaming.finish(3);
            let batch = EnsembleDetector::new(cfg).detect(&series[cut..], 3, 9);
            assert_eq!(report, batch, "cut {cut}");
        }
    }

    #[test]
    fn evict_to_exactly_window_points_leaves_one_window() {
        let series = test_series(200);
        let cfg = config(20, 6);
        let mut streaming = StreamingEnsembleDetector::new(cfg, 4);
        streaming.append(&series);
        streaming.evict(series.len() - 20).unwrap();
        assert_eq!(streaming.series_len(), 20);
        assert_eq!(streaming.window_count(), 1);
        let report = streaming.finish(2);
        let batch = EnsembleDetector::new(cfg).detect(&series[180..], 2, 4);
        assert_eq!(report, batch);
    }

    #[test]
    fn evict_below_minimum_errors_without_state_change() {
        let series = test_series(100);
        let cfg = config(16, 5);
        let mut streaming = StreamingEnsembleDetector::new(cfg, 2);
        streaming.append(&series);
        streaming.run_for(usize::MAX);
        let before = streaming.snapshot();
        assert_eq!(
            streaming.evict(90),
            Err(EvictError::BelowMinimum {
                remaining: 10,
                minimum: 16
            })
        );
        assert_eq!(
            streaming.evict(101),
            Err(EvictError::PastEnd {
                requested: 101,
                available: 100
            })
        );
        assert_eq!(streaming.series_len(), 100);
        assert_eq!(streaming.stream_offset(), 0);
        assert!(streaming.is_current());
        assert_eq!(streaming.snapshot(), before);
    }

    #[test]
    fn evict_everything_then_append_restarts_cleanly() {
        let series = test_series(300);
        let cfg = config(18, 6);
        let mut streaming = StreamingEnsembleDetector::new(cfg, 3);
        streaming.append(&series[..160]);
        streaming.run_for(3);
        streaming.evict(160).unwrap();
        assert_eq!(streaming.series_len(), 0);
        assert_eq!(streaming.window_count(), 0);
        assert_eq!(streaming.stream_offset(), 160);
        assert!(streaming.snapshot().is_empty());
        streaming.append(&series[160..]);
        let report = streaming.finish(2);
        let batch = EnsembleDetector::new(cfg).detect(&series[160..], 2, 3);
        assert_eq!(report, batch);
        assert_eq!(streaming.stream_offset(), 160);
    }

    #[test]
    fn full_drain_parallel_finish_serves_empty_report_exactly() {
        // The only valid windowless suffix is the empty one (the
        // boundary rule rejects 0 < suffix < window); both stepping the
        // members and the parallel finish must serve the empty batch
        // report even though members were current before the drain.
        let series = test_series(150);
        let cfg = config(30, 5);
        for step_first in [false, true] {
            let mut streaming = StreamingEnsembleDetector::new(cfg, 6);
            streaming.append(&series);
            streaming.run_for(usize::MAX);
            assert_eq!(
                streaming.evict(140),
                Err(EvictError::BelowMinimum {
                    remaining: 10,
                    minimum: 30
                })
            );
            streaming.evict(150).unwrap();
            assert_eq!(streaming.window_count(), 0);
            if step_first {
                assert_eq!(streaming.run_for(usize::MAX), 5);
            }
            let report = streaming.finish(2);
            let batch = EnsembleDetector::new(cfg).detect(&[], 2, 6);
            assert_eq!(report, batch, "step first {step_first}");
            assert!(report.curve.is_empty());
        }
    }

    #[test]
    fn one_point_evictions_mirror_one_point_appends() {
        let series = test_series(160);
        let cfg = config(14, 5);
        let mut streaming = StreamingEnsembleDetector::new(cfg, 8);
        streaming.append(&series);
        for step in 1..=30usize {
            streaming.evict(1).unwrap();
            assert_eq!(streaming.stream_offset(), step);
            streaming.run_for(1);
        }
        let report = streaming.finish(2);
        let batch = EnsembleDetector::new(cfg).detect(&series[30..], 2, 8);
        assert_eq!(report, batch);
    }

    #[test]
    fn retain_last_policy_trims_on_every_append() {
        let series = test_series(500);
        let cfg = config(22, 6);
        assert_eq!(
            StreamingEnsembleDetector::new(cfg, 5).retain_last(21),
            Err(EvictError::BelowMinimum {
                remaining: 21,
                minimum: 22
            })
        );
        let mut streaming = StreamingEnsembleDetector::new(cfg, 5);
        assert_eq!(streaming.retain_last(150), Ok(0));
        assert_eq!(streaming.retention(), Some(150));
        for part in series.chunks(40) {
            streaming.append(part);
            assert!(streaming.series_len() <= 150);
            streaming.run_for(3);
        }
        assert_eq!(streaming.series_len(), 150);
        assert_eq!(streaming.stream_offset(), 350);
        let report = streaming.finish(2);
        let batch = EnsembleDetector::new(cfg).detect(&series[350..], 2, 5);
        assert_eq!(report, batch);
    }

    #[test]
    fn snapshot_after_evict_serves_shifted_carry_inside_live_window() {
        let series = test_series(260);
        let cfg = config(20, 5);
        let mut streaming = StreamingEnsembleDetector::new(cfg, 11);
        streaming.append(&series);
        streaming.run_for(usize::MAX);
        streaming.evict(60).unwrap();
        // Before any replay, the snapshot serves the pre-eviction
        // curves shifted into suffix coordinates — right length, and
        // every reported candidate inside the live window.
        let snap = streaming.snapshot();
        assert_eq!(snap.len(), 200);
        for c in streaming.anomalies(3) {
            assert!(c.start + c.len <= 200, "candidate escaped the window");
        }
        // Replay restores batch exactness.
        let report = streaming.finish(3);
        let batch = EnsembleDetector::new(cfg).detect(&series[60..], 3, 11);
        assert_eq!(report, batch);
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore: pinned mid-schedule round trips. The property
    // harness in tests/checkpoint_proptests.rs injects save/restore at
    // every prefix of random schedules; these pin the structural edges.
    // ------------------------------------------------------------------

    #[test]
    fn checkpoint_round_trip_resumes_bit_identically() {
        let series = test_series(420);
        let cfg = EnsembleConfig {
            combiner: Combiner::Mean,
            selectivity: 0.7,
            ..config(24, 7)
        };
        let mut live = StreamingEnsembleDetector::new(cfg, 17);
        live.append(&series[..260]);
        live.run_for(4); // mid-refresh: some members current, some stale
        live.evict(50).unwrap();
        live.run_for(2);
        live.append(&series[260..340]);
        live.run_for(3);

        let bytes = live.checkpoint_bytes().unwrap();
        let mut restored = StreamingEnsembleDetector::from_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(restored.seed(), 17);
        assert_eq!(restored.config(), cfg);
        assert_eq!(restored.stream_offset(), live.stream_offset());
        assert_eq!(restored.pending_members(), live.pending_members());
        assert_eq!(restored.snapshot(), live.snapshot());

        // Replay the identical remainder on both sides.
        for detector in [&mut live, &mut restored] {
            detector.run_for(2);
            detector.append(&series[340..]);
            detector.run_for(3);
            detector.evict(31).unwrap();
        }
        assert_eq!(restored.snapshot(), live.snapshot());
        assert_eq!(restored.finish(3), live.finish(3));
    }

    #[test]
    fn checkpoint_restore_lands_on_batch_parity() {
        // The restored detector inherits the full contract: finishing
        // after restore is bit-identical to batch detect on the suffix.
        let series = test_series(300);
        let cfg = config(20, 6);
        let mut live = StreamingEnsembleDetector::new(cfg, 3);
        live.retain_last(220).unwrap();
        for part in series.chunks(70) {
            live.append(part);
            live.run_for(2);
        }
        let mut restored =
            StreamingEnsembleDetector::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        assert_eq!(restored.retention(), Some(220));
        let report = restored.finish(2);
        let batch = EnsembleDetector::new(cfg).detect(&series[300 - 220..], 2, 3);
        assert_eq!(report, batch);
    }

    #[test]
    fn checkpoint_of_an_empty_detector_round_trips() {
        let live = StreamingEnsembleDetector::new(config(16, 5), 9);
        let mut restored =
            StreamingEnsembleDetector::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        assert_eq!(restored.series_len(), 0);
        assert!(restored.is_current());
        let series = test_series(140);
        restored.append(&series);
        let batch = EnsembleDetector::new(config(16, 5)).detect(&series, 2, 9);
        assert_eq!(restored.finish(2), batch);
    }

    /// Every section payload of a detector checkpoint, detector first.
    fn payloads(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut cursor = bytes;
        let mut input = CheckpointReader::begin(&mut cursor).unwrap();
        let (_, detector) = input
            .section(CKPT_SECTION_DETECTOR, CKPT_DETECTOR_VERSION)
            .unwrap();
        let mut out = vec![detector];
        while input.sections_remaining() > 0 {
            let (_, member) = input
                .section(CKPT_SECTION_MEMBER, CKPT_MEMBER_VERSION)
                .unwrap();
            out.push(member);
        }
        out
    }

    /// Frames a detector payload and member payloads as a checkpoint
    /// with valid checksums.
    fn assemble(detector: &[u8], members: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut out = CheckpointWriter::begin(&mut bytes, 1 + members.len() as u32).unwrap();
        out.section(CKPT_SECTION_DETECTOR, CKPT_DETECTOR_VERSION, detector)
            .unwrap();
        for member in members {
            out.section(CKPT_SECTION_MEMBER, CKPT_MEMBER_VERSION, member)
                .unwrap();
        }
        bytes
    }

    #[test]
    fn checkpoint_rejects_malformed_input_with_typed_errors() {
        let series = test_series(200);
        let mut detector = StreamingEnsembleDetector::new(config(18, 5), 1);
        detector.append(&series);
        detector.run_for(3);
        let bytes = detector.checkpoint_bytes().unwrap();

        let mut foreign = bytes.clone();
        foreign[0] ^= 0xFF;
        assert!(matches!(
            StreamingEnsembleDetector::from_checkpoint_bytes(&foreign),
            Err(CheckpointError::BadMagic)
        ));
        for cut in [0, 8, 12, 16, 60, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                StreamingEnsembleDetector::from_checkpoint_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut flipped = bytes.clone();
        let target = flipped.len() * 2 / 3;
        flipped[target] ^= 0x40;
        assert!(StreamingEnsembleDetector::from_checkpoint_bytes(&flipped).is_err());

        // A checkpoint of some other session type (different leading
        // section tag) is rejected as such, not misparsed.
        let mut alien = Vec::new();
        let mut writer = CheckpointWriter::begin(&mut alien, 1).unwrap();
        writer
            .section(u32::from_le_bytes(*b"MON1"), 1, &[1, 2, 3])
            .unwrap();
        assert!(matches!(
            StreamingEnsembleDetector::from_checkpoint_bytes(&alien),
            Err(CheckpointError::UnexpectedSection { .. })
        ));

        // Well-framed member payloads whose contents cannot hold.
        // Member 3 is still queued, so each is rejected for its own
        // field, not for lagging the series.
        let sections = payloads(&bytes);
        let (head, members) = sections.split_first().unwrap();
        assert!(StreamingEnsembleDetector::from_checkpoint_bytes(&assemble(head, members)).is_ok());
        let refreshed_beyond = {
            let mut f = FieldWriter::new();
            f.bool(false);
            f.usize(series.len() + 1);
            f
        };
        let non_finite_carry = {
            let mut f = FieldWriter::new();
            f.bool(true);
            f.f64_slice(&[0.0, f64::NAN]);
            f
        };
        let carry_beyond = {
            let mut f = FieldWriter::new();
            f.bool(true);
            f.f64_slice(&vec![0.0; series.len() + 1]);
            f
        };
        for bad in [refreshed_beyond, non_finite_carry, carry_beyond] {
            let mut members = members.to_vec();
            members[3] = bad.into_bytes();
            assert!(matches!(
                StreamingEnsembleDetector::from_checkpoint_bytes(&assemble(head, &members)),
                Err(CheckpointError::Corrupt(_))
            ));
        }

        // A stale queue that hides out-of-date members: the detector
        // section of a caught-up session, which queues no member,
        // framed with members refreshed 100 points behind its series.
        let mut current = StreamingEnsembleDetector::new(config(18, 5), 1);
        current.append(&series);
        current.run_for(usize::MAX);
        let mut behind = StreamingEnsembleDetector::new(config(18, 5), 1);
        behind.append(&series[..100]);
        behind.run_for(usize::MAX);
        behind.append(&series[100..]);
        let hidden = assemble(
            &payloads(&current.checkpoint_bytes().unwrap())[0],
            &payloads(&behind.checkpoint_bytes().unwrap())[1..],
        );
        assert!(matches!(
            StreamingEnsembleDetector::from_checkpoint_bytes(&hidden),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    /// The section reader accepts every payload version up to the
    /// current one, so the loader rejects a v1 detector payload by its
    /// version: today's payload framed as v1 fails with a typed error
    /// instead of loading.
    #[test]
    fn detector_payload_v1_is_rejected_by_its_version() {
        let mut detector = StreamingEnsembleDetector::new(config(18, 5), 1);
        detector.append(&test_series(120));
        detector.run_for(2);
        let sections = payloads(&detector.checkpoint_bytes().unwrap());
        let mut bytes = Vec::new();
        let mut out = CheckpointWriter::begin(&mut bytes, sections.len() as u32).unwrap();
        out.section(CKPT_SECTION_DETECTOR, 1, &sections[0]).unwrap();
        for member in &sections[1..] {
            out.section(CKPT_SECTION_MEMBER, CKPT_MEMBER_VERSION, member)
                .unwrap();
        }
        assert!(matches!(
            StreamingEnsembleDetector::from_checkpoint_bytes(&bytes),
            Err(CheckpointError::UnsupportedSection {
                tag: CKPT_SECTION_DETECTOR,
                found: 1,
                supported: 2,
            })
        ));
    }

    // ------------------------------------------------------------------
    // Member payload v3: what a checkpoint keeps of a member, and why
    // replaying the rest is exact.
    // ------------------------------------------------------------------

    /// One op of the pinned schedules below.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Append(usize, usize),
        Run(usize),
        Evict(usize),
    }

    /// Appends, partial refreshes, an eviction whose carries are only
    /// partly replayed, and one-point appends.
    const SCHEDULE: [Op; 11] = [
        Op::Append(0, 180),
        Op::Run(3),
        Op::Append(180, 181),
        Op::Run(2),
        Op::Evict(40),
        Op::Run(2),
        Op::Append(181, 260),
        Op::Evict(1),
        Op::Run(9),
        Op::Append(260, 300),
        Op::Run(1),
    ];

    fn apply(detector: &mut StreamingEnsembleDetector, series: &[f64], op: Op) {
        match op {
            Op::Append(from, to) => detector.append(&series[from..to]),
            Op::Run(units) => {
                detector.run_for(units);
            }
            Op::Evict(count) => detector.evict(count).unwrap(),
        }
    }

    /// Bit patterns of a curve, so equality means bit-identical.
    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn members_sit_at_their_refresh_window_count_or_carry_an_empty_pipeline() {
        // What lets v3 store a member as one length: a non-carry member
        // has folded exactly the windows of its curve's length, and a
        // carry holds no tokens to replay.
        let series = test_series(300);
        let cfg = config(20, 6);
        let mut detector = StreamingEnsembleDetector::new(cfg, 5);
        let (mut carries, mut bases) = (0, 0);
        for (step, op) in SCHEDULE.into_iter().enumerate() {
            apply(&mut detector, &series, op);
            for (i, m) in detector.members.iter().enumerate() {
                if m.delta_base {
                    bases += 1;
                    assert_eq!(
                        m.nr.end_offset,
                        window_count(m.curve.len(), cfg.window),
                        "step {step} ({op:?}), member {i}"
                    );
                    assert_eq!(m.seq.token_count(), m.nr.len(), "step {step}, member {i}");
                } else {
                    carries += 1;
                    assert_eq!(m.nr.end_offset, 0, "step {step}, member {i}");
                    assert_eq!(m.seq.token_count(), 0, "step {step}, member {i}");
                    assert!(m.interner.is_empty(), "step {step}, member {i}");
                }
            }
        }
        assert!(
            carries > 0 && bases > 0,
            "schedule never mixed carries and bases"
        );
    }

    #[test]
    fn restore_replays_every_member_to_its_live_state() {
        let series = test_series(300);
        let cfg = config(20, 6);
        let mut live = StreamingEnsembleDetector::new(cfg, 5);
        for (step, op) in SCHEDULE.into_iter().enumerate() {
            apply(&mut live, &series, op);
            let bytes = live.checkpoint_bytes().unwrap();
            let mut restored = StreamingEnsembleDetector::from_checkpoint_bytes(&bytes).unwrap();
            assert_eq!(restored.stale, live.stale, "step {step} ({op:?})");
            for (i, (r, l)) in restored
                .members
                .iter_mut()
                .zip(live.members.iter_mut())
                .enumerate()
            {
                let at = format!("step {step} ({op:?}), member {i}");
                assert_eq!(r.delta_base, l.delta_base, "{at}");
                assert_eq!(bits(&r.curve.values), bits(&l.curve.values), "{at}");
                assert_eq!(r.nr, l.nr, "{at}");
                let ids = |interner: &OnlineInterner, nr: &NumerosityReduced| {
                    let mut table = interner.clone();
                    let ids: Vec<u32> = nr.tokens.iter().map(|t| table.intern(t.word)).collect();
                    (ids, table.len())
                };
                assert_eq!(ids(&r.interner, &r.nr), ids(&l.interner, &l.nr), "{at}");
                assert_eq!(r.interner.len(), l.interner.len(), "{at}");
                assert_eq!(r.seq.token_count(), l.seq.token_count(), "{at}");
                assert_eq!(r.seq.to_grammar(), l.seq.to_grammar(), "{at}");
                assert!(r.seq.delta_tracking(), "{at}");
                assert!(r.seq.take_deltas().is_empty(), "{at}");
                assert!(l.seq.take_deltas().is_empty(), "{at}");
            }
            // A restored session checkpoints back to the same bytes.
            assert_eq!(restored.checkpoint_bytes().unwrap(), bytes, "step {step}");
        }
    }

    #[test]
    fn member_payloads_hold_only_a_refresh_length_or_a_carry() {
        let series = test_series(300);
        let mut detector = StreamingEnsembleDetector::new(config(20, 6), 5);
        for op in &SCHEDULE[..6] {
            apply(&mut detector, &series, *op);
        }
        let bytes = detector.checkpoint_bytes().unwrap();
        let sections = payloads(&bytes);
        assert_eq!(sections.len(), 1 + detector.members.len());
        let (mut carries, mut bases) = (0, 0);
        for (i, (payload, m)) in sections[1..].iter().zip(&detector.members).enumerate() {
            let mut f = FieldReader::new(payload);
            if f.bool().unwrap() {
                carries += 1;
                assert!(!m.delta_base, "member {i}");
                assert_eq!(
                    bits(&f.f64_vec().unwrap()),
                    bits(&m.curve.values),
                    "member {i}"
                );
            } else {
                bases += 1;
                assert!(m.delta_base, "member {i}");
                assert_eq!(f.usize().unwrap(), m.curve.len(), "member {i}");
                // A flag and a length, however long the series.
                assert_eq!(payload.len(), 1 + 8, "member {i}");
            }
            f.finish().unwrap();
        }
        assert!(carries > 0 && bases > 0, "expected both payload kinds");
    }

    /// Eviction rebuilds the prefix statistics from the suffix's first
    /// point, so every range the PAA streams read sums exactly as in a
    /// fresh build over the suffix, and later appends keep extending
    /// them on that batch path.
    #[test]
    fn evict_rebuilds_the_statistics_over_the_suffix() {
        let series = test_series(300);
        let mut streaming = StreamingEnsembleDetector::new(config(24, 4), 3);
        streaming.append(&series[..200]);
        streaming.run_for(2);
        streaming.evict(70).unwrap();
        streaming.append(&series[200..]);
        let fresh = PrefixStats::new(&series[70..]);
        assert_eq!(streaming.stats.len(), fresh.len());
        for end in 0..=fresh.len() {
            assert_eq!(streaming.stats.range_sum(0, end), fresh.range_sum(0, end));
            assert_eq!(
                streaming.stats.range_sum_sq(0, end),
                fresh.range_sum_sq(0, end)
            );
        }
    }

    /// Eviction rebuilds the prefix sums in their old allocation, so
    /// appending no more points than were evicted reallocates nothing.
    #[test]
    fn evict_keeps_the_prefix_sum_allocation() {
        let series = test_series(400);
        let mut streaming = StreamingEnsembleDetector::new(config(24, 4), 3);
        streaming.append(&series[..300]);
        let capacity = streaming.stats.capacity();
        assert!(capacity > 300);
        streaming.evict(90).unwrap();
        assert_eq!(streaming.stats.capacity(), capacity);
        streaming.append(&series[300..340]);
        streaming.append(&series[340..390]);
        assert_eq!(streaming.series_len(), 300);
        assert_eq!(streaming.stats.capacity(), capacity);
    }

    /// The shared PAA streams keep only each coefficient's one-byte
    /// cell: however the series grows, `paa_capacity` stays within
    /// twice the cells held, where stored `f64` coefficients would add
    /// eight bytes per cell.
    #[test]
    fn paa_streams_keep_one_byte_per_coefficient() {
        let series = test_series(600);
        let mut streaming = StreamingEnsembleDetector::new(config(32, 6), 9);
        for part in series.chunks(37) {
            streaming.append(part);
            streaming.run_for(usize::MAX);
            let cells: usize = streaming.streams.iter().map(|s| s.cells().len()).sum();
            let floor = 8 * streaming.streams.len();
            assert!(cells > 0 || streaming.series_len() < 32);
            assert!(streaming.paa_capacity() >= cells);
            assert!(
                streaming.paa_capacity() <= 2 * cells.max(floor),
                "{} bytes for {cells} cells",
                streaming.paa_capacity()
            );
        }
    }
}
