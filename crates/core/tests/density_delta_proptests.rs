//! Differential harness for incremental density-delta maintenance
//! (the PR 10 "O(changed coverage) refresh" contract).
//!
//! Two layers of the same claim, proven against retained from-scratch
//! oracles:
//!
//! * **Engine level.** With delta tracking on, folding the
//!   [`OccDelta`]s emitted by every `push` into a span multiset must
//!   reproduce the grammar's transitive occurrence spans *exactly* —
//!   after every single push, across rule creation, reuse,
//!   utility-1 inlining, and mid-stream `clear` rebases.
//!
//! * **Full stack.** For random append/evict/step schedules (the same
//!   testkit schedule space as the eviction and checkpoint harnesses),
//!   every member's delta-maintained curve must be **bit-identical**
//!   to a from-scratch [`RuleDensityCurve::from_occurrences`] rebuild
//!   after every operation
//!   ([`StreamingEnsembleDetector::delta_curves_match_rebuild`]), the
//!   structural-staleness gauge must match the on-demand computation,
//!   and checkpoint round-trips must preserve all of it mid-schedule.
//!
//! [`OccDelta`]: egi_sequitur::OccDelta
//! [`RuleDensityCurve::from_occurrences`]: egi_core::RuleDensityCurve::from_occurrences

use std::collections::HashMap;

use egi_core::streaming::Checkpoint;
use egi_core::{EnsembleConfig, EnsembleDetector, StreamingEnsembleDetector};
use egi_sequitur::Sequitur;
use egi_testkit::{choose_evict, decode_op, PointGen, ScheduleOp, ShadowSuffix};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Engine level: deltas vs. the occurrence oracle
// ---------------------------------------------------------------------------

/// Folds pending deltas into a `(start, len) -> count` span multiset.
fn fold_deltas(counts: &mut HashMap<(usize, usize), i64>, seq: &mut Sequitur) {
    for delta in seq.take_deltas() {
        let slot = counts.entry((delta.start, delta.len)).or_insert(0);
        *slot += if delta.created { 1 } else { -1 };
        if *slot == 0 {
            counts.remove(&(delta.start, delta.len));
        }
    }
}

/// The grammar's transitive occurrence spans as the same multiset.
fn occurrence_spans(seq: &Sequitur) -> HashMap<(usize, usize), i64> {
    let mut counts = HashMap::new();
    for occ in seq.occurrences() {
        *counts.entry((occ.start, occ.len)).or_insert(0) += 1;
    }
    counts
}

/// Pushes `tokens` one at a time, folding deltas and comparing to the
/// occurrence oracle after every push. Returns the engine for reuse.
fn assert_deltas_track(
    seq: &mut Sequitur,
    counts: &mut HashMap<(usize, usize), i64>,
    tokens: &[u32],
) {
    for (i, &t) in tokens.iter().enumerate() {
        seq.push(t);
        fold_deltas(counts, seq);
        assert_eq!(
            counts,
            &occurrence_spans(seq),
            "delta fold diverged from occurrences after push {i} (token {t})"
        );
    }
}

/// Hand-picked adversarial token streams: rule reuse after creation,
/// a substitution that retires a digram mid-rule (nested rules), and
/// utility-1 expansion (rule inlining), each checked push-by-push.
#[test]
fn adversarial_streams_keep_delta_fold_exact() {
    let streams: [&[u32]; 5] = [
        // Rule creation then immediate reuse.
        &[0, 1, 0, 1, 0, 1],
        // Nested rules: [0,1] becomes a rule, then [R,2] becomes one.
        &[0, 1, 2, 0, 1, 2, 0, 1, 2],
        // Utility-1 inlining: the inner rule is consumed by the outer.
        &[0, 1, 0, 1, 2, 0, 1, 0, 1, 2],
        // The paper's Table 2 stream (ab bc aa cc ca ab bc aa).
        &[0, 1, 2, 3, 4, 0, 1, 2],
        // A long constant run: maximal digram churn.
        &[5; 40],
    ];
    for tokens in streams {
        let mut seq = Sequitur::new();
        seq.set_delta_tracking(true);
        let mut counts = HashMap::new();
        assert_deltas_track(&mut seq, &mut counts, tokens);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small-alphabet streams with a mid-stream `clear` rebase
    /// and a later switch-on point: the delta fold equals the
    /// occurrence oracle after every push before the clear (which drops
    /// the grammar and the pending deltas). After it the engine pushes
    /// with tracking off and emits nothing until the switch-on point;
    /// there the span multiset is seeded from `occurrences()`, and from
    /// then on the fold matches again after every push — the contract
    /// a refresh from an empty engine relies on.
    #[test]
    fn random_streams_with_clear_keep_delta_fold_exact(
        alphabet in 2u32..7,
        tokens in prop::collection::vec(0u32..64, 1..160),
        clear_pct in 0usize..100,
        on_pct in 0usize..=100,
    ) {
        let tokens: Vec<u32> = tokens.iter().map(|t| t % alphabet).collect();
        let cut = tokens.len() * clear_pct / 100;
        let on = cut + (tokens.len() - cut) * on_pct / 100;
        let mut seq = Sequitur::new();
        seq.set_delta_tracking(true);
        let mut counts = HashMap::new();
        assert_deltas_track(&mut seq, &mut counts, &tokens[..cut]);
        seq.clear();
        prop_assert!(seq.take_deltas().is_empty());
        prop_assert!(seq.delta_tracking());
        seq.set_delta_tracking(false);
        for &t in &tokens[cut..on] {
            seq.push(t);
        }
        prop_assert!(seq.take_deltas().is_empty(), "tracking off emitted deltas");
        seq.set_delta_tracking(true);
        let mut counts = occurrence_spans(&seq);
        assert_deltas_track(&mut seq, &mut counts, &tokens[on..]);
    }
}

// ---------------------------------------------------------------------------
// Full stack: delta curves vs. from-scratch rebuilds
// ---------------------------------------------------------------------------

fn config(window: usize, members: usize) -> EnsembleConfig {
    EnsembleConfig {
        window,
        ensemble_size: members,
        ..EnsembleConfig::default()
    }
}

/// Applies one decoded schedule step (same semantics as the eviction
/// and checkpoint harnesses: `Run` modulo `members + 1`).
fn drive(
    detector: &mut StreamingEnsembleDetector,
    shadow: &mut ShadowSuffix,
    gen: &PointGen,
    window: usize,
    members: usize,
    op: ScheduleOp,
) {
    match op {
        ScheduleOp::Append(n) => {
            let chunk = shadow.next_chunk(gen, n);
            detector.append(&chunk);
        }
        ScheduleOp::Evict(amount) => {
            let c = choose_evict(detector.series_len(), window, amount);
            detector.evict(c).unwrap();
            shadow.evict(c);
        }
        ScheduleOp::Run(budget) => {
            detector.run_for(budget % (members + 1));
        }
    }
}

/// Checks the per-op invariants: the delta oracle and the telemetry
/// gauge agreeing with the on-demand structural-staleness computation.
fn assert_delta_invariants(detector: &StreamingEnsembleDetector, context: &str) {
    assert!(
        detector.delta_curves_match_rebuild(),
        "delta-maintained curve diverged from from_occurrences rebuild {context}"
    );
    assert_eq!(
        detector.metrics().structural_staleness,
        detector.structural_staleness() as u64,
        "structural-staleness gauge out of sync {context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole acceptance property: for random append/evict/step
    /// schedules, every member's delta-maintained curve is
    /// bit-identical to a from-scratch rebuild after **every**
    /// operation, the structural-staleness gauge tracks the on-demand
    /// computation, and the finished report (served entirely from
    /// delta-maintained curves) still lands bit-identical to batch
    /// detect over the surviving suffix.
    #[test]
    fn delta_curves_match_rebuild_after_every_op(
        window in 8usize..16,
        members in 3usize..7,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..40), 3..10),
    ) {
        let gen = PointGen::ensemble();
        let cfg = config(window, members);
        let mut detector = StreamingEnsembleDetector::new(cfg, seed);
        let mut shadow = ShadowSuffix::new();
        for (i, &(k, a)) in raw_ops.iter().enumerate() {
            let op = decode_op(k, a);
            drive(&mut detector, &mut shadow, &gen, window, members, op);
            assert_delta_invariants(&detector, &format!("after op {i} ({op:?})"));
        }
        detector.run_for(usize::MAX);
        prop_assert!(detector.is_current());
        prop_assert_eq!(detector.structural_staleness(), 0,
            "current detector still reports unhealed coverage");
        assert_delta_invariants(&detector, "after full catch-up");
        let report = detector.finish(3);
        let batch = EnsembleDetector::new(cfg).detect(&shadow.suffix(&gen), 3, seed);
        prop_assert_eq!(report, batch);
    }

    /// Checkpoint round-trips preserve the delta machinery
    /// mid-schedule: the restored detector satisfies the delta oracle
    /// immediately, derives the same structural staleness from state,
    /// keeps satisfying the oracle through the remaining schedule, and
    /// finishes bit-identical to the uninterrupted run.
    #[test]
    fn checkpoint_round_trip_preserves_delta_state(
        window in 8usize..16,
        members in 3usize..7,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..40), 2..8),
        cut_pct in 0usize..100,
    ) {
        let gen = PointGen::ensemble();
        let cfg = config(window, members);
        let ops: Vec<ScheduleOp> =
            raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();
        let cut = ops.len() * cut_pct / 100;

        let mut original = StreamingEnsembleDetector::new(cfg, seed);
        let mut shadow = ShadowSuffix::new();
        for &op in &ops[..cut] {
            drive(&mut original, &mut shadow, &gen, window, members, op);
        }
        let bytes = original.checkpoint_bytes().unwrap();
        let mut restored =
            StreamingEnsembleDetector::from_checkpoint_bytes(&bytes).unwrap();
        assert_delta_invariants(&restored, "right after restore");
        prop_assert_eq!(
            restored.structural_staleness(),
            original.structural_staleness(),
            "restored detector derives different unhealed coverage"
        );
        let mut resumed = shadow;
        for (i, &op) in ops[cut..].iter().enumerate() {
            drive(&mut original, &mut shadow, &gen, window, members, op);
            drive(&mut restored, &mut resumed, &gen, window, members, op);
            assert_delta_invariants(&restored, &format!("after resumed op {i} ({op:?})"));
        }
        prop_assert_eq!(restored.finish(3), original.finish(3));
    }
}

// ---------------------------------------------------------------------------
// Boundary regressions
// ---------------------------------------------------------------------------

/// One-point appends: the smallest possible increment keeps the delta
/// oracle exact at every step, and the fully-drained detector matches
/// batch bit-for-bit.
#[test]
fn one_point_appends_keep_delta_curves_exact() {
    let gen = PointGen::ensemble();
    let cfg = config(8, 4);
    let seed = 11;
    let total = 64;
    let mut detector = StreamingEnsembleDetector::new(cfg, seed);
    for i in 0..total {
        detector.append(&[gen.at(i)]);
        detector.run_for(usize::MAX);
        assert!(detector.is_current());
        assert_delta_invariants(&detector, &format!("after 1-point append {i}"));
        assert_eq!(detector.structural_staleness(), 0);
    }
    let report = detector.finish(3);
    let batch = EnsembleDetector::new(cfg).detect(&gen.slice(0..total), 3, seed);
    assert_eq!(report, batch);
}

/// `window == series_len`: exactly one subsequence exists, the first
/// refresh heals the whole curve from zero tokens' worth of deltas.
#[test]
fn window_equals_series_len_boundary() {
    let gen = PointGen::ensemble();
    let window = 12;
    let cfg = config(window, 4);
    let seed = 7;
    let mut detector = StreamingEnsembleDetector::new(cfg, seed);
    detector.append(&gen.slice(0..window));
    detector.run_for(usize::MAX);
    assert!(detector.is_current());
    assert_delta_invariants(&detector, "at window == series_len");
    assert_eq!(detector.snapshot().len(), window);
    let report = detector.finish(2);
    let batch = EnsembleDetector::new(cfg).detect(&gen.slice(0..window), 2, seed);
    assert_eq!(report, batch);
}

/// Structural staleness is the *coverage* deficit, not the append
/// backlog: an append stales exactly the new tail, an eviction stales
/// the whole carried window (while adding zero points), and healing
/// brings both back to zero.
#[test]
fn structural_staleness_tracks_coverage_not_points() {
    let gen = PointGen::ensemble();
    let cfg = config(8, 4);
    let mut detector = StreamingEnsembleDetector::new(cfg, 3);
    detector.append(&gen.slice(0..40));
    detector.run_for(usize::MAX);
    assert_eq!(detector.structural_staleness(), 0);
    assert_eq!(detector.metrics().structural_staleness, 0);

    // Append: curves are short by exactly the new tail.
    detector.append(&gen.slice(40..50));
    assert_eq!(detector.structural_staleness(), 10);
    assert_eq!(detector.metrics().structural_staleness, 10);
    assert_eq!(detector.metrics().staleness_points, 10);
    detector.run_for(usize::MAX);
    assert_eq!(detector.metrics().structural_staleness, 0);

    // Eviction: zero points appended, yet every member's curve is a
    // shifted carry — the whole window is structurally stale until
    // the replay heals it, while the append-staleness gauge differs.
    detector.evict(20).unwrap();
    assert_eq!(detector.series_len(), 30);
    assert_eq!(detector.structural_staleness(), 30);
    assert_eq!(detector.metrics().structural_staleness, 30);
    assert_delta_invariants(&detector, "mid-carry after eviction");

    // Healing one member leaves the gauge pinned by the slowest one.
    detector.run_for(1);
    assert_eq!(detector.structural_staleness(), 30);
    detector.run_for(usize::MAX);
    assert!(detector.is_current());
    assert_eq!(detector.structural_staleness(), 0);
    assert_delta_invariants(&detector, "after eviction replay healed");
    let report = detector.finish(3);
    let batch = EnsembleDetector::new(cfg).detect(&gen.slice(20..50), 3, 3);
    assert_eq!(report, batch);
}

/// A checkpoint taken mid-replay (one member healed, the rest still
/// carrying) restores the mixed delta-base state and converges to the
/// suffix batch.
#[test]
fn checkpoint_mid_eviction_replay_round_trips() {
    let gen = PointGen::ensemble();
    let cfg = config(10, 5);
    let seed = 19;
    let mut detector = StreamingEnsembleDetector::new(cfg, seed);
    detector.append(&gen.slice(0..70));
    detector.run_for(usize::MAX);
    detector.evict(25).unwrap();
    detector.run_for(2); // heal two members, leave three carrying
    let bytes = detector.checkpoint_bytes().unwrap();
    let mut restored = StreamingEnsembleDetector::from_checkpoint_bytes(&bytes).unwrap();
    assert_delta_invariants(&restored, "restored mid-replay");
    assert_eq!(
        restored.structural_staleness(),
        detector.structural_staleness()
    );
    restored.run_for(usize::MAX);
    assert_delta_invariants(&restored, "after restored replay finished");
    let report = restored.finish(3);
    let batch = EnsembleDetector::new(cfg).detect(&gen.slice(25..70), 3, seed);
    assert_eq!(report, batch);
}
