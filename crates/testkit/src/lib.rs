//! Shared toolkit for the workspace's property harnesses.
//!
//! Every streaming parity harness in this workspace follows the same
//! recipe: a deterministic unbounded stream regenerated from global
//! indices, a random `append` / `evict` / `step` schedule decoded from
//! proptest tuples, a validity filter that turns an arbitrary eviction
//! amount into a legal cut, and a shadow model that tracks which suffix
//! of the stream survived. Before this crate each harness carried its
//! own copy of those helpers; they are hoisted here so the
//! checkpoint/restore harnesses (and any future schedule-driven test)
//! can drive the *same* schedules against the same streams.
//!
//! Everything here is bitwise-deterministic: [`PointGen`] is a pure
//! function of the global index, so two harnesses using the same
//! generator see the same `f64` bits — which is exactly what the
//! bit-parity contracts (`finish()` vs. batch, restored vs.
//! uninterrupted) need.

/// Deterministic unbounded stream: a pure function from the global
/// position `i` to the point value. Generating points from their global
/// index keeps append chunks reproducible without materializing the
/// whole stream up front.
///
/// The closed form is shared by every harness in the workspace:
///
/// ```text
/// (t·f1 + phase)·sin · a1  +  a2 · (t·f2)·cos  +  ((i·k + offset) mod modulus) · 0.05
/// ```
///
/// with `t = i as f64`. The named constructors reproduce the exact
/// constants each harness has pinned since its introduction, so the
/// hoist is bitwise-invisible to the existing parity contracts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointGen {
    /// Frequency of the primary sine component.
    pub f1: f64,
    /// Amplitude of the primary sine component.
    pub a1: f64,
    /// Amplitude of the secondary cosine component.
    pub a2: f64,
    /// Frequency of the secondary cosine component.
    pub f2: f64,
    /// Integer drift multiplier.
    pub k: usize,
    /// Integer drift modulus.
    pub modulus: usize,
    /// Phase shift of the primary sine (per-stream salt in fleets).
    pub phase: f64,
    /// Integer drift offset (per-stream salt in fleets).
    pub offset: usize,
}

impl PointGen {
    /// The single-stream generator of the discord eviction harness.
    pub fn discord() -> Self {
        Self {
            f1: 0.17,
            a1: 1.3,
            a2: 0.5,
            f2: 0.031,
            k: 23,
            modulus: 11,
            phase: 0.0,
            offset: 0,
        }
    }

    /// The single-stream generator of the ensemble eviction harness.
    pub fn ensemble() -> Self {
        Self {
            f1: 0.12,
            a1: 1.4,
            a2: 0.6,
            f2: 0.041,
            k: 29,
            modulus: 13,
            phase: 0.0,
            offset: 0,
        }
    }

    /// The per-stream generator of the fleet harness: the discord wave
    /// with a distinct phase and integer drift per stream id, so
    /// cross-stream state leaks break parity immediately.
    pub fn fleet(id: u64) -> Self {
        Self {
            phase: id as f64 * 0.73,
            offset: id as usize * 7,
            ..Self::discord()
        }
    }

    /// The value at global position `i`.
    pub fn at(&self, i: usize) -> f64 {
        let t = i as f64;
        (t * self.f1 + self.phase).sin() * self.a1
            + self.a2 * (t * self.f2).cos()
            + ((i * self.k + self.offset) % self.modulus) as f64 * 0.05
    }

    /// The points at global positions `range`, materialized.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        range.map(|i| self.at(i)).collect()
    }
}

/// Picks a *valid* eviction count for a stream of `live` points under
/// minimum window `m`: occasionally the full drain, otherwise a cut
/// leaving at least `m` points (0 while warming up, where only the full
/// drain is legal).
pub fn choose_evict(live: usize, m: usize, amount: usize) -> usize {
    if live == 0 {
        return 0;
    }
    if amount.is_multiple_of(5) {
        return live; // full drain now and then
    }
    if live < m {
        return 0;
    }
    (amount * live / 40).min(live - m)
}

/// One decoded step of a random append/evict/step schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleOp {
    /// Append this many fresh points from the stream generator.
    Append(usize),
    /// Evict; the payload is the *raw* amount, to be narrowed to a
    /// valid cut via [`choose_evict`] against the live length.
    Evict(usize),
    /// Spend this much incremental-work budget.
    Run(usize),
}

/// Decodes one `(kind, amount)` proptest tuple into a schedule step,
/// with the append-biased split every harness uses: kinds `0..=4`
/// append (so streams actually grow), `5..=7` evict, the rest run.
pub fn decode_op(kind: usize, amount: usize) -> ScheduleOp {
    match kind {
        0..=4 => ScheduleOp::Append(amount),
        5..=7 => ScheduleOp::Evict(amount),
        _ => ScheduleOp::Run(amount),
    }
}

/// Shadow model of the surviving suffix: the global cursor of points
/// ever appended and the count evicted. Whatever the system under test
/// does internally, `offset..appended` of the generator is the ground
/// truth of what its live window must contain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowSuffix {
    /// Points ever appended (the global cursor).
    pub appended: usize,
    /// Points evicted off the front.
    pub offset: usize,
}

impl ShadowSuffix {
    /// A fresh shadow with nothing appended.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next `n` points from `gen`, advancing the global cursor.
    pub fn next_chunk(&mut self, gen: &PointGen, n: usize) -> Vec<f64> {
        let chunk = gen.slice(self.appended..self.appended + n);
        self.appended += n;
        chunk
    }

    /// Records an eviction of `c` points.
    pub fn evict(&mut self, c: usize) {
        self.offset += c;
    }

    /// Points currently live.
    pub fn live(&self) -> usize {
        self.appended - self.offset
    }

    /// The surviving suffix, materialized from `gen`.
    pub fn suffix(&self, gen: &PointGen) -> Vec<f64> {
        gen.slice(self.offset..self.appended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The named generators must reproduce the historical closed forms
    // *bitwise* — the parity harnesses compare f64 bits, so any drift
    // here would silently change what the contracts test.
    #[test]
    fn named_generators_match_their_historical_closed_forms() {
        let discord = PointGen::discord();
        let ensemble = PointGen::ensemble();
        for i in 0..500usize {
            let t = i as f64;
            let d =
                (t * 0.17).sin() * 1.3 + 0.5 * (t * 0.031).cos() + ((i * 23) % 11) as f64 * 0.05;
            let e =
                (t * 0.12).sin() * 1.4 + 0.6 * (t * 0.041).cos() + ((i * 29) % 13) as f64 * 0.05;
            assert_eq!(discord.at(i).to_bits(), d.to_bits(), "discord at {i}");
            assert_eq!(ensemble.at(i).to_bits(), e.to_bits(), "ensemble at {i}");
        }
        for id in 0..8u64 {
            let gen = PointGen::fleet(id);
            for i in 0..200usize {
                let t = i as f64;
                let phase = id as f64 * 0.73;
                let f = (t * 0.17 + phase).sin() * 1.3
                    + 0.5 * (t * 0.031).cos()
                    + ((i * 23 + id as usize * 7) % 11) as f64 * 0.05;
                assert_eq!(gen.at(i).to_bits(), f.to_bits(), "fleet {id} at {i}");
            }
        }
    }

    #[test]
    fn choose_evict_only_proposes_valid_cuts() {
        for live in 0..120usize {
            for m in 1..12usize {
                for amount in 0..45usize {
                    let c = choose_evict(live, m, amount);
                    assert!(c <= live, "cut {c} past the {live} live points");
                    let remaining = live - c;
                    assert!(
                        c == 0 || remaining == 0 || remaining >= m,
                        "cut {c} of {live} leaves {remaining} < m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn decode_op_splits_kinds_with_append_bias() {
        for amount in [1usize, 7, 32] {
            for kind in 0..=4usize {
                assert_eq!(decode_op(kind, amount), ScheduleOp::Append(amount));
            }
            for kind in 5..=7usize {
                assert_eq!(decode_op(kind, amount), ScheduleOp::Evict(amount));
            }
            for kind in 8..=11usize {
                assert_eq!(decode_op(kind, amount), ScheduleOp::Run(amount));
            }
        }
    }

    #[test]
    fn shadow_suffix_tracks_the_surviving_window() {
        let gen = PointGen::discord();
        let mut shadow = ShadowSuffix::new();
        let a = shadow.next_chunk(&gen, 10);
        assert_eq!(a, gen.slice(0..10));
        let b = shadow.next_chunk(&gen, 5);
        assert_eq!(b, gen.slice(10..15));
        shadow.evict(4);
        assert_eq!(shadow.live(), 11);
        assert_eq!(shadow.suffix(&gen), gen.slice(4..15));
        shadow.evict(11);
        assert_eq!(shadow.live(), 0);
        assert!(shadow.suffix(&gen).is_empty());
    }
}
