//! The fleet manager: many [`StreamSession`]s, one scheduler.
//!
//! # Scheduling model
//!
//! A stream is **dirty** while its session has pending refresh units
//! (work enqueued by appends and evictions that [`step()`] has not yet
//! performed). The fleet keeps the dirty streams in a round-robin
//! rotation and [`Fleet::refresh`] services them one *unit* at a time
//! under one global [`Deadline`].
//!
//! ## Fair-share scheduling
//!
//! The scheduler's fairness guarantee is structural, not statistical:
//! the rotation is a FIFO queue of dirty stream ids, each present
//! exactly once. A refresh pass pops the front stream, runs **one**
//! `step()` unit, and re-enqueues the stream at the back iff it still
//! has pending work. Consequences:
//!
//! * **Starvation bound** — between two consecutive services of any
//!   dirty stream, every other dirty stream is serviced at most once;
//!   equivalently, a refresh budget of `u` units over `d` dirty
//!   streams gives every stream at least `⌊u/d⌋` units (and at most
//!   `⌈u/d⌉`) while it stays dirty. With `u ≥ d`, **every dirty
//!   stream gets ≥ 1 unit per full rotation** — no stream waits
//!   behind another's backlog.
//! * **Deadline contract** — the deadline is checked before each
//!   unit (the same contract every session driver honors), so a
//!   wall-clock deadline is overshot by at most one unit's work and
//!   an already-expired deadline runs zero units.
//! * **Cost model** — scheduling overhead is `O(1)` per unit (one
//!   queue pop, one hash lookup, one conditional re-push), so a
//!   refresh of `u` units costs `u · (unit work + O(1))`; the
//!   per-tick latency is governed entirely by the deadline the
//!   caller passes, independent of fleet size. Memory is `O(streams)`
//!   for the rotation plus whatever each session retains (bound it
//!   per stream with [`Fleet::retain_last`]).
//!
//! Because every unit is a plain `step()` on one session, scheduling
//! order can never change any stream's final answer: a session's state
//! depends only on its own append/evict schedule and how *many* of its
//! units ran, never on when other streams ran theirs. That is the
//! whole parity argument — the fleet inherits bit-parity from the
//! sessions it schedules.
//!
//! [`step()`]: StreamSession::step

use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// The persistence contract implemented by the fleet, re-exported from
/// [`egi_tskit::checkpoint`]: when `S` itself implements [`Checkpoint`],
/// the whole fleet — sessions, ingest buffers, and the fair-share
/// rotation — saves and restores as one container.
pub use egi_tskit::checkpoint::{Checkpoint, CheckpointError};
use egi_tskit::checkpoint::{CheckpointReader, CheckpointWriter, FieldReader, FieldWriter};
use egi_tskit::evict::EvictError;
use egi_tskit::session::StreamSession;
use egi_tskit::Deadline;
use rayon::prelude::*;
use rustc_hash::FxHashMap;

/// Identifier a fleet stream is keyed by.
pub type StreamId = u64;

/// Errors surfaced by fleet operations. Every error is rejected
/// **atomically**: the fleet (and every session in it) is left exactly
/// as it was, so one misbehaving caller cannot poison the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetError {
    /// The stream id is not (or no longer) in the fleet.
    UnknownStream {
        /// The offending id.
        id: StreamId,
    },
    /// [`Fleet::create`] was asked to reuse a live stream id.
    DuplicateStream {
        /// The offending id.
        id: StreamId,
    },
    /// The stream's session rejected an eviction (the shared
    /// [`EvictError`] boundary rule); the session is untouched.
    Evict {
        /// The stream whose eviction was rejected.
        id: StreamId,
        /// The session's rejection.
        error: EvictError,
    },
    /// A chunk offered to [`Fleet::ingest`] or [`Fleet::append_to`]
    /// holds a NaN or an infinity; nothing of it was buffered or
    /// appended.
    NonFinite {
        /// The stream the chunk was meant for.
        id: StreamId,
        /// Position of the first non-finite value in the chunk.
        index: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownStream { id } => write!(f, "unknown stream {id}"),
            Self::DuplicateStream { id } => write!(f, "stream {id} already exists"),
            Self::Evict { id, error } => write!(f, "eviction rejected on stream {id}: {error}"),
            Self::NonFinite { id, index } => {
                write!(f, "stream {id}: point {index} of the chunk is not finite")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// What one [`Fleet::tick`] did: ingest buffers flushed, then refresh
/// units run under the tick's deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickReport {
    /// Buffered points coalesced into per-stream appends by the flush
    /// phase.
    pub flushed_points: usize,
    /// Refresh units the fair-share scheduler ran.
    pub units: usize,
    /// Wall time the whole tick took (flush + refresh).
    pub elapsed: Duration,
    /// Most units any single stream received this tick — with `d`
    /// dirty streams and `u` units, fair-share bounds this by
    /// `⌈u/d⌉` while every stream stays dirty.
    pub max_stream_units: usize,
}

/// A point-in-time snapshot of the fleet's own telemetry, returned by
/// [`Fleet::metrics`]. Lifetime counters accumulate across the fleet's
/// life (they are *not* checkpointed — telemetry describes a process,
/// not resumable state, so a restored fleet starts from zero); the
/// `streams`/`dirty_streams`/`pending_units`/`buffered_points` fields
/// are derived from live state at snapshot time.
///
/// The coalescing ratio of the batched front door is
/// `ingest_calls / coalesced_appends` (both kept as `u64` so the
/// division — and any float — is the caller's choice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetObs {
    /// Live streams at snapshot time.
    pub streams: u64,
    /// Streams currently in the refresh rotation.
    pub dirty_streams: u64,
    /// Pending refresh units across all streams (flushed work only).
    pub pending_units: u64,
    /// Points buffered across all inboxes, not yet flushed.
    pub buffered_points: u64,
    /// [`Fleet::tick`] calls.
    pub ticks: u64,
    /// Refresh units run, across all `refresh`/`tick` calls.
    pub units_total: u64,
    /// Buffered points coalesced into appends by flushes.
    pub flushed_points_total: u64,
    /// [`Fleet::ingest`] calls (coalescing-ratio numerator).
    pub ingest_calls: u64,
    /// Points buffered by ingest calls.
    pub ingested_points: u64,
    /// Non-empty flushes, i.e. coalesced appends the sessions saw
    /// (coalescing-ratio denominator).
    pub coalesced_appends: u64,
    /// Wall-clock refresh deadlines observed past their instant after
    /// the loop exited (each bounded by one unit's work). Only
    /// observed while [`egi_obs::enabled`] — detection reads the
    /// clock.
    pub deadline_overshoots: u64,
    /// `max_stream_units` of the most recent tick.
    pub last_tick_max_stream_units: u64,
}

/// One managed stream: its session, its ingest buffer, and whether it
/// currently sits in the refresh rotation.
#[derive(Debug)]
struct Slot<S> {
    session: S,
    /// Coalescing buffer for [`Fleet::ingest`]; drained into one
    /// `append` per flush.
    inbox: Vec<f64>,
    /// `true` iff the stream's id is in the rotation queue.
    dirty: bool,
    /// When the scheduler last serviced this stream, while it stays in
    /// the rotation — feeds the wait-for-turn histogram that makes the
    /// starvation bound observable. Cleared when the stream leaves the
    /// rotation; only maintained while [`egi_obs::enabled`].
    last_service: Option<Instant>,
}

/// A manager for many independent [`StreamSession`]s — batched ingest,
/// per-stream memory budgets, and fair-share refresh scheduling under
/// one global [`Deadline`]. See the [module docs](self) for the
/// scheduling model and the crate docs for a quickstart.
#[derive(Debug)]
pub struct Fleet<S: StreamSession> {
    slots: FxHashMap<StreamId, Slot<S>>,
    /// Stream ids in creation order — the deterministic iteration
    /// order for flushes and reports.
    order: Vec<StreamId>,
    /// Round-robin rotation: exactly the dirty stream ids, each once.
    rotation: VecDeque<StreamId>,
    /// Total points currently buffered across all inboxes.
    buffered: usize,
    /// Lifetime telemetry counters; the live-derived [`FleetObs`]
    /// fields stay zero here and are filled by [`Fleet::metrics`].
    /// Deliberately not checkpointed.
    obs: FleetObs,
}

impl<S: StreamSession> Default for Fleet<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: StreamSession> Fleet<S> {
    /// An empty fleet.
    pub fn new() -> Self {
        Self {
            slots: FxHashMap::default(),
            order: Vec::new(),
            rotation: VecDeque::new(),
            buffered: 0,
            obs: FleetObs::default(),
        }
    }

    /// Number of live streams.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when the fleet manages no streams.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// `true` when `id` names a live stream.
    pub fn contains(&self, id: StreamId) -> bool {
        self.slots.contains_key(&id)
    }

    /// Live stream ids in creation order.
    pub fn ids(&self) -> &[StreamId] {
        &self.order
    }

    /// Read-only access to a stream's session (e.g. for accessors like
    /// `series_len` or session-specific capacity probes).
    pub fn session(&self, id: StreamId) -> Option<&S> {
        self.slots.get(&id).map(|slot| &slot.session)
    }

    /// Adds `session` under `id`. A session created mid-life (with
    /// pending work) enters the refresh rotation immediately.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateStream`] when `id` is already live; the
    /// fleet is unchanged (the offered session is dropped).
    pub fn create(&mut self, id: StreamId, session: S) -> Result<(), FleetError> {
        if self.slots.contains_key(&id) {
            return Err(FleetError::DuplicateStream { id });
        }
        let dirty = session.pending_units() > 0;
        self.slots.insert(
            id,
            Slot {
                session,
                inbox: Vec::new(),
                dirty,
                last_service: None,
            },
        );
        self.order.push(id);
        if dirty {
            self.rotation.push_back(id);
        }
        Ok(())
    }

    /// Removes stream `id` and returns its session (buffered,
    /// never-flushed points are dropped with the inbox).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] when `id` is not live.
    pub fn remove(&mut self, id: StreamId) -> Result<S, FleetError> {
        let slot = self
            .slots
            .remove(&id)
            .ok_or(FleetError::UnknownStream { id })?;
        self.order.retain(|&o| o != id);
        if slot.dirty {
            self.rotation.retain(|&r| r != id);
        }
        self.buffered -= slot.inbox.len();
        Ok(slot.session)
    }

    /// Appends `points` to stream `id` **immediately** (no
    /// coalescing), flushing any buffered points first so operations
    /// apply in call order. Prefer [`ingest`](Self::ingest) +
    /// [`tick`](Self::tick) for small per-stream dribbles — the
    /// monitors' append cost amortizes over chunk size.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] when `id` is not live;
    /// [`FleetError::NonFinite`] when `points` holds a NaN or an
    /// infinity (nothing is flushed or appended).
    pub fn append_to(&mut self, id: StreamId, points: &[f64]) -> Result<(), FleetError> {
        check_finite(id, points)?;
        self.flush(id)?;
        let slot = self.slots.get_mut(&id).expect("flush checked liveness");
        slot.session.append(points);
        Self::sync_rotation(&mut self.rotation, id, slot);
        Ok(())
    }

    /// Buffers `points` for stream `id` — the batched front door. The
    /// session sees nothing until the next flush coalesces the
    /// stream's whole buffer into **one** append.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] when `id` is not live;
    /// [`FleetError::NonFinite`] when `points` holds a NaN or an
    /// infinity (nothing is buffered).
    pub fn ingest(&mut self, id: StreamId, points: &[f64]) -> Result<(), FleetError> {
        check_finite(id, points)?;
        let slot = self
            .slots
            .get_mut(&id)
            .ok_or(FleetError::UnknownStream { id })?;
        slot.inbox.extend_from_slice(points);
        self.buffered += points.len();
        self.obs.ingest_calls += 1;
        self.obs.ingested_points += points.len() as u64;
        Ok(())
    }

    /// Total points currently buffered across all streams.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Points currently buffered for stream `id`.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] when `id` is not live.
    pub fn buffered_for(&self, id: StreamId) -> Result<usize, FleetError> {
        self.slots
            .get(&id)
            .map(|slot| slot.inbox.len())
            .ok_or(FleetError::UnknownStream { id })
    }

    /// Coalesces stream `id`'s buffered points into one append.
    /// Returns how many points were flushed (0 for an empty buffer).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] when `id` is not live.
    pub fn flush(&mut self, id: StreamId) -> Result<usize, FleetError> {
        let slot = self
            .slots
            .get_mut(&id)
            .ok_or(FleetError::UnknownStream { id })?;
        let n = slot.inbox.len();
        if n > 0 {
            slot.session.append(&slot.inbox);
            slot.inbox.clear();
            self.buffered -= n;
            self.obs.coalesced_appends += 1;
            self.obs.flushed_points_total += n as u64;
            Self::sync_rotation(&mut self.rotation, id, slot);
        }
        Ok(n)
    }

    /// Flushes every stream's buffer (in creation order); returns the
    /// total points appended.
    pub fn flush_all(&mut self) -> usize {
        let mut flushed = 0;
        for i in 0..self.order.len() {
            let id = self.order[i];
            flushed += self.flush(id).expect("order holds only live ids");
        }
        flushed
    }

    /// Evicts the oldest `count` points from stream `id` (flushing its
    /// buffer first, so operations apply in call order).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] when `id` is not live;
    /// [`FleetError::Evict`] when the session rejects the cut under
    /// the shared boundary rule. Rejection is atomic — the session,
    /// the stream's scheduling state, and every other stream are
    /// untouched, so an invalid eviction cannot poison the fleet.
    pub fn evict_from(&mut self, id: StreamId, count: usize) -> Result<(), FleetError> {
        self.flush(id)?;
        let slot = self.slots.get_mut(&id).expect("flush checked liveness");
        slot.session
            .evict(count)
            .map_err(|error| FleetError::Evict { id, error })?;
        Self::sync_rotation(&mut self.rotation, id, slot);
        Ok(())
    }

    /// Installs a per-stream retention budget: stream `id` keeps at
    /// most `n` live points from now on (its buffer is flushed first).
    /// Returns the number of points the immediate trim retired.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] when `id` is not live;
    /// [`FleetError::Evict`] when the session rejects the budget
    /// (e.g. smaller than its analysis window). Atomic, as with
    /// [`evict_from`](Self::evict_from).
    pub fn retain_last(&mut self, id: StreamId, n: usize) -> Result<usize, FleetError> {
        self.flush(id)?;
        let slot = self.slots.get_mut(&id).expect("flush checked liveness");
        let trimmed = slot
            .session
            .retain_last(n)
            .map_err(|error| FleetError::Evict { id, error })?;
        Self::sync_rotation(&mut self.rotation, id, slot);
        Ok(trimmed)
    }

    /// The stream's current (possibly stale) answer — its session's
    /// [`snapshot`](StreamSession::snapshot). Reflects flushed points
    /// only; buffered ingest is invisible until the next flush.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] when `id` is not live.
    pub fn query(&self, id: StreamId) -> Result<S::Snapshot, FleetError> {
        self.slots
            .get(&id)
            .map(|slot| slot.session.snapshot())
            .ok_or(FleetError::UnknownStream { id })
    }

    /// Flushes stream `id`, drains its pending work, and returns its
    /// exact report — bit-identical to a standalone session fed the
    /// same schedule (the fleet-level parity contract).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] when `id` is not live.
    pub fn finish(&mut self, id: StreamId) -> Result<S::Report, FleetError> {
        self.flush(id)?;
        let slot = self.slots.get_mut(&id).expect("flush checked liveness");
        let report = slot.session.finish();
        if slot.dirty {
            slot.dirty = false;
            slot.last_service = None;
            self.rotation.retain(|&r| r != id);
        }
        Ok(report)
    }

    /// Streams currently in the refresh rotation.
    pub fn dirty_count(&self) -> usize {
        self.rotation.len()
    }

    /// Total pending refresh units across all streams (flushed work
    /// only).
    pub fn pending_units(&self) -> usize {
        self.order
            .iter()
            .map(|id| self.slots[id].session.pending_units())
            .sum()
    }

    /// Runs refresh units round-robin across the dirty streams until
    /// `deadline` expires or no stream is dirty; returns the units
    /// run. See the [module docs](self) for the fair-share guarantee:
    /// one unit per dirty stream per rotation, deadline checked before
    /// each unit.
    pub fn refresh(&mut self, deadline: Deadline) -> usize {
        self.refresh_counted(deadline).0
    }

    /// The refresh loop, additionally reporting the most units any
    /// single stream received (the fair-share ⌈u/d⌉ bound, made
    /// observable).
    fn refresh_counted(&mut self, deadline: Deadline) -> (usize, usize) {
        let obs_on = egi_obs::enabled();
        let mut units = 0;
        let mut max_stream_units = 0;
        let mut per_stream: FxHashMap<StreamId, usize> = FxHashMap::default();
        while !deadline.expired(units) {
            let Some(id) = self.rotation.pop_front() else {
                break;
            };
            let slot = self.slots.get_mut(&id).expect("rotation holds live ids");
            if obs_on {
                let now = Instant::now();
                if let Some(last) = slot.last_service {
                    egi_obs::histogram!("egi_fleet_wait_for_turn_nanos")
                        .record(u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX));
                }
                slot.last_service = Some(now);
            }
            if slot.session.step() {
                units += 1;
                let served = per_stream.entry(id).or_insert(0);
                *served += 1;
                max_stream_units = max_stream_units.max(*served);
            }
            if slot.session.pending_units() > 0 {
                self.rotation.push_back(id);
            } else {
                slot.dirty = false;
                slot.last_service = None;
                if obs_on {
                    let served = per_stream.get(&id).copied().unwrap_or(0);
                    egi_obs::trace!("egi_fleet_scheduler").push("drained", id, served as u64);
                }
            }
        }
        self.obs.units_total += units as u64;
        if obs_on {
            egi_obs::counter!("egi_fleet_refresh_units_total").add(units as u64);
            if let Some(overshoot) = deadline.overshoot_nanos() {
                self.obs.deadline_overshoots += 1;
                egi_obs::counter!("egi_fleet_deadline_overshoots_total").inc();
                egi_obs::histogram!("egi_fleet_deadline_overshoot_nanos").record(overshoot);
            }
            egi_obs::gauge!("egi_fleet_dirty_streams").set(self.rotation.len() as u64);
            egi_obs::gauge!("egi_fleet_pending_units").set(self.pending_units() as u64);
            egi_obs::trace!("egi_fleet_scheduler").push(
                "refresh",
                units as u64,
                self.rotation.len() as u64,
            );
        }
        (units, max_stream_units)
    }

    /// One serving tick: flush every stream's ingest buffer (one
    /// coalesced append per stream), then spread `deadline` across the
    /// dirty streams via [`refresh`](Self::refresh).
    pub fn tick(&mut self, deadline: Deadline) -> TickReport {
        let start = Instant::now();
        let flushed_points = self.flush_all();
        let (units, max_stream_units) = self.refresh_counted(deadline);
        let elapsed = start.elapsed();
        self.obs.ticks += 1;
        self.obs.last_tick_max_stream_units = max_stream_units as u64;
        if egi_obs::enabled() {
            egi_obs::counter!("egi_fleet_ticks_total").inc();
            egi_obs::histogram!("egi_fleet_tick_nanos")
                .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
            egi_obs::histogram!("egi_fleet_tick_units").record(units as u64);
        }
        TickReport {
            flushed_points,
            units,
            elapsed,
            max_stream_units,
        }
    }

    /// The fleet's own telemetry: lifetime scheduling counters plus
    /// live gauges, snapshotted at call time. See [`FleetObs`].
    pub fn metrics(&self) -> FleetObs {
        let mut m = self.obs;
        m.streams = self.order.len() as u64;
        m.dirty_streams = self.rotation.len() as u64;
        m.pending_units = self.pending_units() as u64;
        m.buffered_points = self.buffered as u64;
        m
    }
}

impl<S: StreamSession> Fleet<S> {
    /// Re-derives a stream's rotation membership after an operation
    /// that may have created or drained pending work.
    fn sync_rotation(rotation: &mut VecDeque<StreamId>, id: StreamId, slot: &mut Slot<S>) {
        let pending = slot.session.pending_units() > 0;
        if pending && !slot.dirty {
            slot.dirty = true;
            rotation.push_back(id);
        } else if !pending && slot.dirty {
            slot.dirty = false;
            slot.last_service = None;
            rotation.retain(|&r| r != id);
        }
    }
}

impl<S: StreamSession + Send> Fleet<S> {
    /// Flushes every buffer, drains every stream's pending work — fanned
    /// across rayon workers, sessions being independent — and returns
    /// `(id, report)` pairs in creation order. Each stream's steps run
    /// sequentially inside one task, so reports are **bit-identical**
    /// to [`finish`](Self::finish)-ing each stream serially, for every
    /// worker count (property-tested).
    pub fn finish_all(&mut self) -> Vec<(StreamId, S::Report)> {
        self.flush_all();
        let mut dirty: Vec<&mut Slot<S>> = self.slots.values_mut().filter(|s| s.dirty).collect();
        dirty
            .par_iter_mut()
            .for_each(|slot| while slot.session.step() {});
        self.rotation.clear();
        self.order
            .iter()
            .map(|&id| {
                let slot = self.slots.get_mut(&id).expect("order holds live ids");
                slot.dirty = false;
                slot.last_service = None;
                (id, slot.session.finish())
            })
            .collect()
    }
}

/// Rejects a chunk holding a non-finite value before any session sees
/// it: one session would panic on it inside a tick and take every
/// stream's tick down, another would answer from a corrupted profile.
fn check_finite(id: StreamId, points: &[f64]) -> Result<(), FleetError> {
    match points.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(FleetError::NonFinite { id, index }),
        None => Ok(()),
    }
}

/// Section tag of the fleet-roster section (`b"FLT1"` little-endian).
const CKPT_SECTION_FLEET: u32 = u32::from_le_bytes(*b"FLT1");
/// Section tag of each per-stream section (`b"STR1"`), one per stream
/// in creation order.
const CKPT_SECTION_STREAM: u32 = u32::from_le_bytes(*b"STR1");
const CKPT_FLEET_VERSION: u32 = 1;
const CKPT_STREAM_VERSION: u32 = 1;

/// Persistence for the fleet (see [`Checkpoint`] for the container
/// format). The roster section records stream ids in creation order and
/// the rotation queue in FIFO order — the rotation **must** round-trip
/// verbatim so a restored fleet schedules refresh units in exactly the
/// order the uninterrupted one would. Each stream section nests its
/// session's own checkpoint (opaque bytes, validated by `S`'s loader)
/// next to its ingest buffer; the per-slot dirty flag is re-derived
/// from rotation membership and cross-checked against the restored
/// session's pending work. The [`FleetObs`] telemetry counters are
/// deliberately **not** saved — they describe a process, not resumable
/// state — so a restored fleet's [`Fleet::metrics`] starts from zero.
impl<S: StreamSession + Checkpoint> Checkpoint for Fleet<S> {
    fn save_checkpoint(&self, writer: &mut impl Write) -> Result<(), CheckpointError> {
        let mut out = CheckpointWriter::begin(writer, 1 + self.order.len() as u32)?;
        let mut f = FieldWriter::new();
        f.usize(self.order.len());
        for &id in &self.order {
            f.u64(id);
        }
        f.usize(self.rotation.len());
        for &id in &self.rotation {
            f.u64(id);
        }
        out.section(CKPT_SECTION_FLEET, CKPT_FLEET_VERSION, &f.into_bytes())?;
        for &id in &self.order {
            let slot = &self.slots[&id];
            let mut f = FieldWriter::new();
            f.u64(id);
            f.f64_slice(&slot.inbox);
            f.bytes(&slot.session.checkpoint_bytes()?);
            out.section(CKPT_SECTION_STREAM, CKPT_STREAM_VERSION, &f.into_bytes())?;
        }
        Ok(())
    }

    fn load_checkpoint(reader: &mut impl Read) -> Result<Self, CheckpointError> {
        let corrupt = |what: &str| CheckpointError::Corrupt(what.to_string());
        let mut input = CheckpointReader::begin(reader)?;
        let (_, payload) = input.section(CKPT_SECTION_FLEET, CKPT_FLEET_VERSION)?;
        let mut f = FieldReader::new(&payload);
        let count = f.usize()?;
        let mut order = Vec::new();
        for _ in 0..count {
            order.push(f.u64()?);
        }
        let dirty_count = f.usize()?;
        let mut rotation = Vec::new();
        for _ in 0..dirty_count {
            rotation.push(f.u64()?);
        }
        f.finish()?;
        if input.sections_remaining() as usize != count {
            return Err(corrupt("stream sections disagree with the roster"));
        }
        let roster: std::collections::HashSet<StreamId> = order.iter().copied().collect();
        if roster.len() != order.len() {
            return Err(corrupt("duplicate stream id in the roster"));
        }
        let dirty_set: std::collections::HashSet<StreamId> = rotation.iter().copied().collect();
        if dirty_set.len() != rotation.len() || !dirty_set.iter().all(|id| roster.contains(id)) {
            return Err(corrupt("rotation cites a bad stream id"));
        }
        let mut fleet = Self::new();
        for &expected in &order {
            let (_, payload) = input.section(CKPT_SECTION_STREAM, CKPT_STREAM_VERSION)?;
            let mut f = FieldReader::new(&payload);
            let id = f.u64()?;
            if id != expected {
                return Err(corrupt("stream section out of roster order"));
            }
            let inbox = f.f64_vec()?;
            if !inbox.iter().all(|v| v.is_finite()) {
                return Err(corrupt("non-finite point in an ingest buffer"));
            }
            let session = S::from_checkpoint_bytes(f.bytes()?)?;
            f.finish()?;
            let dirty = dirty_set.contains(&id);
            // The scheduler invariant: a stream is in the rotation iff
            // its session has pending work. A checkpoint violating it
            // would starve a dirty stream (or spin on a clean one).
            if dirty != (session.pending_units() > 0) {
                return Err(corrupt("rotation disagrees with a session's pending work"));
            }
            fleet.buffered += inbox.len();
            fleet.slots.insert(
                id,
                Slot {
                    session,
                    inbox,
                    dirty,
                    last_service: None,
                },
            );
            fleet.order.push(id);
        }
        fleet.rotation = rotation.into();
        Ok(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egi_tskit::evict::validate_evict;

    /// A deterministic mock session: one pending unit per appended
    /// point, the "answer" is the number of units performed, and every
    /// `append` call is logged so coalescing is observable.
    #[derive(Debug, Default)]
    struct MockSession {
        live: Vec<f64>,
        cursor: usize,
        offset: usize,
        retention: Option<usize>,
        /// Length of every `append` call, in order.
        appends: Vec<usize>,
        /// Artificial per-unit cost, for deadline-overshoot tests.
        step_delay: Option<std::time::Duration>,
    }

    impl MockSession {
        fn with_pending(units: usize) -> Self {
            let mut s = Self::default();
            StreamSession::append(&mut s, &vec![0.5; units]);
            s
        }
    }

    impl StreamSession for MockSession {
        type Snapshot = usize;
        type Report = usize;

        fn append(&mut self, points: &[f64]) {
            self.appends.push(points.len());
            self.live.extend_from_slice(points);
            if let Some(n) = self.retention {
                let excess = self.live.len().saturating_sub(n);
                if excess > 0 {
                    self.evict(excess).expect("retention trim");
                }
            }
        }

        fn step(&mut self) -> bool {
            if self.cursor == self.live.len() {
                return false;
            }
            if let Some(delay) = self.step_delay {
                std::thread::sleep(delay);
            }
            self.cursor += 1;
            true
        }

        fn evict(&mut self, count: usize) -> Result<(), EvictError> {
            validate_evict(self.live.len(), count, 1)?;
            self.offset += count;
            self.live.drain(..count);
            self.cursor = 0;
            Ok(())
        }

        fn retain_last(&mut self, n: usize) -> Result<usize, EvictError> {
            self.retention = Some(n);
            let excess = self.live.len().saturating_sub(n);
            if excess > 0 {
                self.evict(excess)?;
            }
            Ok(excess)
        }

        fn series_len(&self) -> usize {
            self.live.len()
        }

        fn pending_units(&self) -> usize {
            self.live.len() - self.cursor
        }

        fn stream_offset(&self) -> usize {
            self.offset
        }

        fn is_current(&self) -> bool {
            self.pending_units() == 0
        }

        fn snapshot(&self) -> usize {
            self.cursor
        }

        fn finish(&mut self) -> usize {
            while self.step() {}
            self.snapshot()
        }
    }

    impl Checkpoint for MockSession {
        fn save_checkpoint(&self, writer: &mut impl std::io::Write) -> Result<(), CheckpointError> {
            let mut out = CheckpointWriter::begin(writer, 1)?;
            let mut f = FieldWriter::new();
            f.f64_slice(&self.live);
            f.usize(self.cursor);
            f.usize(self.offset);
            f.opt_usize(self.retention);
            let appends: Vec<usize> = self.appends.clone();
            f.usize_slice(&appends);
            out.section(u32::from_le_bytes(*b"MCK1"), 1, &f.into_bytes())
        }

        fn load_checkpoint(reader: &mut impl std::io::Read) -> Result<Self, CheckpointError> {
            let mut input = CheckpointReader::begin(reader)?;
            let (_, payload) = input.section(u32::from_le_bytes(*b"MCK1"), 1)?;
            let mut f = FieldReader::new(&payload);
            let live = f.f64_vec()?;
            let cursor = f.usize()?;
            let offset = f.usize()?;
            let retention = f.opt_usize()?;
            let appends = f.usize_vec()?;
            f.finish()?;
            if cursor > live.len() {
                return Err(CheckpointError::Corrupt("cursor past the series".into()));
            }
            Ok(Self {
                live,
                cursor,
                offset,
                retention,
                appends,
                step_delay: None,
            })
        }
    }

    fn fleet_of(n: u64, units_each: usize) -> Fleet<MockSession> {
        let mut fleet = Fleet::new();
        for id in 0..n {
            fleet
                .create(id, MockSession::with_pending(units_each))
                .unwrap();
        }
        fleet
    }

    #[test]
    fn create_rejects_duplicates_and_remove_unknown_errors() {
        let mut fleet: Fleet<MockSession> = Fleet::new();
        assert!(fleet.is_empty());
        fleet.create(7, MockSession::default()).unwrap();
        assert_eq!(
            fleet.create(7, MockSession::default()),
            Err(FleetError::DuplicateStream { id: 7 })
        );
        assert_eq!(fleet.len(), 1);
        assert_eq!(
            fleet.remove(8).unwrap_err(),
            FleetError::UnknownStream { id: 8 }
        );
        fleet.remove(7).unwrap();
        assert!(fleet.is_empty());
        assert_eq!(fleet.query(7), Err(FleetError::UnknownStream { id: 7 }));
    }

    #[test]
    fn sessions_with_pending_work_enter_the_rotation_on_create() {
        let mut fleet: Fleet<MockSession> = Fleet::new();
        fleet.create(0, MockSession::default()).unwrap();
        fleet.create(1, MockSession::with_pending(4)).unwrap();
        assert_eq!(fleet.dirty_count(), 1);
        assert_eq!(fleet.pending_units(), 4);
        assert_eq!(fleet.refresh(Deadline::unbounded()), 4);
        assert_eq!(fleet.dirty_count(), 0);
    }

    #[test]
    fn ingest_coalesces_into_one_append_per_tick() {
        let mut fleet: Fleet<MockSession> = Fleet::new();
        fleet.create(0, MockSession::default()).unwrap();
        for _ in 0..10 {
            fleet.ingest(0, &[1.0]).unwrap();
        }
        assert_eq!(fleet.buffered(), 10);
        assert_eq!(fleet.buffered_for(0), Ok(10));
        // The session has seen nothing yet…
        assert!(fleet.session(0).unwrap().appends.is_empty());
        let report = fleet.tick(Deadline::unbounded());
        assert_eq!(report.flushed_points, 10);
        assert_eq!(report.units, 10);
        assert_eq!(report.max_stream_units, 10, "single stream got them all");
        assert!(report.elapsed > Duration::ZERO);
        // …and the 10 dribbles arrived as ONE append.
        assert_eq!(fleet.session(0).unwrap().appends, vec![10]);
        assert_eq!(fleet.buffered(), 0);
        // An empty tick flushes and runs nothing.
        let idle = fleet.tick(Deadline::unbounded());
        assert_eq!(idle.flushed_points, 0);
        assert_eq!(idle.units, 0);
        assert_eq!(idle.max_stream_units, 0);
    }

    #[test]
    fn fair_share_splits_a_unit_budget_evenly() {
        // 4 streams × 10 pending units, budget 10: round-robin gives
        // ⌈10/4⌉ = 3 to the first two streams, ⌊10/4⌋ = 2 to the rest.
        let mut fleet = fleet_of(4, 10);
        assert_eq!(fleet.refresh(Deadline::queries(10)), 10);
        let served: Vec<usize> = (0..4).map(|id| fleet.query(id).unwrap()).collect();
        assert_eq!(served, vec![3, 3, 2, 2]);
        // Every dirty stream got at least one unit per full rotation.
        assert!(served.iter().all(|&s| s >= 10 / 4));
        assert_eq!(
            served.iter().max().unwrap() - served.iter().min().unwrap(),
            1
        );
    }

    #[test]
    fn fair_share_survives_streams_draining_mid_pass() {
        // Stream 1 has far less work; once it drains, its slot in the
        // rotation disappears and the remaining budget flows on.
        let mut fleet: Fleet<MockSession> = Fleet::new();
        fleet.create(0, MockSession::with_pending(100)).unwrap();
        fleet.create(1, MockSession::with_pending(2)).unwrap();
        fleet.create(2, MockSession::with_pending(100)).unwrap();
        assert_eq!(fleet.refresh(Deadline::queries(32)), 32);
        assert_eq!(fleet.query(1).unwrap(), 2, "small stream fully drained");
        // The other 30 units split evenly across the two big streams.
        assert_eq!(fleet.query(0).unwrap(), 15);
        assert_eq!(fleet.query(2).unwrap(), 15);
        assert_eq!(fleet.dirty_count(), 2);
    }

    #[test]
    fn refresh_respects_an_expired_deadline_and_stops_when_clean() {
        let mut fleet = fleet_of(3, 2);
        assert_eq!(fleet.refresh(Deadline::queries(0)), 0);
        assert_eq!(fleet.pending_units(), 6);
        assert_eq!(fleet.refresh(Deadline::unbounded()), 6);
        assert_eq!(fleet.dirty_count(), 0);
        assert_eq!(fleet.refresh(Deadline::unbounded()), 0);
    }

    #[test]
    fn invalid_eviction_is_atomic_and_does_not_poison_the_fleet() {
        let mut fleet = fleet_of(2, 5);
        fleet.ingest(0, &[9.0; 3]).unwrap();
        // Reaching past the stream is rejected by the session; the
        // fleet reports it with the stream id attached. Note the inbox
        // was flushed first (call-order semantics), so the stream now
        // holds 8 points.
        assert_eq!(
            fleet.evict_from(0, 100),
            Err(FleetError::Evict {
                id: 0,
                error: EvictError::PastEnd {
                    requested: 100,
                    available: 8
                }
            })
        );
        // Nothing moved: both streams still schedule and finish.
        assert_eq!(fleet.session(0).unwrap().series_len(), 8);
        assert_eq!(fleet.session(0).unwrap().stream_offset(), 0);
        assert_eq!(fleet.refresh(Deadline::unbounded()), 8 + 5);
        assert_eq!(fleet.finish(0).unwrap(), 8);
        assert_eq!(fleet.finish(1).unwrap(), 5);
    }

    #[test]
    fn evict_and_retain_flush_first_so_operations_apply_in_call_order() {
        let mut fleet: Fleet<MockSession> = Fleet::new();
        fleet.create(0, MockSession::default()).unwrap();
        fleet.ingest(0, &[1.0; 6]).unwrap();
        fleet.evict_from(0, 4).unwrap();
        assert_eq!(fleet.session(0).unwrap().series_len(), 2);
        assert_eq!(fleet.session(0).unwrap().stream_offset(), 4);
        fleet.ingest(0, &[2.0; 7]).unwrap();
        assert_eq!(fleet.retain_last(0, 3), Ok(6));
        assert_eq!(fleet.session(0).unwrap().series_len(), 3);
    }

    #[test]
    fn remove_mid_rotation_keeps_the_scheduler_consistent() {
        let mut fleet = fleet_of(3, 4);
        assert_eq!(fleet.refresh(Deadline::queries(2)), 2);
        let removed = fleet.remove(0).unwrap();
        assert_eq!(removed.pending_units(), 3);
        assert_eq!(fleet.dirty_count(), 2);
        // The survivors split the whole remaining budget.
        assert_eq!(fleet.refresh(Deadline::unbounded()), 4 + 3);
        assert_eq!(fleet.dirty_count(), 0);
    }

    #[test]
    fn finish_all_reports_in_creation_order() {
        let mut fleet: Fleet<MockSession> = Fleet::new();
        for (id, units) in [(9u64, 3usize), (2, 5), (5, 1)] {
            fleet.create(id, MockSession::with_pending(units)).unwrap();
        }
        fleet.ingest(5, &[0.0; 2]).unwrap();
        let reports = fleet.finish_all();
        assert_eq!(reports, vec![(9, 3), (2, 5), (5, 3)]);
        assert_eq!(fleet.dirty_count(), 0);
        assert_eq!(fleet.pending_units(), 0);
    }

    #[test]
    fn checkpoint_round_trips_roster_rotation_and_inboxes() {
        let mut fleet = fleet_of(4, 6);
        // Perturb the rotation so its FIFO order differs from creation
        // order, buffer some never-flushed ingest, and drain stream 3.
        assert_eq!(fleet.refresh(Deadline::queries(3)), 3);
        fleet.ingest(1, &[2.0; 5]).unwrap();
        fleet.finish(3).unwrap();

        let bytes = fleet.checkpoint_bytes().unwrap();
        let mut restored = Fleet::<MockSession>::from_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(restored.ids(), fleet.ids());
        assert_eq!(restored.dirty_count(), fleet.dirty_count());
        assert_eq!(restored.buffered(), fleet.buffered());
        assert_eq!(restored.buffered_for(1), Ok(5));
        assert_eq!(restored.rotation, fleet.rotation, "FIFO order verbatim");

        // Replay the identical remainder: scheduling must stay in
        // lockstep, query by query.
        loop {
            let a = fleet.refresh(Deadline::queries(2));
            let b = restored.refresh(Deadline::queries(2));
            assert_eq!(a, b);
            for &id in &[0u64, 1, 2, 3] {
                assert_eq!(restored.query(id), fleet.query(id), "stream {id}");
            }
            if a == 0 {
                break;
            }
        }
        assert_eq!(restored.finish_all(), fleet.finish_all());
    }

    #[test]
    fn checkpoint_of_an_empty_fleet_round_trips() {
        let fleet: Fleet<MockSession> = Fleet::new();
        let restored =
            Fleet::<MockSession>::from_checkpoint_bytes(&fleet.checkpoint_bytes().unwrap())
                .unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.dirty_count(), 0);
    }

    #[test]
    fn checkpoint_rejects_malformed_input_with_typed_errors() {
        let mut fleet = fleet_of(3, 4);
        fleet.ingest(2, &[1.0; 2]).unwrap();
        let bytes = fleet.checkpoint_bytes().unwrap();

        let mut foreign = bytes.clone();
        foreign[3] ^= 0x01;
        assert!(matches!(
            Fleet::<MockSession>::from_checkpoint_bytes(&foreign),
            Err(CheckpointError::BadMagic)
        ));
        for cut in [0, 9, 16, 30, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Fleet::<MockSession>::from_checkpoint_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut flipped = bytes;
        let target = flipped.len() - 20;
        flipped[target] ^= 0x80;
        assert!(Fleet::<MockSession>::from_checkpoint_bytes(&flipped).is_err());
    }

    #[test]
    fn metrics_track_ingest_coalescing_and_scheduling() {
        let mut fleet: Fleet<MockSession> = Fleet::new();
        fleet.create(0, MockSession::default()).unwrap();
        fleet.create(1, MockSession::default()).unwrap();
        for _ in 0..8 {
            fleet.ingest(0, &[1.0]).unwrap();
        }
        fleet.ingest(1, &[2.0; 4]).unwrap();
        let m = fleet.metrics();
        assert_eq!(m.streams, 2);
        assert_eq!(m.buffered_points, 12);
        assert_eq!(m.ingest_calls, 9);
        assert_eq!(m.ingested_points, 12);
        assert_eq!(m.coalesced_appends, 0, "nothing flushed yet");

        let report = fleet.tick(Deadline::queries(5));
        assert_eq!(report.flushed_points, 12);
        let m = fleet.metrics();
        assert_eq!(m.ticks, 1);
        assert_eq!(m.units_total, 5);
        assert_eq!(m.flushed_points_total, 12);
        // 9 ingest calls reached the sessions as 2 coalesced appends.
        assert_eq!(m.coalesced_appends, 2);
        assert_eq!(m.buffered_points, 0);
        assert_eq!(m.dirty_streams, 2);
        assert_eq!(m.pending_units, 12 - 5);
        assert_eq!(m.last_tick_max_stream_units, 3, "⌈5/2⌉");

        fleet.finish_all();
        let m = fleet.metrics();
        assert_eq!(m.dirty_streams, 0);
        assert_eq!(m.pending_units, 0);
    }

    #[test]
    fn max_stream_units_reports_the_fair_share_ceiling() {
        // One stream with 5 units, one with 1: an unbounded tick runs
        // all 6, and the big stream's 5 is the per-stream max.
        let mut fleet: Fleet<MockSession> = Fleet::new();
        fleet.create(0, MockSession::with_pending(5)).unwrap();
        fleet.create(1, MockSession::with_pending(1)).unwrap();
        let report = fleet.tick(Deadline::unbounded());
        assert_eq!(report.units, 6);
        assert_eq!(report.max_stream_units, 5);
        // With both streams dirty throughout, a budget of 4 splits
        // ⌈4/2⌉ = 2 / ⌊4/2⌋ = 2 — the ceiling bound, observable.
        let mut fleet = fleet_of(2, 10);
        let report = fleet.tick(Deadline::queries(4));
        assert_eq!(report.units, 4);
        assert_eq!(report.max_stream_units, 2);
    }

    /// Satellite regression test: the fleet checks the deadline only
    /// between units, so a wall-clock deadline is overshot by at most
    /// ONE unit's work — pinned here with a deliberately slow session.
    #[test]
    fn wall_deadline_overshoot_is_bounded_by_one_step_unit() {
        const UNIT: Duration = Duration::from_millis(25);
        const BUDGET: Duration = Duration::from_millis(10);
        let mut fleet: Fleet<MockSession> = Fleet::new();
        let mut slow = MockSession::with_pending(64);
        slow.step_delay = Some(UNIT);
        fleet.create(0, slow).unwrap();

        let overshoots_before = egi_obs::global()
            .counter("egi_fleet_deadline_overshoots_total")
            .get();
        let start = Instant::now();
        let units = fleet.refresh(Deadline::after(BUDGET));
        let elapsed = start.elapsed();

        // The deadline expired mid-backlog (64 units × 25 ms ≫ 10 ms),
        // yet the loop stopped within one unit of the budget. The
        // extra UNIT of slack absorbs scheduler noise on a busy box;
        // two full units past the budget would mean the contract broke.
        assert!(fleet.pending_units() > 0, "deadline cut the backlog");
        assert!(
            units <= 2,
            "budget only covers the first check, ran {units}"
        );
        assert!(
            elapsed < BUDGET + 2 * UNIT,
            "overshoot exceeded one unit's work: {elapsed:?}"
        );
        if units > 0 {
            // The overshoot was observed and recorded as a metric.
            let overshoots_after = egi_obs::global()
                .counter("egi_fleet_deadline_overshoots_total")
                .get();
            assert!(overshoots_after > overshoots_before);
            assert_eq!(fleet.metrics().deadline_overshoots, 1);
        }
    }

    #[test]
    fn fleet_error_display_names_the_stream() {
        let e = FleetError::Evict {
            id: 3,
            error: EvictError::BelowMinimum {
                remaining: 2,
                minimum: 8,
            },
        };
        assert!(e.to_string().contains("stream 3"), "{e}");
        assert!(FleetError::UnknownStream { id: 11 }
            .to_string()
            .contains("11"));
        assert!(FleetError::DuplicateStream { id: 4 }
            .to_string()
            .contains('4'));
        assert!(FleetError::NonFinite { id: 6, index: 2 }
            .to_string()
            .contains("stream 6"));
    }
}
