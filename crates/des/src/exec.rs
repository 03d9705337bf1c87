//! The epoch executor: per-shard calendar queues merged into one globally
//! ordered pop stream, advanced a whole epoch at a time.
//!
//! [`EpochExecutor`] partitions the pending-event set across `N` inner
//! [`EventQueue`]s (one per shard — in the VANET stack, one per group of L3
//! regions) and pops the exact `(time, global seq)` order one unsharded
//! [`EventQueue`] would produce, for *any* routing of events to shards. Every
//! schedule call draws a *global* sequence number; within a shard the inner
//! queue's local sequence agrees with it, and across shards the merge takes
//! the minimum `(time, global seq)` key, which is unique. Sharding is
//! therefore an implementation layout, never an observable — the property
//! the differential determinism suite pins. Everything runs on the calling
//! thread, in three steps:
//!
//! 1. **Barrier.** When the committed region runs dry, the executor finds
//!    the global minimum pending key across every shard's queue head and
//!    mailbox, and fixes an inclusive epoch frontier
//!    `F = min + K·max(lookahead, 1µs) − 1µs`.
//! 2. **Epoch.** Each shard inserts its mailbox batch and bulk-drains its
//!    queue up to `F` ([`EventQueue::drain_into`]), leaving a batch sorted by
//!    `(time, seq)`. Bulk drains replace the per-pop bucket re-scans that
//!    dominate same-instant bursts.
//! 3. **Commit.** Pops merge the per-shard batch heads (plus an *overlay*
//!    heap, below) in global order. Events scheduled by handlers during the
//!    commit phase go to the per-shard mailboxes when they land beyond `F`,
//!    or into the overlay heap when they land inside the committed region,
//!    so they still execute in their exact global slot.
//!
//! Barrier placement, epoch spans and the adaptive span multiplier `K` are
//! pure functions of the event set, so the queue telemetry (resizes, bucket
//! scans) is as deterministic as the pop stream.
//!
//! # Conservative synchronization and lookahead
//!
//! A handler-parallel conservative run (Chandy–Misra–Bryant style) would be
//! safe exactly when no shard receives a cross-shard event earlier than
//! `now + lookahead`. Handlers here run one at a time in merged order, but
//! the executor audits that contract through its ledger:
//!
//! * Construction **fails fast** on a zero lookahead when `shards > 1`
//!   ([`ShardConfigError::ZeroLookahead`]); a real conservative executor
//!   would deadlock on it. One shard has no cross-shard traffic, so a zero
//!   lookahead is accepted there and epochs fall back to 1 µs spans.
//! * While processing an event, the driver declares the shard it executes on
//!   ([`EpochExecutor::set_origin`]); every schedule targeting a *different*
//!   shard closer than `lookahead` is counted in
//!   [`EpochExecutor::violations`]. Zero violations at the end of a run is a
//!   machine-checked proof that the event flow honours the lookahead.
//! * [`EpochExecutor::epochs`] counts the `lookahead`-wide windows the pop
//!   clock crosses — a pure function of the pop stream, so it is part of the
//!   deterministic output surface (zero when the lookahead is zero).
//!
//! # Keys move, payloads stay put
//!
//! A payload is written exactly once, at schedule time, into a slab (a
//! `Vec<Option<E>>` with a LIFO free list), and moved out exactly once, when
//! it pops. Everything in between — the mailboxes, the per-shard calendar
//! queues, the drained batches with their sort and reversal, and the overlay
//! heap — carries only a key: `(time, global seq, slot)`, 24–32 bytes,
//! whatever the payload's size. A same-instant join burst of hundreds of
//! thousands of deliveries therefore costs one payload write each instead of
//! one per queue stage. Every queue decision is a function of keys alone, so
//! the pop stream and the queue telemetry are exactly those of an executor
//! that carries whole events.

use std::collections::BinaryHeap;

use crate::event::{EventQueue, QueueTelemetry};
use crate::time::{SimDuration, SimTime};

/// Epoch spans start at one lookahead window and adapt by powers of two:
/// below this many drained events per epoch the span doubles (barrier
/// overhead dominates), above [`SPAN_SHRINK_ABOVE`] it halves (commit-side
/// batches grow past cache-friendly sizes). Both triggers are pure functions
/// of the drained totals.
const SPAN_GROW_BELOW: usize = 64;
/// See [`SPAN_GROW_BELOW`].
const SPAN_SHRINK_ABOVE: usize = 4096;
/// Upper bound on the span multiplier (2^16 lookahead windows per epoch).
const SPAN_MAX_MULT: u64 = 1 << 16;

/// Cached head sentinel for an empty shard, batch or mailbox. The `u64::MAX`
/// sequence marks emptiness (a real event can fire at `SimTime::MAX` but
/// never draws that sequence number), so the sentinel loses every comparison
/// against real keys.
const EMPTY_HEAD: (SimTime, u64) = (SimTime::MAX, u64::MAX);

/// A mailboxed event: `(time, global seq, slab slot)`.
type MailKey = (SimTime, u64, u32);
/// What a shard's calendar queue holds per event: `(global seq, slab slot)`.
type QueueKey = (u64, u32);
/// A drained event: `(time, (global seq, slab slot))`.
type BatchKey = (SimTime, QueueKey);

/// Why an [`EpochExecutor`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardConfigError {
    /// An executor needs at least one shard.
    NoShards,
    /// `shards > 1` with a zero lookahead: a conservative executor could
    /// never advance past its first barrier — refuse up front instead of
    /// deadlocking.
    ZeroLookahead {
        /// The shard count that was requested.
        shards: usize,
    },
}

impl std::fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardConfigError::NoShards => write!(f, "an executor needs at least one shard"),
            ShardConfigError::ZeroLookahead { shards } => write!(
                f,
                "conservative sync across {shards} shards needs a strictly positive \
                 lookahead; this configuration derives zero (every cross-shard epoch \
                 would deadlock) — widen the radio per-hop overhead, the wired RSU \
                 link latency, or the radio-range/max-speed ratio"
            ),
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Per-shard event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events routed to this shard by schedule calls.
    pub scheduled: u64,
    /// Events popped out of this shard by the merged stream.
    pub popped: u64,
}

/// The bookkeeping half of the conservative-sync contract: the global
/// sequence counter, the merged clock, the total/peak pending counts,
/// per-shard stats, epoch-window accounting, and the lookahead-violation
/// audit. Every schedule goes through [`SyncLedger::on_schedule`] and every
/// pop through [`SyncLedger::on_pop`], so these counters are functions of
/// the schedule calls and the pop stream alone.
#[derive(Debug)]
struct SyncLedger {
    stats: Vec<ShardStats>,
    next_seq: u64,
    len: usize,
    now: SimTime,
    peak_depth: usize,
    lookahead: SimDuration,
    /// Exclusive end of the current conservative epoch window.
    epoch_end: SimTime,
    epochs: u64,
    /// The shard the driver is currently executing on (None between events /
    /// for control-plane work exempt from the cross-shard contract).
    origin: Option<usize>,
    violations: u64,
}

impl SyncLedger {
    fn new(shards: usize, lookahead: SimDuration) -> Self {
        SyncLedger {
            stats: vec![ShardStats::default(); shards],
            next_seq: 0,
            len: 0,
            now: SimTime::ZERO,
            peak_depth: 0,
            lookahead,
            epoch_end: SimTime::ZERO.checked_add(lookahead).unwrap_or(SimTime::MAX),
            epochs: 0,
            origin: None,
            violations: 0,
        }
    }

    /// Books one schedule targeting `shard` at `at`: runs the cross-shard
    /// lookahead audit against the declared origin, bumps the pending/peak
    /// counts, and returns the drawn global sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the merged clock — scheduling into the
    /// past is always a protocol bug.
    fn on_schedule(&mut self, shard: usize, at: SimTime) -> u64 {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        if self.origin.is_some_and(|o| o != shard)
            && !self.lookahead.is_zero()
            && self
                .now
                .checked_add(self.lookahead)
                .is_some_and(|floor| at < floor)
        {
            self.violations += 1;
        }
        let gseq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if self.len > self.peak_depth {
            self.peak_depth = self.len;
        }
        self.stats[shard].scheduled += 1;
        gseq
    }

    /// Books one committed pop from `shard` at `t`: advances the merged clock
    /// and the epoch-window count.
    fn on_pop(&mut self, shard: usize, t: SimTime) {
        self.len -= 1;
        self.stats[shard].popped += 1;
        debug_assert!(t >= self.now, "merged clock went back in time");
        self.now = t;
        if !self.lookahead.is_zero() && t >= self.epoch_end {
            self.epochs += 1;
            self.epoch_end = t.checked_add(self.lookahead).unwrap_or(SimTime::MAX);
        }
    }
}

/// Payload storage: each event is written once by `insert` and moved out
/// once by `take`. Vacated slots are reused newest-first, so the slab never
/// grows past the peak pending count and reuse stays on warm cache lines.
#[derive(Debug)]
struct Slab<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Slab<E> {
    fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none(), "free slot occupied");
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("over u32::MAX pending events");
                self.slots.push(Some(event));
                slot
            }
        }
    }

    fn take(&mut self, slot: u32) -> E {
        let event = self.slots[slot as usize]
            .take()
            .expect("event slot vacated twice");
        self.free.push(slot);
        event
    }
}

/// A commit-phase schedule that landed inside the committed region: merged
/// by `(time, gseq)` against the batch heads. Reverse ordering turns
/// `BinaryHeap`'s max-heap into the min-heap the merge needs.
#[derive(Debug)]
struct OverlayEntry {
    time: SimTime,
    gseq: u64,
    shard: usize,
    slot: u32,
}

impl OverlayEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.gseq)
    }
}

impl PartialEq for OverlayEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for OverlayEntry {}
impl PartialOrd for OverlayEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OverlayEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// Head key of a shard queue, [`EMPTY_HEAD`] when empty.
fn queue_head(q: &mut EventQueue<QueueKey>) -> (SimTime, u64) {
    q.peek_entry().map(|(t, e)| (t, e.0)).unwrap_or(EMPTY_HEAD)
}

/// Head key of a descending batch, [`EMPTY_HEAD`] when drained.
fn batch_head(batch: &[BatchKey]) -> (SimTime, u64) {
    batch
        .last()
        .map(|&(t, (gseq, _))| (t, gseq))
        .unwrap_or(EMPTY_HEAD)
}

/// A conservative executor over per-shard [`EventQueue`]s that pops one
/// globally ordered stream — see the module docs for the epoch protocol, the
/// byte-identity argument and the lookahead audit.
#[derive(Debug)]
pub struct EpochExecutor<E> {
    ledger: SyncLedger,
    /// One calendar queue per shard, holding keys into the slab.
    queues: Vec<EventQueue<QueueKey>>,
    /// Every pending payload; the structures below hold slots into it.
    slab: Slab<E>,
    /// Per-shard batches of scheduled events beyond the committed frontier,
    /// waiting for the next barrier flush. Always in global-sequence order.
    mailboxes: Vec<Vec<MailKey>>,
    /// Cached min key per mailbox, [`EMPTY_HEAD`] when empty.
    mailbox_mins: Vec<(SimTime, u64)>,
    /// Per-shard committed batch, sorted *descending* so the next event pops
    /// from the back.
    batches: Vec<Vec<BatchKey>>,
    /// Key of `batches[s].last()`, [`EMPTY_HEAD`] when drained.
    batch_heads: Vec<(SimTime, u64)>,
    /// Head key of each shard's calendar queue as of the last barrier (exact
    /// between barriers: only barriers insert into or drain the queues).
    queue_heads: Vec<(SimTime, u64)>,
    /// Commit-phase schedules that landed inside the committed region.
    overlay: BinaryHeap<OverlayEntry>,
    /// Inclusive end of the committed region; `None` before the first
    /// barrier (everything waits in the mailboxes).
    frontier: Option<SimTime>,
    /// Current epoch span in lookahead windows (adaptive, deterministic).
    span_mult: u64,
}

impl<E> EpochExecutor<E> {
    /// Creates an executor with default-sized per-shard queues. `lookahead`
    /// is the conservative-sync window; it must be strictly positive whenever
    /// `shards > 1`.
    pub fn new(shards: usize, lookahead: SimDuration) -> Result<Self, ShardConfigError> {
        Self::build(lookahead, 0, (0..shards).map(|_| EventQueue::new()))
    }

    /// Creates an executor whose shard queues are pre-sized: shard `s` for
    /// `caps[s]` pending events spread over `horizon` of simulated time. The
    /// payload slab reserves room for the sum of `caps`. Per-shard capacities
    /// matter because shard 0 typically carries the control plane (ticks,
    /// samplers) on top of its share of deliveries.
    ///
    /// `_threads` is unused: every executor runs on the calling thread. The
    /// parameter keeps the signature the traced benchmark driver
    /// (`perfbench/src/driver.rs`) compiles against.
    pub fn with_shard_capacities_and_horizon(
        _threads: usize,
        lookahead: SimDuration,
        caps: &[usize],
        horizon: SimDuration,
    ) -> Result<Self, ShardConfigError> {
        Self::build(
            lookahead,
            caps.iter().sum(),
            caps.iter()
                .map(|&c| EventQueue::with_capacity_and_horizon(c.max(16), horizon)),
        )
    }

    fn build(
        lookahead: SimDuration,
        slab_cap: usize,
        queues: impl Iterator<Item = EventQueue<QueueKey>>,
    ) -> Result<Self, ShardConfigError> {
        let queues: Vec<_> = queues.collect();
        let n = queues.len();
        if n == 0 {
            return Err(ShardConfigError::NoShards);
        }
        if n > 1 && lookahead.is_zero() {
            return Err(ShardConfigError::ZeroLookahead { shards: n });
        }
        Ok(EpochExecutor {
            ledger: SyncLedger::new(n, lookahead),
            queues,
            slab: Slab::with_capacity(slab_cap),
            mailboxes: (0..n).map(|_| Vec::new()).collect(),
            mailbox_mins: vec![EMPTY_HEAD; n],
            batches: (0..n).map(|_| Vec::new()).collect(),
            batch_heads: vec![EMPTY_HEAD; n],
            queue_heads: vec![EMPTY_HEAD; n],
            overlay: BinaryHeap::new(),
            frontier: None,
            span_mult: 1,
        })
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.queues.len()
    }

    /// The conservative-sync lookahead window.
    #[inline]
    pub fn lookahead(&self) -> SimDuration {
        self.ledger.lookahead
    }

    /// The current simulation time: the timestamp of the last event popped.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.ledger.now
    }

    /// Total events pending across every shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.ledger.len
    }

    /// True if no events are pending on any shard.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ledger.len == 0
    }

    /// Total number of events ever scheduled (the global sequence counter).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.ledger.next_seq
    }

    /// Cross-shard schedules that landed closer than the lookahead. Zero at
    /// end of run is the conservative-safety proof (see the module docs).
    #[inline]
    pub fn violations(&self) -> u64 {
        self.ledger.violations
    }

    /// Conservative epoch windows the pop clock has crossed: how many
    /// `lookahead`-wide windows it advanced through. A pure function of the
    /// pop stream and the lookahead, *not* the internal barrier count.
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.ledger.epochs
    }

    /// Per-shard scheduled/popped counters.
    #[inline]
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.ledger.stats
    }

    /// Declares the shard the driver is currently executing on; schedules
    /// issued while an origin is set are checked against the cross-shard
    /// lookahead contract. Pass `None` for control-plane work exempt from it.
    #[inline]
    pub fn set_origin(&mut self, origin: Option<usize>) {
        debug_assert!(origin.is_none_or(|o| o < self.num_shards()));
        self.ledger.origin = origin;
    }
    /// Schedules `event` on `shard` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or `at` precedes the merged clock.
    pub fn schedule_at(&mut self, shard: usize, at: SimTime, event: E) {
        let gseq = self.ledger.on_schedule(shard, at);
        let slot = self.slab.insert(event);
        match self.frontier {
            // Inside the committed region (only possible from a commit-phase
            // handler): merge through the overlay so the event still executes
            // in its exact global slot.
            Some(f) if at <= f => self.overlay.push(OverlayEntry {
                time: at,
                gseq,
                shard,
                slot,
            }),
            _ => {
                let key = (at, gseq);
                if key < self.mailbox_mins[shard] {
                    self.mailbox_mins[shard] = key;
                }
                self.mailboxes[shard].push((at, gseq, slot));
            }
        }
    }

    /// Schedules `event` on `shard` to fire `delay` after the merged clock.
    #[inline]
    pub fn schedule_after(&mut self, shard: usize, delay: SimDuration, event: E) {
        self.schedule_at(shard, self.ledger.now + delay, event);
    }

    /// Schedules one `make()` event on `shard` at every multiple of `period`
    /// — same contract as [`EventQueue::schedule_periodic`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn schedule_periodic(
        &mut self,
        shard: usize,
        period: SimDuration,
        end: SimTime,
        inclusive: bool,
        mut make: impl FnMut() -> E,
    ) {
        assert!(period > SimDuration::ZERO, "periodic events need a period");
        let mut t = self.ledger.now + period;
        while t < end {
            self.schedule_at(shard, t, make());
            t += period;
        }
        if inclusive && t == end {
            self.schedule_at(shard, t, make());
        }
    }

    /// The committed region's head: `(is_overlay, shard, key)`.
    fn committed_head(&self) -> Option<(bool, usize, (SimTime, u64))> {
        let mut best = usize::MAX;
        let mut best_key = EMPTY_HEAD;
        for (i, &k) in self.batch_heads.iter().enumerate() {
            if k < best_key {
                best_key = k;
                best = i;
            }
        }
        match self.overlay.peek() {
            Some(e) if e.key() < best_key => Some((true, e.shard, e.key())),
            _ => (best != usize::MAX).then_some((false, best, best_key)),
        }
    }

    /// Pops the committed region's head, if any, moving its payload out of
    /// the slab.
    fn commit_next(&mut self) -> Option<(SimTime, usize, E)> {
        let (from_overlay, shard, _) = self.committed_head()?;
        let (t, slot) = if from_overlay {
            let e = self.overlay.pop().expect("peeked overlay head vanished");
            (e.time, e.slot)
        } else {
            let (t, (_gseq, slot)) = self.batches[shard]
                .pop()
                .expect("cached batch head of an empty batch");
            self.batch_heads[shard] = batch_head(&self.batches[shard]);
            (t, slot)
        };
        self.ledger.on_pop(shard, t);
        Some((t, shard, self.slab.take(slot)))
    }

    /// Minimum pending key outside the committed region (shard queues and
    /// mailboxes).
    fn pending_min(&self) -> (SimTime, u64) {
        let mut min = EMPTY_HEAD;
        for &k in self.queue_heads.iter().chain(self.mailbox_mins.iter()) {
            if k < min {
                min = k;
            }
        }
        min
    }

    /// Runs one barrier: flushes every mailbox, drains every shard up to the
    /// new frontier, and installs the returned batches. Returns `false`
    /// (doing nothing) when nothing is pending at or before `horizon`.
    /// Call only with the committed region empty.
    fn advance_epoch(&mut self, horizon: SimTime) -> bool {
        debug_assert!(self.overlay.is_empty());
        debug_assert!(self.batch_heads.iter().all(|&k| k == EMPTY_HEAD));
        let gmin = self.pending_min();
        if gmin == EMPTY_HEAD || gmin.0 > horizon {
            return false;
        }
        // Inclusive frontier: K lookahead windows past the pending head.
        let span_us = (self.ledger.lookahead.as_micros().max(1) as u128) * (self.span_mult as u128);
        let until_us =
            (gmin.0.as_micros() as u128 + span_us - 1).min(SimTime::MAX.as_micros() as u128) as u64;
        let until = SimTime::from_micros(until_us);
        debug_assert!(self.frontier.is_none_or(|f| until > f));
        let mut drained = 0usize;
        for (s, q) in self.queues.iter_mut().enumerate() {
            for (at, gseq, slot) in self.mailboxes[s].drain(..) {
                q.schedule_at(at, (gseq, slot));
            }
            self.mailbox_mins[s] = EMPTY_HEAD;
            let batch = &mut self.batches[s];
            debug_assert!(batch.is_empty());
            drained += q.drain_into(until, batch);
            batch.reverse();
            self.batch_heads[s] = batch_head(batch);
            self.queue_heads[s] = queue_head(q);
        }
        self.frontier = Some(until);
        // Deterministic span adaptation — a pure function of drain volume.
        if drained < SPAN_GROW_BELOW && self.span_mult < SPAN_MAX_MULT {
            self.span_mult *= 2;
        } else if drained > SPAN_SHRINK_ABOVE && self.span_mult > 1 {
            self.span_mult /= 2;
        }
        true
    }

    /// Timestamp of the globally earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut min = self
            .committed_head()
            .map(|(_, _, k)| k)
            .unwrap_or(EMPTY_HEAD);
        let pending = self.pending_min();
        if pending < min {
            min = pending;
        }
        (min != EMPTY_HEAD).then_some(min.0)
    }

    /// Pops the globally earliest event, advancing the merged clock. Returns
    /// `(time, shard, event)` — the shard is the one the event was routed to.
    pub fn pop(&mut self) -> Option<(SimTime, usize, E)> {
        loop {
            if let Some(out) = self.commit_next() {
                return Some(out);
            }
            if !self.advance_epoch(SimTime::MAX) {
                return None;
            }
        }
    }

    /// Pops the globally earliest event only if it fires at or before
    /// `horizon`; otherwise leaves it in place (same one-touch contract as
    /// [`EventQueue::pop_if_at_or_before`]). No barrier runs when the head is
    /// beyond the horizon.
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, usize, E)> {
        loop {
            if let Some((_, _, key)) = self.committed_head() {
                if key.0 > horizon {
                    return None;
                }
                return self.commit_next();
            }
            if !self.advance_epoch(horizon) {
                return None;
            }
        }
    }

    /// Aggregated self-telemetry across the shard queues: peak depth is the
    /// merged queue's own peak (what a single queue would report), resizes
    /// sum, scan worst-cases max, bucket counts sum, and the width is the
    /// widest shard's (the least calibrated one).
    pub fn telemetry(&self) -> QueueTelemetry {
        let mut t = QueueTelemetry {
            peak_depth: self.ledger.peak_depth,
            ..QueueTelemetry::default()
        };
        for qt in self.queues.iter().map(EventQueue::telemetry) {
            t.resizes += qt.resizes;
            t.max_pop_scan = t.max_pop_scan.max(qt.max_pop_scan);
            t.buckets += qt.buckets;
            t.width_us = t.width_us.max(qt.width_us);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapQueue;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::rc::Rc;

    const LA: SimDuration = SimDuration::from_millis(1);

    /// Drives an [`EpochExecutor`] and the unsharded [`HeapQueue`] reference
    /// (which carries each event's shard alongside its value) through the
    /// same op sequence and asserts the pop streams and clocks agree.
    struct Differential {
        exec: EpochExecutor<u32>,
        refq: HeapQueue<(usize, u32)>,
    }

    impl Differential {
        fn new(shards: usize, lookahead: SimDuration) -> Self {
            Differential {
                exec: EpochExecutor::new(shards, lookahead).unwrap(),
                refq: HeapQueue::new(),
            }
        }

        fn schedule(&mut self, shard: usize, at_us: u64, v: u32) {
            let at = SimTime::from_micros(at_us);
            self.exec.schedule_at(shard, at, v);
            self.refq.schedule_at(at, (shard, v));
        }

        fn pop(&mut self) -> Option<(SimTime, usize, u32)> {
            let a = self.exec.pop();
            let b = self.refq.pop().map(|(t, (s, v))| (t, s, v));
            assert_eq!(a, b, "pop streams diverged");
            self.check();
            a
        }

        fn pop_bounded(&mut self, horizon_us: u64) -> Option<(SimTime, usize, u32)> {
            let h = SimTime::from_micros(horizon_us);
            let a = self.exec.pop_if_at_or_before(h);
            let b = self
                .refq
                .pop_if_at_or_before(h)
                .map(|(t, (s, v))| (t, s, v));
            assert_eq!(a, b, "bounded pop streams diverged at horizon {h}");
            self.check();
            a
        }

        fn check(&self) {
            assert_eq!(self.exec.len(), self.refq.len());
            assert_eq!(self.exec.now(), self.refq.now());
            assert_eq!(self.exec.peek_time(), self.refq.peek_time());
            assert_eq!(self.exec.scheduled_total(), self.refq.scheduled_total());
        }
    }

    #[test]
    fn zero_lookahead_is_accepted_only_for_one_shard() {
        // The degenerate config must be an immediate, explicable error when
        // sharded — a conservative executor would deadlock on it instead.
        let err = EpochExecutor::<u32>::new(4, SimDuration::ZERO).unwrap_err();
        assert_eq!(err, ShardConfigError::ZeroLookahead { shards: 4 });
        assert!(err.to_string().contains("strictly positive"));
        assert_eq!(
            EpochExecutor::<u32>::new(0, LA).unwrap_err(),
            ShardConfigError::NoShards
        );
        assert_eq!(
            EpochExecutor::<u32>::with_shard_capacities_and_horizon(
                1,
                SimDuration::ZERO,
                &[64, 64],
                SimDuration::from_secs(1),
            )
            .unwrap_err(),
            ShardConfigError::ZeroLookahead { shards: 2 }
        );
        // One shard has no cross-shard sync, so zero lookahead is fine.
        assert!(EpochExecutor::<u32>::new(1, SimDuration::ZERO).is_ok());
    }

    #[test]
    fn merged_stream_matches_heap_reference() {
        for (shards, lookahead) in [(4, LA), (1, LA), (1, SimDuration::ZERO)] {
            let mut d = Differential::new(shards, lookahead);
            // Deterministic pseudo-random mix of shards and times.
            let mut x = 0x243f_6a88u64;
            for i in 0..3_000u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let shard = (x >> 33) as usize % shards;
                let at = d.exec.now().as_micros() + (x >> 17) % 50_000;
                d.schedule(shard, at, i);
                if x.is_multiple_of(3) {
                    d.pop();
                }
            }
            while d.pop().is_some() {}
        }
    }

    #[test]
    fn bounded_pops_and_empty_epochs_match_reference() {
        for (shards, lookahead) in [(3, LA), (1, SimDuration::ZERO)] {
            let mut d = Differential::new(shards, lookahead);
            for i in 0..500u32 {
                d.schedule(i as usize % shards, (i as u64) * 400, i);
            }
            // Horizons that land before, between, and after epoch frontiers.
            for h in [
                0u64,
                150,
                399,
                400,
                5_000,
                5_000,
                60_000,
                199_600,
                u64::MAX / 2,
            ] {
                while d.pop_bounded(h).is_some() {}
            }
            assert!(d.exec.is_empty());
        }
    }

    #[test]
    fn commit_phase_schedules_inside_the_frontier_merge_exactly() {
        // Pops interleaved with schedules that land inside the committed
        // region — at zero lookahead on one shard, and cross-shard below the
        // lookahead on two, where each one must be counted as a violation
        // yet still execute in order.
        for (shards, lookahead) in [(2, LA), (1, SimDuration::ZERO)] {
            let mut d = Differential::new(shards, lookahead);
            for i in 0..200u32 {
                d.schedule(i as usize % shards, 10_000 + (i as u64 % 7) * 10, i);
            }
            let mut popped = 0;
            let mut offending = 0;
            while let Some((t, shard, v)) = d.pop() {
                popped += 1;
                if v % 5 == 0 && popped < 400 {
                    d.exec.set_origin(Some(shard));
                    // Same instant, other shard (if there is one).
                    d.schedule((shard + 1) % shards, t.as_micros(), 1_000 + v);
                    d.exec.set_origin(None);
                    offending += 1;
                }
            }
            let want = if shards > 1 { offending } else { 0 };
            assert_eq!(d.exec.violations(), want, "{shards} shards");
        }
    }

    #[test]
    fn merges_across_shards_in_global_time_order() {
        let mut q = EpochExecutor::new(3, LA).unwrap();
        q.schedule_at(2, SimTime::from_secs(3), "c");
        q.schedule_at(0, SimTime::from_secs(1), "a");
        q.schedule_at(1, SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_secs(1), 0, "a"),
                (SimTime::from_secs(2), 1, "b"),
                (SimTime::from_secs(3), 2, "c"),
            ]
        );
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn same_instant_ties_break_by_global_schedule_order() {
        // Events at one instant interleaved across shards must pop in the
        // order they were scheduled — the global sequence, not shard index.
        for (shards, lookahead) in [(2, LA), (1, SimDuration::ZERO)] {
            let mut ex = EpochExecutor::new(shards, lookahead).unwrap();
            let t = SimTime::from_secs(1);
            for i in 0..100u32 {
                ex.schedule_at(i as usize % shards, t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| ex.pop()).map(|(_, _, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stats_and_peek_track_the_merge() {
        let mut q = EpochExecutor::new(2, LA).unwrap();
        q.schedule_at(0, SimTime::from_secs(1), ());
        q.schedule_at(1, SimTime::from_secs(2), ());
        q.schedule_at(1, SimTime::from_secs(3), ());
        assert_eq!(q.len(), 3);
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop_if_at_or_before(SimTime::from_millis(500)), None);
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_secs(1)),
            Some((SimTime::from_secs(1), 0, ()))
        );
        while q.pop().is_some() {}
        let stats = |scheduled, popped| ShardStats { scheduled, popped };
        assert_eq!(q.shard_stats(), [stats(1, 1), stats(2, 2)]);
        assert_eq!(q.telemetry().peak_depth, 3);
    }

    #[test]
    fn lookahead_violations_are_counted_per_offending_schedule() {
        let mut q = EpochExecutor::new(2, LA).unwrap();
        q.schedule_at(0, SimTime::from_secs(1), ());
        q.pop();
        q.set_origin(Some(0));
        // Same shard: never a violation, however close.
        q.schedule_after(0, SimDuration::ZERO, ());
        assert_eq!(q.violations(), 0);
        // Cross-shard below the lookahead: violation.
        q.schedule_after(1, SimDuration::from_micros(999), ());
        assert_eq!(q.violations(), 1);
        // Cross-shard exactly at the lookahead: allowed.
        q.schedule_after(1, LA, ());
        assert_eq!(q.violations(), 1);
        // No origin set (control plane): exempt.
        q.set_origin(None);
        q.schedule_after(1, SimDuration::ZERO, ());
        assert_eq!(q.violations(), 1);
    }

    #[test]
    fn epochs_count_lookahead_windows() {
        let mut q = EpochExecutor::new(2, LA).unwrap();
        for ms in [0u64, 1, 2, 5] {
            q.schedule_at(0, SimTime::from_millis(ms), ms);
        }
        while q.pop().is_some() {}
        // Pops at 0/1/2/5 ms with a 1 ms window: barriers at 1, 2 and 5 ms.
        assert_eq!(q.epochs(), 3);
        // A zero lookahead has no windows to cross.
        let mut q = EpochExecutor::new(1, SimDuration::ZERO).unwrap();
        for ms in [0u64, 1, 2, 5] {
            q.schedule_at(0, SimTime::from_millis(ms), ms);
        }
        while q.pop().is_some() {}
        assert_eq!((q.epochs(), q.violations()), (0, 0));
    }

    #[test]
    fn sparse_far_future_events_cross_many_epochs() {
        // Events thousands of lookahead windows apart force the adaptive
        // span to grow and far-tier migrations inside the shard queues.
        let mut d = Differential::new(2, LA);
        for i in 0..40u32 {
            d.schedule(i as usize % 2, i as u64 * 3_000_000, i);
        }
        while d.pop().is_some() {}
        assert!(d.exec.epochs() > 30, "epoch windows were counted");
    }

    #[test]
    fn telemetry_aggregates_across_shards() {
        let mut ex = EpochExecutor::new(4, LA).unwrap();
        for i in 0..1_000u32 {
            ex.schedule_at(i as usize % 4, SimTime::from_micros(i as u64 * 13), i);
        }
        while ex.pop().is_some() {}
        let t = ex.telemetry();
        assert_eq!(t.peak_depth, 1_000);
        assert!(t.buckets >= 4 * 16);
        assert!(t.max_pop_scan >= 1);
    }

    /// A payload that counts its own drops.
    struct Counted {
        id: u64,
        drops: Rc<Cell<usize>>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.set(self.drops.get() + 1);
        }
    }

    #[test]
    fn every_payload_is_popped_or_dropped_exactly_once() {
        let drops = Rc::new(Cell::new(0));
        let mut ex = EpochExecutor::new(2, LA).unwrap();
        let mut refq = HeapQueue::new();
        let mut schedule = |ex: &mut EpochExecutor<Counted>, (shard, at, id)| {
            let drops = Rc::clone(&drops);
            ex.schedule_at(shard, at, Counted { id, drops });
            refq.schedule_at(at, (shard, id));
        };
        // Ten events inside the first epoch's span, the rest far beyond.
        for i in 0..10u64 {
            schedule(&mut ex, (i as usize % 2, SimTime::from_micros(i * 50), i));
        }
        for i in 0..10u64 {
            schedule(
                &mut ex,
                (i as usize % 2, SimTime::from_millis(50 + i), 10 + i),
            );
        }
        let mut pops = Vec::new();
        let (t, shard, payload) = ex.pop().expect("an event is due");
        pops.push((t, shard, payload.id));
        drop(payload);
        // A commit-phase schedule inside the frontier, one beyond it.
        schedule(&mut ex, (1, t, 20));
        schedule(&mut ex, (0, SimTime::from_secs(1), 21));
        assert_eq!(drops.get(), 1);

        assert!(!ex.overlay.is_empty(), "overlay holds an event");
        assert!(
            ex.mailboxes.iter().any(|m| !m.is_empty()),
            "mailbox holds one"
        );
        assert!(
            ex.batches.iter().any(|b| !b.is_empty()),
            "batches hold some"
        );
        assert!(
            ex.queue_heads.iter().any(|&h| h != EMPTY_HEAD),
            "calendar queues hold some"
        );
        let pending = ex.len();
        assert_eq!(pending, 21);
        assert_eq!(ex.slab.slots.len() - ex.slab.free.len(), pending);
        // Half the rest pops; the other half is dropped with the executor.
        for _ in 0..10 {
            let (t, shard, payload) = ex.pop().expect("an event is due");
            pops.push((t, shard, payload.id));
        }
        assert_eq!(drops.get(), 11);
        drop(ex);
        assert_eq!(drops.get(), 22);
        let want: Vec<_> = std::iter::from_fn(|| refq.pop())
            .take(11)
            .map(|(t, (s, id))| (t, s, id))
            .collect();
        assert_eq!(pops, want, "pop streams diverged");
    }

    proptest! {
        /// Random schedule / pop / bounded-pop / in-frontier interleavings:
        /// the slab's high-water mark never exceeds the peak pending count
        /// (slots are recycled), and its occupancy always equals `len()`.
        #[test]
        fn slab_never_outgrows_the_peak_pending_count(
            ops in proptest::collection::vec((0u8..8, 0u64..u64::MAX / 2), 1..300),
        ) {
            let mut ex = EpochExecutor::new(3, LA).unwrap();
            let mut peak = 0usize;
            for &(code, v) in &ops {
                let shard = (v >> 32) as usize % 3;
                match code {
                    0..=2 => ex.schedule_after(shard, SimDuration::from_micros(v % 20_000), v),
                    // Lands inside the committed region once a barrier ran.
                    3 => ex.schedule_after(shard, SimDuration::from_micros(v % 500), v),
                    4..=6 => {
                        ex.pop();
                    }
                    _ => {
                        let horizon = ex.now() + SimDuration::from_micros(v % 5_000);
                        ex.pop_if_at_or_before(horizon);
                    }
                }
                peak = peak.max(ex.len());
                prop_assert!(ex.slab.slots.len() <= peak);
                prop_assert_eq!(ex.slab.slots.len() - ex.slab.free.len(), ex.len());
            }
            while ex.pop().is_some() {}
            prop_assert_eq!(ex.slab.free.len(), ex.slab.slots.len());
        }
    }

    #[test]
    fn scheduling_into_the_past_panics() {
        let caught = std::panic::catch_unwind(|| {
            let mut ex = EpochExecutor::new(2, LA).unwrap();
            ex.schedule_at(0, SimTime::from_secs(5), 1u32);
            ex.pop();
            ex.schedule_at(1, SimTime::from_secs(4), 2u32);
        });
        let msg = caught
            .expect_err("past schedule must panic")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("cannot schedule into the past"), "{msg}");
    }

    #[test]
    fn schedule_periodic_matches_reference() {
        let mut d = Differential::new(2, LA);
        let (period, end) = (SimDuration::from_millis(5), SimTime::from_millis(50));
        d.exec.schedule_periodic(1, period, end, true, || 7);
        let mut t = SimTime::ZERO + period;
        while t <= end {
            d.refq.schedule_at(t, (1, 7));
            t += period;
        }
        while d.pop().is_some() {}
        assert_eq!(d.exec.scheduled_total(), 10);
    }
}
