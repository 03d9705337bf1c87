//! Epoch-parallel executor: worker threads advance per-shard calendar queues,
//! a single commit thread executes the globally merged stream.
//!
//! [`EpochExecutor`] is the multi-core counterpart of [`ShardedQueue`]. Both
//! expose the same pop stream — the exact `(time, global seq)` order one
//! unsharded [`EventQueue`] would produce — but where the sharded queue
//! interleaves one pop at a time, the executor advances whole *epochs*:
//!
//! 1. **Barrier.** When the committed region runs dry, the commit side finds
//!    the global minimum pending key across every shard's cached head and
//!    mailbox, fixes an inclusive epoch frontier `F = min + K·lookahead − 1µs`,
//!    and hands each worker its shards' accumulated mailbox batches.
//! 2. **Epoch.** Each worker inserts its mailbox batch and bulk-drains its
//!    shards up to `F` ([`EventQueue::drain_into`]), returning per-shard
//!    batches already sorted by `(time, seq)` plus the next head key. Workers
//!    only do queue mechanics — no handler runs off the commit thread.
//! 3. **Commit.** The commit side merges the per-shard batch heads (plus an
//!    *overlay* heap, below) and executes events one by one in global order.
//!    Events scheduled by handlers during the commit phase go to the
//!    per-shard mailboxes when they land beyond `F`, or into the overlay heap
//!    when they land inside the committed region — including any that violate
//!    the lookahead contract, which are counted exactly as the serial path
//!    counts them but still execute in their correct global slot.
//!
//! # Why the merge is byte-identical, at any thread count
//!
//! * Workers never execute handlers, so the *values* produced by a run are
//!   decided solely on the commit thread, in the merged order.
//! * The merged order is the total `(time, global seq)` order: batches are
//!   sorted by it, the overlay heap orders by it, and within a shard the
//!   inner queue's local-sequence order agrees with it (mailbox batches are
//!   flushed whole, in global-sequence order, every barrier — so local
//!   sequence numbers are assigned in global-sequence order).
//! * Barrier placement, epoch spans, and the adaptive span multiplier are
//!   pure functions of the event set, never of thread scheduling. The thread
//!   count only decides which OS thread runs which shard's queue mechanics.
//!
//! Epochs may span *many* lookahead windows (`K` adapts to drain volume):
//! that is safe precisely because handlers stay on the commit thread — a
//! commit-phase schedule landing inside the already-drained region is routed
//! to the overlay heap instead of the worker queue, so nothing is ever
//! executed early or out of order. The lookahead contract is still audited
//! event-by-event through the shared [`SyncLedger`], and a violation-free run
//! certifies that a handler-parallel executor would have been safe too.
//!
//! With `threads == 1` the executor runs the identical algorithm inline
//! (no channels, no threads): same barriers, same batches, same counters.
//! This inline mode is also what makes epoch batching pay off on one core —
//! bulk drains replace the per-pop bucket re-scans that dominate dense
//! sharded runs.
//!
//! # Keys move, payloads stay put
//!
//! A payload is written exactly once, at schedule time, into a slab (a
//! `Vec<Option<E>>` with a LIFO free list), and moved out exactly once, by
//! the commit thread when its event executes. Everything in between — the
//! mailboxes, the per-shard calendar queues, the drained batches with their
//! sort and reversal, the overlay heap and the worker-channel messages —
//! carries only a key: `(time, global seq, slot)`, 24–32 bytes, whatever
//! the payload's size. Workers therefore never touch a payload, and a
//! same-instant join burst of hundreds of thousands of deliveries costs one
//! payload write each instead of one per queue stage. For the same reason
//! the payload type need not be `Send`: the slab never leaves the commit
//! thread.
//!
//! Every queue decision — calendar resizes, width recalibrations, bucket
//! scans, epoch frontiers — is a function of keys alone, so the pop stream
//! and the queue telemetry are exactly those of an executor that carries
//! whole events.

use std::collections::BinaryHeap;
use std::sync::mpsc;
use std::thread::JoinHandle;

use crate::event::{EventQueue, QueueTelemetry};
use crate::shard::{checked_shards, ShardConfigError, ShardStats, SyncLedger, EMPTY_HEAD};
use crate::time::{SimDuration, SimTime};

/// Epoch spans start at one lookahead window and adapt by powers of two:
/// below this many drained events per epoch the span doubles (barrier
/// overhead dominates), above [`SPAN_SHRINK_ABOVE`] it halves (commit-side
/// batches grow past cache-friendly sizes). Both triggers are pure functions
/// of the drained totals, so the span sequence is identical for every thread
/// count.
const SPAN_GROW_BELOW: usize = 64;
/// See [`SPAN_GROW_BELOW`].
const SPAN_SHRINK_ABOVE: usize = 4096;
/// Upper bound on the span multiplier (2^16 lookahead windows per epoch).
const SPAN_MAX_MULT: u64 = 1 << 16;

/// A mailboxed event: `(time, global seq, slab slot)`.
type MailKey = (SimTime, u64, u32);
/// What a shard's calendar queue holds per event: `(global seq, slab slot)`.
type QueueKey = (u64, u32);
/// A drained event: `(time, (global seq, slab slot))`.
type BatchKey = (SimTime, QueueKey);

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

/// Commit thread → worker messages.
enum ToWorker {
    /// Insert the mailbox batches (one per owned shard, parallel to the
    /// worker's shard list), then drain each owned shard up to `until`
    /// (inclusive) and reply with [`FromWorker::Epoch`].
    Epoch {
        inserts: Vec<Vec<MailKey>>,
        until: SimTime,
    },
    /// Reply with each owned shard's queue telemetry.
    Telemetry,
}

/// One drained shard in an epoch reply:
/// `(shard, drained batch ascending by (time, gseq), next head key)`.
type DrainedShard = (usize, Vec<BatchKey>, (SimTime, u64));

/// Worker → commit thread replies (tagged; all workers share one channel).
enum FromWorker {
    Epoch {
        shards: Vec<DrainedShard>,
    },
    Telemetry {
        shards: Vec<(usize, QueueTelemetry)>,
    },
}

/// Where the per-shard queue mechanics run.
enum Backend {
    /// `threads == 1`: same epochs, run in place on the commit thread.
    Inline { queues: Vec<EventQueue<QueueKey>> },
    /// `threads > 1`: persistent workers, one channel pair per worker.
    Threaded {
        to_workers: Vec<mpsc::Sender<ToWorker>>,
        from_workers: mpsc::Receiver<FromWorker>,
        handles: Vec<Option<JoinHandle<()>>>,
        /// `owned[w]` lists the shards worker `w` owns (`s % threads == w`).
        owned: Vec<Vec<usize>>,
    },
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

/// The worker loop: pure queue mechanics on the owned shards, driven entirely
/// by barrier messages. Exits when the commit side hangs up.
fn worker_loop(
    owned: Vec<usize>,
    mut queues: Vec<EventQueue<QueueKey>>,
    rx: mpsc::Receiver<ToWorker>,
    tx: mpsc::Sender<FromWorker>,
) {
    while let Ok(msg) = rx.recv() {
        let reply = match msg {
            ToWorker::Epoch { inserts, until } => {
                let mut shards = Vec::with_capacity(owned.len());
                for ((q, &s), batch_in) in queues.iter_mut().zip(&owned).zip(inserts) {
                    for (at, gseq, slot) in batch_in {
                        q.schedule_at(at, (gseq, slot));
                    }
                    let mut batch = Vec::new();
                    q.drain_into(until, &mut batch);
                    shards.push((s, batch, queue_head(q)));
                }
                FromWorker::Epoch { shards }
            }
            ToWorker::Telemetry => FromWorker::Telemetry {
                shards: owned
                    .iter()
                    .zip(&queues)
                    .map(|(&s, q)| (s, q.telemetry()))
                    .collect(),
            },
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

/// A multi-threaded conservative executor over per-shard [`EventQueue`]s,
/// pop-stream-identical to [`ShardedQueue`] — see the module docs for the
/// barrier protocol and the byte-identity argument.
///
/// Unlike [`ShardedQueue`], construction requires a strictly positive
/// lookahead even for one shard: the epoch machinery is lookahead-paced.
/// `E` need not be `Send`, even with worker threads: payloads stay in the
/// commit thread's slab and workers see only keys.
#[derive(Debug)]
pub struct EpochExecutor<E> {
    ledger: SyncLedger,
    backend: Backend,
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
    /// Head key of each shard's worker-side queue as of the last barrier
    /// (exact between barriers: workers only act at barriers).
    worker_heads: Vec<(SimTime, u64)>,
    /// Commit-phase schedules that landed inside the committed region.
    overlay: BinaryHeap<OverlayEntry>,
    /// Inclusive end of the committed region; `None` before the first
    /// barrier (everything waits in the mailboxes).
    frontier: Option<SimTime>,
    /// Current epoch span in lookahead windows (adaptive, deterministic).
    span_mult: u64,
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Inline { queues } => {
                write!(f, "Inline({} shards)", queues.len())
            }
            Backend::Threaded { owned, .. } => {
                write!(f, "Threaded({} workers)", owned.len())
            }
        }
    }
}

impl<E> EpochExecutor<E> {
    /// Creates an executor with default-sized per-shard queues. `threads` is
    /// clamped to `1..=shards`; with one thread the epochs run inline on the
    /// calling thread.
    pub fn new(
        shards: usize,
        threads: usize,
        lookahead: SimDuration,
    ) -> Result<Self, ShardConfigError> {
        checked_shards(shards, lookahead)?;
        Self::build(
            threads,
            lookahead,
            0,
            (0..shards).map(|_| EventQueue::new()),
        )
    }

    /// Creates an executor whose shard queues are pre-sized: shard `s` for
    /// `caps[s]` pending events spread over `horizon` of simulated time. The
    /// payload slab reserves room for the sum of `caps`.
    /// Per-shard capacities matter because shard 0 typically carries the
    /// control plane (ticks, samplers) on top of its share of deliveries.
    pub fn with_shard_capacities_and_horizon(
        threads: usize,
        lookahead: SimDuration,
        caps: &[usize],
        horizon: SimDuration,
    ) -> Result<Self, ShardConfigError> {
        checked_shards(caps.len(), lookahead)?;
        Self::build(
            threads,
            lookahead,
            caps.iter().sum(),
            caps.iter()
                .map(|&c| EventQueue::with_capacity_and_horizon(c.max(16), horizon)),
        )
    }

    fn build(
        threads: usize,
        lookahead: SimDuration,
        slab_cap: usize,
        queues: impl Iterator<Item = EventQueue<QueueKey>>,
    ) -> Result<Self, ShardConfigError> {
        let queues: Vec<_> = queues.collect();
        let n = queues.len();
        if lookahead.is_zero() {
            return Err(ShardConfigError::ZeroLookahead { shards: n });
        }
        let threads = threads.clamp(1, n);
        let backend = if threads == 1 {
            Backend::Inline { queues }
        } else {
            let mut owned: Vec<Vec<usize>> = vec![Vec::new(); threads];
            for s in 0..n {
                owned[s % threads].push(s);
            }
            let (reply_tx, from_workers) = mpsc::channel();
            let mut to_workers = Vec::with_capacity(threads);
            let mut handles = Vec::with_capacity(threads);
            let mut slots: Vec<Option<EventQueue<QueueKey>>> =
                queues.into_iter().map(Some).collect();
            for (w, shard_list) in owned.iter().enumerate() {
                let qs: Vec<_> = shard_list
                    .iter()
                    .map(|&s| slots[s].take().expect("shard owned twice"))
                    .collect();
                let shard_list = shard_list.clone();
                let (tx, rx) = mpsc::channel();
                let reply = reply_tx.clone();
                handles.push(Some(
                    std::thread::Builder::new()
                        .name(format!("epoch-worker-{w}"))
                        .spawn(move || worker_loop(shard_list, qs, rx, reply))
                        .expect("spawn epoch worker"),
                ));
                to_workers.push(tx);
            }
            Backend::Threaded {
                to_workers,
                from_workers,
                handles,
                owned,
            }
        };
        Ok(EpochExecutor {
            ledger: SyncLedger::new(n, lookahead),
            backend,
            slab: Slab::with_capacity(slab_cap),
            mailboxes: (0..n).map(|_| Vec::new()).collect(),
            mailbox_mins: vec![EMPTY_HEAD; n],
            batches: (0..n).map(|_| Vec::new()).collect(),
            batch_heads: vec![EMPTY_HEAD; n],
            worker_heads: vec![EMPTY_HEAD; n],
            overlay: BinaryHeap::new(),
            frontier: None,
            span_mult: 1,
        })
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.mailboxes.len()
    }

    /// Worker threads driving the shard queues (1 = inline).
    #[inline]
    pub fn threads(&self) -> usize {
        match &self.backend {
            Backend::Inline { .. } => 1,
            Backend::Threaded { owned, .. } => owned.len(),
        }
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
    /// end of run is the conservative-safety proof (see [`ShardedQueue`]).
    #[inline]
    pub fn violations(&self) -> u64 {
        self.ledger.violations
    }

    /// Conservative epoch windows the pop clock has crossed — the same pure
    /// function of the pop stream that [`ShardedQueue::epochs`] counts, *not*
    /// the executor's internal barrier count.
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.ledger.epochs
    }

    /// Per-shard scheduled/popped counters.
    #[inline]
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.ledger.stats
    }

    /// Declares the shard the driver is currently executing on — same
    /// audit contract as [`ShardedQueue::set_origin`].
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

    /// Minimum pending key outside the committed region (worker queues and
    /// mailboxes).
    fn pending_min(&self) -> (SimTime, u64) {
        let mut min = EMPTY_HEAD;
        for &k in self.worker_heads.iter().chain(self.mailbox_mins.iter()) {
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
        let Self {
            backend,
            mailboxes,
            mailbox_mins,
            batches,
            batch_heads,
            worker_heads,
            ..
        } = self;
        let mut drained = 0usize;
        match backend {
            Backend::Inline { queues } => {
                for (s, q) in queues.iter_mut().enumerate() {
                    for (at, gseq, slot) in mailboxes[s].drain(..) {
                        q.schedule_at(at, (gseq, slot));
                    }
                    mailbox_mins[s] = EMPTY_HEAD;
                    let batch = &mut batches[s];
                    debug_assert!(batch.is_empty());
                    drained += q.drain_into(until, batch);
                    batch.reverse();
                    batch_heads[s] = batch_head(batch);
                    worker_heads[s] = queue_head(q);
                }
            }
            Backend::Threaded {
                to_workers,
                from_workers,
                handles,
                owned,
            } => {
                for (w, tx) in to_workers.iter().enumerate() {
                    let inserts: Vec<_> = owned[w]
                        .iter()
                        .map(|&s| {
                            mailbox_mins[s] = EMPTY_HEAD;
                            std::mem::take(&mut mailboxes[s])
                        })
                        .collect();
                    if tx.send(ToWorker::Epoch { inserts, until }).is_err() {
                        propagate_worker_panic(handles);
                    }
                }
                for _ in 0..to_workers.len() {
                    match from_workers.recv() {
                        Ok(FromWorker::Epoch { shards }) => {
                            for (s, mut batch, head) in shards {
                                drained += batch.len();
                                batch.reverse();
                                batch_heads[s] = batch_head(&batch);
                                batches[s] = batch;
                                worker_heads[s] = head;
                            }
                        }
                        Ok(FromWorker::Telemetry { .. }) => {
                            unreachable!("telemetry reply outside a telemetry request")
                        }
                        Err(_) => propagate_worker_panic(handles),
                    }
                }
            }
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
    /// `(time, shard, event)` — identical to [`ShardedQueue::pop`].
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
    /// `horizon` — same one-touch contract as
    /// [`ShardedQueue::pop_if_at_or_before`]. No barrier runs when the head
    /// is beyond the horizon.
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

    /// Aggregated self-telemetry across the shard queues — same aggregation
    /// as [`ShardedQueue::telemetry`]. Takes `&mut self` because the
    /// threaded backend round-trips a request to its workers.
    pub fn telemetry(&mut self) -> QueueTelemetry {
        let mut t = QueueTelemetry {
            peak_depth: self.ledger.peak_depth,
            ..QueueTelemetry::default()
        };
        let mut fold = |qt: QueueTelemetry| {
            t.resizes += qt.resizes;
            t.max_pop_scan = t.max_pop_scan.max(qt.max_pop_scan);
            t.buckets += qt.buckets;
            t.width_us = t.width_us.max(qt.width_us);
        };
        match &mut self.backend {
            Backend::Inline { queues } => {
                for q in queues.iter() {
                    fold(q.telemetry());
                }
            }
            Backend::Threaded {
                to_workers,
                from_workers,
                handles,
                ..
            } => {
                for tx in to_workers.iter() {
                    if tx.send(ToWorker::Telemetry).is_err() {
                        propagate_worker_panic(handles);
                    }
                }
                for _ in 0..to_workers.len() {
                    match from_workers.recv() {
                        Ok(FromWorker::Telemetry { shards }) => {
                            for (_, qt) in shards {
                                fold(qt);
                            }
                        }
                        Ok(FromWorker::Epoch { .. }) => {
                            unreachable!("epoch reply outside a barrier")
                        }
                        Err(_) => propagate_worker_panic(handles),
                    }
                }
            }
        }
        t
    }
}

/// A worker hung up: join everything and re-raise the first worker panic so
/// the commit thread fails with the real cause instead of a channel error.
fn propagate_worker_panic(handles: &mut [Option<JoinHandle<()>>]) -> ! {
    for h in handles.iter_mut() {
        if let Some(h) = h.take() {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
    panic!("epoch worker disconnected without panicking");
}

impl<E> Drop for EpochExecutor<E> {
    fn drop(&mut self) {
        if let Backend::Threaded {
            to_workers,
            handles,
            ..
        } = &mut self.backend
        {
            // Closing the channels ends the worker loops.
            to_workers.clear();
            for h in handles.iter_mut() {
                if let Some(h) = h.take() {
                    // Re-raise a worker panic unless we are already
                    // unwinding (never double-panic in drop).
                    if h.join().is_err() && !std::thread::panicking() {
                        panic!("epoch worker panicked during shutdown");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedQueue;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::rc::Rc;

    const LA: SimDuration = SimDuration::from_millis(1);

    /// Drives an [`EpochExecutor`] and a [`ShardedQueue`] through the same
    /// op sequence and asserts the full observable surface stays identical.
    struct Differential {
        exec: EpochExecutor<u32>,
        refq: ShardedQueue<u32>,
    }

    impl Differential {
        fn new(shards: usize, threads: usize) -> Self {
            Differential {
                exec: EpochExecutor::new(shards, threads, LA).unwrap(),
                refq: ShardedQueue::new(shards, LA).unwrap(),
            }
        }

        fn schedule(&mut self, shard: usize, at_us: u64, v: u32) {
            let at = SimTime::from_micros(at_us);
            self.exec.schedule_at(shard, at, v);
            self.refq.schedule_at(shard, at, v);
        }

        fn set_origin(&mut self, o: Option<usize>) {
            self.exec.set_origin(o);
            self.refq.set_origin(o);
        }

        fn pop(&mut self) -> Option<(SimTime, usize, u32)> {
            let a = self.exec.pop();
            let b = self.refq.pop();
            assert_eq!(a, b, "pop streams diverged");
            self.check();
            a
        }

        fn pop_bounded(&mut self, horizon_us: u64) -> Option<(SimTime, usize, u32)> {
            let h = SimTime::from_micros(horizon_us);
            let a = self.exec.pop_if_at_or_before(h);
            let b = self.refq.pop_if_at_or_before(h);
            assert_eq!(a, b, "bounded pop streams diverged at horizon {h}");
            self.check();
            a
        }

        fn check(&self) {
            assert_eq!(self.exec.len(), self.refq.len());
            assert_eq!(self.exec.now(), self.refq.now());
            assert_eq!(self.exec.peek_time(), self.refq.peek_time());
            assert_eq!(self.exec.epochs(), self.refq.epochs());
            assert_eq!(self.exec.violations(), self.refq.violations());
            assert_eq!(self.exec.shard_stats(), self.refq.shard_stats());
            assert_eq!(self.exec.scheduled_total(), self.refq.scheduled_total());
        }
    }

    #[test]
    fn zero_lookahead_is_rejected_even_for_one_shard() {
        let err = EpochExecutor::<u32>::new(1, 1, SimDuration::ZERO).unwrap_err();
        assert!(matches!(err, ShardConfigError::ZeroLookahead { shards: 1 }));
        assert!(matches!(
            EpochExecutor::<u32>::new(0, 1, LA).unwrap_err(),
            ShardConfigError::NoShards
        ));
    }

    #[test]
    fn threads_clamp_to_shard_count() {
        let ex = EpochExecutor::<u32>::new(3, 64, LA).unwrap();
        assert_eq!(ex.threads(), 3);
        assert_eq!(ex.num_shards(), 3);
        let ex = EpochExecutor::<u32>::new(3, 0, LA).unwrap();
        assert_eq!(ex.threads(), 1);
    }

    #[test]
    fn merged_stream_matches_sharded_reference() {
        for threads in [1, 2, 4] {
            let mut d = Differential::new(4, threads);
            // Deterministic pseudo-random mix of shards and times.
            let mut x = 0x243f_6a88u64;
            for i in 0..3_000u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let shard = (x >> 33) as usize % 4;
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
        for threads in [1, 2, 3] {
            let mut d = Differential::new(3, threads);
            for i in 0..500u32 {
                d.schedule(i as usize % 3, (i as u64) * 400, i);
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
        // region — including cross-shard ones below the lookahead, which
        // must be counted as violations yet still execute in order.
        for threads in [1, 2] {
            let mut d = Differential::new(2, threads);
            for i in 0..200u32 {
                d.schedule(i as usize % 2, 10_000 + (i as u64 % 7) * 10, i);
            }
            let mut popped = 0;
            while let Some((t, shard, v)) = d.pop() {
                popped += 1;
                if v % 5 == 0 && popped < 400 {
                    d.set_origin(Some(shard));
                    // Same instant, other shard: a lookahead violation on
                    // both executors, merged identically.
                    d.schedule(1 - shard, t.as_micros(), 1_000 + v);
                    d.set_origin(None);
                }
            }
            assert!(d.exec.violations() > 0);
            d.check();
        }
    }

    #[test]
    fn same_instant_ties_break_by_global_schedule_order() {
        let mut ex = EpochExecutor::new(2, 2, LA).unwrap();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            ex.schedule_at((i % 2) as usize, t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| ex.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_far_future_events_cross_many_epochs() {
        // Events thousands of lookahead windows apart force the adaptive
        // span to grow and far-tier migrations to happen inside workers.
        for threads in [1, 2] {
            let mut d = Differential::new(2, threads);
            for i in 0..40u32 {
                d.schedule(i as usize % 2, i as u64 * 3_000_000, i);
            }
            while d.pop().is_some() {}
            assert!(d.exec.epochs() > 30, "epoch windows were counted");
        }
    }

    #[test]
    fn telemetry_aggregates_like_the_sharded_queue() {
        let mut ex = EpochExecutor::new(4, 2, LA).unwrap();
        for i in 0..1_000u32 {
            ex.schedule_at(i as usize % 4, SimTime::from_micros(i as u64 * 13), i);
        }
        while ex.pop().is_some() {}
        let t = ex.telemetry();
        assert_eq!(t.peak_depth, 1_000);
        assert!(t.buckets >= 4 * 16);
        assert!(t.max_pop_scan >= 1);
    }

    #[test]
    fn drop_joins_workers_cleanly_with_events_still_pending() {
        let mut ex = EpochExecutor::new(4, 4, LA).unwrap();
        for i in 0..500u32 {
            ex.schedule_at(i as usize % 4, SimTime::from_micros(i as u64 * 100), i);
        }
        // Run part of the way so the worker queues actually hold events.
        for _ in 0..100 {
            ex.pop();
        }
        drop(ex); // must join, not hang or leak panics
    }

    /// A payload that counts its own drops. Its `Rc` makes it `!Send`, which
    /// the executor allows even with worker threads: payloads never leave
    /// the commit thread.
    struct Counted {
        id: u64,
        drops: Rc<Cell<usize>>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.set(self.drops.get() + 1);
        }
    }

    /// Schedules one counted payload on `ex` and its id on the reference.
    fn schedule_both(
        ex: &mut EpochExecutor<Counted>,
        refq: &mut ShardedQueue<u64>,
        drops: &Rc<Cell<usize>>,
        (shard, at, id): (usize, SimTime, u64),
    ) {
        let drops = Rc::clone(drops);
        ex.schedule_at(shard, at, Counted { id, drops });
        refq.schedule_at(shard, at, id);
    }

    /// Pops from both queues, asserting the streams agree.
    fn pop_both(ex: &mut EpochExecutor<Counted>, refq: &mut ShardedQueue<u64>) -> SimTime {
        let (t, shard, payload) = ex.pop().expect("an event is due");
        assert_eq!(
            Some((t, shard, payload.id)),
            refq.pop(),
            "pop streams diverged"
        );
        t
    }

    #[test]
    fn every_payload_is_popped_or_dropped_exactly_once() {
        for threads in [1, 2] {
            let drops = Rc::new(Cell::new(0));
            let mut ex = EpochExecutor::new(2, threads, LA).unwrap();
            let mut refq = ShardedQueue::new(2, LA).unwrap();
            // Ten events inside the first epoch's span, the rest far beyond.
            for i in 0..10u64 {
                let ev = (i as usize % 2, SimTime::from_micros(i * 50), i);
                schedule_both(&mut ex, &mut refq, &drops, ev);
            }
            for i in 0..10u64 {
                let ev = (i as usize % 2, SimTime::from_millis(50 + i), 10 + i);
                schedule_both(&mut ex, &mut refq, &drops, ev);
            }
            let t = pop_both(&mut ex, &mut refq);
            // A commit-phase schedule inside the frontier, one beyond it.
            schedule_both(&mut ex, &mut refq, &drops, (1, t, 20));
            schedule_both(&mut ex, &mut refq, &drops, (0, SimTime::from_secs(1), 21));
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
                ex.worker_heads.iter().any(|&h| h != EMPTY_HEAD),
                "calendar queues hold some"
            );
            let pending = ex.len();
            assert_eq!(pending, 21);
            assert_eq!(ex.slab.slots.len() - ex.slab.free.len(), pending);
            // Half the rest pops in the reference order; the other half is
            // dropped with the executor.
            for _ in 0..10 {
                pop_both(&mut ex, &mut refq);
            }
            assert_eq!(drops.get(), 11, "threads {threads}");
            drop(ex);
            assert_eq!(drops.get(), 22, "threads {threads}");
        }
    }

    proptest! {
        /// Random schedule / pop / bounded-pop / in-frontier interleavings:
        /// the slab's high-water mark never exceeds the peak pending count
        /// (slots are recycled), and its occupancy always equals `len()`.
        #[test]
        fn slab_never_outgrows_the_peak_pending_count(
            ops in proptest::collection::vec((0u8..8, 0u64..u64::MAX / 2), 1..300),
            threads in 1usize..=2,
        ) {
            let mut ex = EpochExecutor::new(3, threads, LA).unwrap();
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
    fn scheduling_into_the_past_panics_like_the_reference() {
        let caught = std::panic::catch_unwind(|| {
            let mut ex = EpochExecutor::new(2, 2, LA).unwrap();
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
        let mut d = Differential::new(2, 2);
        d.exec.schedule_periodic(
            1,
            SimDuration::from_millis(5),
            SimTime::from_millis(50),
            true,
            || 7,
        );
        d.refq.schedule_periodic(
            1,
            SimDuration::from_millis(5),
            SimTime::from_millis(50),
            true,
            || 7,
        );
        while d.pop().is_some() {}
        assert_eq!(d.exec.scheduled_total(), 10);
    }
}
