//! The event queue and simulation driver.
//!
//! Events are ordered by `(time, sequence)`: strictly by timestamp, and FIFO among
//! events scheduled for the same instant. The sequence tie-break is what makes runs
//! deterministic — two events at the same time always fire in the order they were
//! scheduled, independent of the queue's internal layout.
//!
//! # The two-tier calendar queue
//!
//! [`EventQueue`] is a Brown-style *calendar queue* (R. Brown, "Calendar Queues: A
//! Fast O(1) Priority Queue Implementation for the Simulation Event Set Problem",
//! CACM 1988) with a far-future overflow tier. The calendar proper is an array of
//! `2^k` buckets, each covering a `width`-µs window of a contiguous near-term span
//! `[cal_start, cal_end)` — one "year". An event at time `t` inside the span lives
//! in bucket `(t / width) mod 2^k`; a cursor `(cur_bucket, cur_top)` walks the
//! windows in time order. Events at or beyond `cal_end` wait in `far`, an unsorted
//! vec with a cached minimum key. When the calendar drains, the next year's worth
//! migrates out of `far` in one pass. With bucket occupancy near 1, `schedule` and
//! `pop` are amortized O(1) — no `O(log n)` comparator walk at 10k+ pending
//! events, which is where a VANET run spends most of its wall time.
//!
//! The two tiers exist because a VANET pending set is bimodal: a dense head of
//! radio deliveries microseconds-to-milliseconds apart, plus a sparse tail of
//! pre-scheduled mobility ticks spread over the whole run. One width cannot serve
//! both — wide enough to cover the tail, the head collapses into one bucket and
//! every pop scans it linearly; narrow enough for the head, the tail turns every
//! pop into a fruitless year-long rotation. Splitting the tail into `far` lets the
//! width track head density alone.
//!
//! Layout choices that keep the structure exact and fast:
//!
//! * **Buckets are unsorted vecs with a cached minimum key**: an insert is a pure
//!   `Vec::push` plus one key compare — no sorted-insert memmove, which matters
//!   most for direct users that store whole events (the epoch executor's shard
//!   queues hold 16-byte slab keys instead). A pop scans its bucket once for
//!   the minimum `(time, seq)` (tracking the runner-up to refresh the cache) and
//!   `swap_remove`s it; the rotation scan consults only the cached keys.
//! * **The span maps windows to buckets bijectively** (`cal_end - cal_start` never
//!   exceeds `2^k · width`), so a non-empty bucket at the cursor *is* the earliest
//!   window with work — no wrap-around years, no direct-search fallback.
//! * **The pop order is structural**: windows partition the timeline, the cursor
//!   visits them in increasing order, ties at one instant share a bucket where the
//!   `(time, seq)` order is total, and everything in `far` is at or beyond
//!   `cal_end`, later than everything in the calendar. Resizing, recalibration and
//!   migration are therefore free to be heuristic without risking determinism
//!   (the differential suite against [`crate::HeapQueue`] pins this).
//! * **Lazy resize**: the bucket array doubles when calendar occupancy passes 2
//!   and halves when it falls under 1/8; the width is re-derived from the gaps
//!   among the earliest pending events whenever per-pop work (rotation steps or
//!   bucket scan length) drifts, or a single bucket grows dense. All triggers are
//!   pure functions of the operation sequence.
//! * Events scheduled *behind* the cursor (possible only after a declined
//!   [`EventQueue::pop_if_at_or_before`]) rewind it; events behind `cal_start`
//!   (possible only after a migration jumped the span ahead of the clock) extend
//!   the span downward, or trigger a full re-center if it no longer fits.
//!
//! The previous `BinaryHeap` kernel survives as [`crate::HeapQueue`], the reference
//! implementation the differential tests drive in lockstep.

use crate::time::{SimDuration, SimTime};

/// A scheduled event: payload `E` plus its firing time and insertion sequence.
#[derive(Debug, Clone)]
pub(crate) struct Scheduled<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

/// Fewest buckets the calendar ever uses; also the initial count of
/// [`EventQueue::new`].
const MIN_BUCKETS: usize = 16;
/// Most buckets the calendar will grow to (2^20 ≈ 1M pending at occupancy 2).
const MAX_BUCKETS: usize = 1 << 20;
/// Bucket width before the first calibration, in µs (1 ms — the order of radio
/// delivery delays, the densest event class in a VANET run).
const DEFAULT_WIDTH_US: u64 = 1_000;
/// Pops between drift checks of the average per-pop scan work.
const CALIB_WINDOW: u64 = 1024;
/// Average per-pop scan work (rotation steps + bucket elements) above which the
/// width is re-derived. Occupancy ~2 costs ~2–3 per pop, so 8 means "paying
/// several times the ideal".
const CALIB_SCAN_THRESHOLD: u64 = 8;
/// An insert that leaves a bucket longer than this asks for a width
/// recalibration (rate-limited by `ops_since_rebuild`): the pop-side min scan
/// is linear in bucket length, so one hot bucket turns the drain quadratic
/// long before the average-drift check can notice.
const DENSE_BUCKET_MAX: usize = 64;
/// How many of the earliest pending events a rebuild samples to set the width.
/// Near-head density is what pop scans actually see; a far-future tail
/// (mobility ticks minutes out) must not stretch the width.
const WIDTH_SAMPLE: usize = 32;
/// Cached-minimum sentinel for an empty bucket (also the empty `far` min). The
/// `u64::MAX` *sequence* is the emptiness marker (a real event can carry
/// `SimTime::MAX` but never that sequence number), so emptiness survives any
/// comparison against real keys.
const EMPTY_MIN: (SimTime, u64) = (SimTime::MAX, u64::MAX);

/// Self-telemetry of a queue: sizing and scan statistics since construction (or
/// the last [`EventQueue::reset`]). Surfaced per run by the `bench` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueTelemetry {
    /// Largest number of pending events ever held.
    pub peak_depth: usize,
    /// Bucket-array resizes, width recalibrations, and far-tier migrations.
    pub resizes: u64,
    /// Most scan work any single pop needed: the larger of its cursor rotation
    /// steps and its bucket scan length (1 = cursor hit a one-event bucket).
    pub max_pop_scan: u64,
    /// Current bucket count.
    pub buckets: usize,
    /// Current bucket width in µs.
    pub width_us: u64,
}

/// A priority queue of timestamped events with deterministic FIFO tie-breaking.
///
/// This is the heart of the kernel. Protocol and mobility layers push future work in
/// with [`EventQueue::schedule_at`] / [`EventQueue::schedule_after`]; the driver pops
/// it back out in global time order. Internally a two-tier calendar queue — see the
/// module docs for the structure and its invariants.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `2^k` unsorted buckets; each bucket's earliest key is cached in `mins`.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Per-bucket minimum `(time, seq)`, [`EMPTY_MIN`] when the bucket is
    /// empty. Lets the rotation scan touch one small key per bucket instead of
    /// the event payloads.
    mins: Vec<(SimTime, u64)>,
    /// `buckets.len() - 1`, for masking bucket indices.
    mask: usize,
    /// Bucket width in µs (≥ 1).
    width: u64,
    /// Pending events across both tiers.
    len: usize,
    /// The bucket the pop scan resumes from.
    cur_bucket: usize,
    /// Exclusive upper time bound of the current window, always a multiple of
    /// `width`, never past `cal_end`. `u128` so span arithmetic cannot
    /// overflow near `SimTime::MAX`.
    cur_top: u128,
    /// Inclusive lower bound of the calendar span, a multiple of `width`.
    /// Every bucket event is at or after it.
    cal_start: u128,
    /// Exclusive upper bound of the calendar span. Every bucket event is
    /// before it, every `far` event at or beyond it, and
    /// `cal_end - cal_start <= buckets · width` (bijective window mapping).
    cal_end: u128,
    /// Far-future overflow: unsorted, earliest key cached in `far_min`.
    far: Vec<Scheduled<E>>,
    /// Minimum `(time, seq)` in `far`, [`EMPTY_MIN`] when empty.
    far_min: (SimTime, u64),
    next_seq: u64,
    now: SimTime,
    scheduled_total: u64,
    /// Reused staging buffer for rebuilds, so resizing never reallocates twice.
    scratch: Vec<Scheduled<E>>,
    /// Reused key buffer for the width sample, so calibration never moves
    /// event payloads.
    key_scratch: Vec<(u64, u64)>,
    /// Reused staging buffer for [`EventQueue::drain_into`]. Separate from
    /// `scratch`: a drain can trigger a far-tier migration mid-loop, which
    /// needs `scratch` for itself.
    drain_buf: Vec<Scheduled<E>>,
    peak_depth: usize,
    resizes: u64,
    max_pop_scan: u64,
    calib_pops: u64,
    calib_scans: u64,
    /// Schedules + pops since the last rebuild; rate-limits the dense-bucket
    /// trigger so rebuild work stays amortized O(1) per operation.
    ops_since_rebuild: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at t = 0.
    pub fn new() -> Self {
        Self::with_params(MIN_BUCKETS, DEFAULT_WIDTH_US)
    }

    /// Creates an empty queue pre-sized for `cap` pending events (bucket
    /// occupancy ~2 at peak, so steady-state scheduling never grows the array).
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_params(
            (cap / 2)
                .clamp(MIN_BUCKETS, MAX_BUCKETS)
                .next_power_of_two(),
            DEFAULT_WIDTH_US,
        )
    }

    /// Creates an empty queue pre-sized for `cap` pending events spread over
    /// `horizon` of simulated time, calibrating the initial bucket width so
    /// the first pops already hit short buckets.
    pub fn with_capacity_and_horizon(cap: usize, horizon: SimDuration) -> Self {
        let width = (horizon.as_micros() / cap.max(1) as u64).max(1);
        Self::with_params(
            (cap / 2)
                .clamp(MIN_BUCKETS, MAX_BUCKETS)
                .next_power_of_two(),
            width,
        )
    }

    fn with_params(buckets: usize, width: u64) -> Self {
        debug_assert!(buckets.is_power_of_two());
        EventQueue {
            buckets: std::iter::repeat_with(Vec::new).take(buckets).collect(),
            mins: vec![EMPTY_MIN; buckets],
            mask: buckets - 1,
            width,
            len: 0,
            cur_bucket: 0,
            cur_top: width as u128,
            cal_start: 0,
            cal_end: buckets as u128 * width as u128,
            far: Vec::new(),
            far_min: EMPTY_MIN,
            next_seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
            scratch: Vec::new(),
            key_scratch: Vec::new(),
            drain_buf: Vec::new(),
            peak_depth: 0,
            resizes: 0,
            max_pop_scan: 0,
            calib_pops: 0,
            calib_scans: 0,
            ops_since_rebuild: 0,
        }
    }

    /// The current simulation time: the timestamp of the last event popped.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (for diagnostics).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Sizing and scan statistics since construction or the last reset.
    pub fn telemetry(&self) -> QueueTelemetry {
        QueueTelemetry {
            peak_depth: self.peak_depth,
            resizes: self.resizes,
            max_pop_scan: self.max_pop_scan,
            buckets: self.buckets.len(),
            width_us: self.width,
        }
    }

    /// Total event slots currently allocated across the buckets and the far
    /// tier — what [`EventQueue::reset`] preserves for reuse (diagnostics and
    /// tests).
    pub fn storage_capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum::<usize>() + self.far.capacity()
    }

    /// Events currently in the calendar tier (the rest wait in `far`).
    #[inline]
    fn cal_len(&self) -> usize {
        self.len - self.far.len()
    }

    /// The calendar's maximum span: one window per bucket.
    #[inline]
    fn span(&self) -> u128 {
        self.buckets.len() as u128 * self.width as u128
    }

    /// The bucket an in-span instant maps to.
    #[inline]
    fn bucket_of(&self, t_us: u64) -> usize {
        ((t_us / self.width) as usize) & self.mask
    }

    /// Exclusive upper edge of the window containing `t_us`.
    #[inline]
    fn window_top(&self, t_us: u64) -> u128 {
        (t_us as u128 / self.width as u128 + 1) * self.width as u128
    }

    /// `t` rounded down to a window boundary.
    #[inline]
    fn align_down(&self, t: u128) -> u128 {
        t / self.width as u128 * self.width as u128
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — scheduling into the past is
    /// always a protocol bug, and catching it here keeps the timeline causal.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.ops_since_rebuild += 1;
        self.len += 1;
        if self.len > self.peak_depth {
            self.peak_depth = self.len;
        }
        let s = Scheduled {
            time: at,
            seq,
            event,
        };
        let t = at.as_micros() as u128;
        if t >= self.cal_end {
            self.push_far(s);
            return;
        }
        if t < self.cal_start {
            // Only possible when a migration jumped the span ahead of `now`
            // and the driver then scheduled in between. Extend the span
            // downward when the window mapping stays bijective; otherwise
            // re-center the whole structure around the new head.
            let ns = self.align_down(t);
            if self.cal_end - ns <= self.span() {
                self.cal_start = ns;
            } else {
                self.recenter(s);
                return;
            }
        }
        self.place(s);
        let nb = self.buckets.len();
        // Sizing tracks *total* pending (both tiers): the far tier's events
        // all pass through the calendar eventually, and one measure for both
        // grow and shrink keeps the two triggers from oscillating when the
        // tier split shifts.
        if self.len > nb * 2 && nb < MAX_BUCKETS {
            self.rebuild(nb * 2);
        } else if self.width > 1
            && self.buckets[self.bucket_of(at.as_micros())].len() > DENSE_BUCKET_MAX
            && self.ops_since_rebuild >= (self.cal_len() as u64 / 2).max(DENSE_BUCKET_MAX as u64)
        {
            // One bucket is absorbing the inserts: the width is too wide for
            // the near-head event density. Re-derive it (the rebuild samples
            // the earliest pending gaps). The `ops_since_rebuild` guard keeps
            // this amortized O(1), and a width of 1 µs cannot narrow further
            // (same-instant ties), so it never thrashes.
            self.rebuild(nb);
        }
    }

    /// Schedules `event` to fire `delay` after the current time.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules one `make()` event at every multiple of `period` from the
    /// current time: at `period, 2·period, …` strictly before `end`, plus at
    /// `end` itself when `inclusive`. This is the sampler hook — mobility
    /// ticks, timeline samples, and telemetry samplers are all ordinary
    /// events laid down up front, so their firing times (and therefore any
    /// output derived from them) are a pure function of the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn schedule_periodic(
        &mut self,
        period: SimDuration,
        end: SimTime,
        inclusive: bool,
        mut make: impl FnMut() -> E,
    ) {
        assert!(period > SimDuration::ZERO, "periodic events need a period");
        let mut t = self.now + period;
        while t < end {
            self.schedule_at(t, make());
            t += period;
        }
        if inclusive && t == end {
            self.schedule_at(t, make());
        }
    }

    /// Appends to the far tier, maintaining its cached minimum.
    #[inline]
    fn push_far(&mut self, s: Scheduled<E>) {
        let key = (s.time, s.seq);
        if key < self.far_min {
            self.far_min = key;
        }
        self.far.push(s);
    }

    /// Inserts an in-span event into its bucket, rewinding the cursor if the
    /// event lands before the current window (possible only after a declined
    /// [`EventQueue::pop_if_at_or_before`] advanced it into the future).
    fn place(&mut self, s: Scheduled<E>) {
        let t = s.time.as_micros();
        debug_assert!((t as u128) >= self.cal_start && (t as u128) < self.cal_end);
        if (t as u128) < self.cur_top - self.width as u128 {
            self.cur_bucket = self.bucket_of(t);
            self.cur_top = self.window_top(t);
        }
        let ix = self.bucket_of(t);
        let key = (s.time, s.seq);
        if key < self.mins[ix] {
            self.mins[ix] = key;
        }
        self.buckets[ix].push(s);
    }

    /// Timestamp of the next pending event, if any. Read-only, O(buckets) —
    /// the hot paths use [`EventQueue::pop_if_at_or_before`], which resumes
    /// from the cursor instead.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.cal_len() > 0 {
            // Everything in the calendar precedes everything in `far`, so the
            // smallest cached bucket key is the global head.
            self.mins
                .iter()
                .filter(|m| m.1 != u64::MAX)
                .min()
                .map(|&(t, _)| t)
        } else {
            Some(self.far_min.0)
        }
    }

    /// Locates the bucket holding the earliest pending event, committing the
    /// cursor to its window and migrating from the far tier if the calendar
    /// has drained. Safe to commit even when the caller then declines the
    /// pop: every pending event is `>=` the found head, so no window with due
    /// work is skipped, and [`EventQueue::place`] rewinds for later inserts.
    fn find_next(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut steps = 0u64;
        if self.cal_len() == 0 {
            // The calendar is drained; pull the next span's worth out of
            // the far tier (its head becomes the new span's first event)
            // without walking the remaining empty windows.
            debug_assert!(!self.far.is_empty());
            steps += self.far.len() as u64;
            self.migrate();
        }
        loop {
            let m = self.mins[self.cur_bucket];
            if m.1 != u64::MAX {
                // Bijective mapping: a non-empty bucket at the cursor is
                // due in this very window.
                debug_assert!((m.0.as_micros() as u128) < self.cur_top);
                if steps > self.max_pop_scan {
                    self.max_pop_scan = steps;
                }
                self.calib_scans += steps;
                return Some(self.cur_bucket);
            }
            if self.cur_top >= self.cal_end {
                break;
            }
            steps += 1;
            self.cur_bucket = (self.cur_bucket + 1) & self.mask;
            self.cur_top += self.width as u128;
        }
        // Unreachable while the bijective-span invariant holds (a
        // non-empty calendar always has a bucket between the cursor and
        // the span end); recover with a direct search if it ever breaks.
        debug_assert!(false, "fruitless rotation over a non-empty calendar");
        let (i, m) = self
            .mins
            .iter()
            .enumerate()
            .filter(|(_, m)| m.1 != u64::MAX)
            .min_by_key(|&(_, m)| m)
            .map(|(i, &m)| (i, m))
            .expect("cal_len > 0 but every bucket is empty");
        self.cur_bucket = i;
        self.cur_top = self.window_top(m.0.as_micros());
        Some(i)
    }

    /// Removes the earliest event of bucket `ix` (located by `find_next`),
    /// advancing the clock and running the lazy shrink / width-drift checks.
    /// One scan finds both the minimum and the runner-up, so the cached bucket
    /// minimum is refreshed without a second pass.
    fn commit_pop(&mut self, ix: usize) -> (SimTime, E) {
        let b = &mut self.buckets[ix];
        let blen = b.len() as u64;
        let mut best = 0usize;
        let mut best_key = (b[0].time, b[0].seq);
        let mut second = EMPTY_MIN;
        for (i, e) in b.iter().enumerate().skip(1) {
            let key = (e.time, e.seq);
            if key < best_key {
                second = best_key;
                best_key = key;
                best = i;
            } else if key < second {
                second = key;
            }
        }
        debug_assert_eq!(best_key, self.mins[ix], "cached bucket min is stale");
        let s = b.swap_remove(best);
        self.mins[ix] = second;
        self.len -= 1;
        debug_assert!(s.time >= self.now, "event queue went back in time");
        self.now = s.time;
        self.ops_since_rebuild += 1;
        self.calib_pops += 1;
        self.calib_scans += blen - 1;
        if blen > self.max_pop_scan {
            self.max_pop_scan = blen;
        }
        if self.calib_scans > CALIB_WINDOW * CALIB_SCAN_THRESHOLD {
            // Scan work drifted — rotation steps (width too narrow) or bucket
            // scans (width too wide): re-derive the width from what is
            // pending. Checked per pop, not per window, so a pathological
            // span recalibrates immediately, not 1024 pops later.
            if self.cal_len() >= 2 {
                self.rebuild(self.buckets.len());
            } else {
                self.calib_pops = 0;
                self.calib_scans = 0;
            }
        } else if self.calib_pops >= CALIB_WINDOW {
            self.calib_pops = 0;
            self.calib_scans = 0;
        }
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 8 {
            self.rebuild(self.buckets.len() / 2);
        }
        (s.time, s.event)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ix = self.find_next()?;
        Some(self.commit_pop(ix))
    }

    /// Timestamp and payload of the next pending event without removing it or
    /// advancing the clock. Unlike [`EventQueue::peek_time`] this commits the
    /// cursor to the head's window (safe — see [`EventQueue::find_next`]), so
    /// a subsequent pop resumes in O(1). The sharded façade uses this to keep
    /// a per-shard head cache fresh after each pop.
    pub fn peek_entry(&mut self) -> Option<(SimTime, &E)> {
        let ix = self.find_next()?;
        let b = &self.buckets[ix];
        let mut best = 0usize;
        let mut best_key = (b[0].time, b[0].seq);
        for (i, e) in b.iter().enumerate().skip(1) {
            let key = (e.time, e.seq);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        debug_assert_eq!(best_key, self.mins[ix], "cached bucket min is stale");
        Some((best_key.0, &b[best].event))
    }

    /// Pops the earliest event only if it fires at or before `horizon` — the
    /// driver's one-touch replacement for a peek-then-pop pair. Returns `None`
    /// with the event left in place when the head is beyond the horizon.
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let ix = self.find_next()?;
        if self.mins[ix].0 > horizon {
            return None;
        }
        Some(self.commit_pop(ix))
    }

    /// Drains every pending event with `time <= horizon` into `out`, appended
    /// as `(time, event)` pairs in global `(time, seq)` order, and returns how
    /// many were drained. The clock advances to the last drained timestamp,
    /// exactly as the equivalent sequence of [`EventQueue::pop_if_at_or_before`]
    /// calls would; a drain that removes nothing leaves the clock untouched.
    ///
    /// This is the bulk form of the bounded pop, and the epoch executor's whole
    /// reason to exist on the queue side: a same-instant burst of `k` radio
    /// deliveries shares one bucket, so popping it one event at a time re-scans
    /// the bucket `k` times — O(k²) per burst. Taking qualifying buckets
    /// wholesale and sorting once makes the same drain O(k log k).
    pub fn drain_into(&mut self, horizon: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let mut buf = std::mem::take(&mut self.drain_buf);
        debug_assert!(buf.is_empty());
        let horizon_us = horizon.as_micros() as u128;
        loop {
            if self.len == 0 {
                break;
            }
            if self.cal_len() == 0 && self.far_min.0 > horizon {
                // Everything left waits in the far tier beyond the horizon —
                // don't pay a migration just to discover that.
                break;
            }
            let Some(ix) = self.find_next() else { break };
            if self.mins[ix].0 > horizon {
                break;
            }
            // `cur_top` is the exclusive upper µs edge of this bucket's
            // window: when the whole window is at or before the horizon, the
            // bucket moves out wholesale.
            if self.cur_top <= horizon_us + 1 {
                let taken = self.buckets[ix].len();
                buf.append(&mut self.buckets[ix]);
                self.mins[ix] = EMPTY_MIN;
                self.len -= taken;
                if taken as u64 > self.max_pop_scan {
                    self.max_pop_scan = taken as u64;
                }
                self.calib_pops += taken as u64;
                self.calib_scans += taken as u64;
                self.ops_since_rebuild += taken as u64;
            } else {
                // The window straddles the horizon: extract the qualifying
                // events and stop — the window partition guarantees every
                // other pending event (later windows, far tier) is strictly
                // after the horizon.
                let b = &mut self.buckets[ix];
                let blen = b.len() as u64;
                let mut taken = 0usize;
                let mut min = EMPTY_MIN;
                let mut i = 0;
                while i < b.len() {
                    if b[i].time <= horizon {
                        buf.push(b.swap_remove(i));
                        taken += 1;
                    } else {
                        let key = (b[i].time, b[i].seq);
                        if key < min {
                            min = key;
                        }
                        i += 1;
                    }
                }
                self.mins[ix] = min;
                self.len -= taken;
                if blen > self.max_pop_scan {
                    self.max_pop_scan = blen;
                }
                self.calib_pops += taken as u64;
                self.calib_scans += blen;
                self.ops_since_rebuild += taken as u64;
                break;
            }
        }
        let drained = buf.len();
        if drained > 0 {
            buf.sort_unstable_by_key(|s| (s.time, s.seq));
            debug_assert!(buf[0].time >= self.now, "drain went back in time");
            self.now = buf[drained - 1].time;
            out.reserve(drained);
            out.extend(buf.drain(..).map(|s| (s.time, s.event)));
            // One deferred sizing pass for the whole batch (the per-pop width
            // drift check is pointless here — the batch never re-scanned).
            if self.calib_pops >= CALIB_WINDOW {
                self.calib_pops = 0;
                self.calib_scans = 0;
            }
            if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 8 {
                self.rebuild(self.buckets.len() / 2);
            }
        }
        self.drain_buf = buf;
        drained
    }

    /// Re-buckets the calendar tier into `new_buckets` buckets with a freshly
    /// derived width. The far tier is untouched; calendar events past the new
    /// (possibly shorter) span spill into it.
    fn rebuild(&mut self, new_buckets: usize) {
        let end_cap = self.cal_end;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for b in &mut self.buckets {
            scratch.append(b);
        }
        self.scratch = scratch;
        self.rebuild_from_scratch(new_buckets, end_cap);
    }

    /// Empties the far tier into the staging buffer and rebuilds: the next
    /// span's worth lands in buckets, the rest returns to `far`. Called by
    /// `find_next` when the calendar drains, so its cost is amortized over
    /// the span's pops.
    fn migrate(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.append(&mut self.far);
        self.far_min = EMPTY_MIN;
        self.scratch = scratch;
        self.rebuild_from_scratch(self.buckets.len(), u128::MAX);
    }

    /// Full rebuild around an event that lands before a span that cannot be
    /// extended to cover it (rare: only after a migration jumped far ahead).
    fn recenter(&mut self, s: Scheduled<E>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for b in &mut self.buckets {
            scratch.append(b);
        }
        scratch.append(&mut self.far);
        self.far_min = EMPTY_MIN;
        scratch.push(s);
        self.scratch = scratch;
        self.rebuild_from_scratch(self.buckets.len(), u128::MAX);
    }

    /// Core of every resize/recalibration/migration: distributes the staged
    /// events into `new_buckets` buckets, re-deriving the width from the gaps
    /// among the [`WIDTH_SAMPLE`] *earliest* staged events (Brown\'s
    /// calibration: head-of-queue density sets the width — a far tail would
    /// inflate it by orders of magnitude and collapse the head into one
    /// bucket). The span anchors at `now` when the head still fits a year
    /// from there (so fresh inserts stay in-span), else at the head itself;
    /// `end_cap` bounds the new `cal_end` so pre-existing far events stay
    /// beyond it. Events past the new span spill to `far`. Pop order is
    /// untouched — the order is structural, and the sample is the set of k
    /// smallest under the total `(time, seq)` order, so the width is a pure
    /// function of the pending events. Existing allocations are reused, so
    /// steady-state resizing settles to zero allocations.
    fn rebuild_from_scratch(&mut self, new_buckets: usize, end_cap: u128) {
        self.resizes += 1;
        self.ops_since_rebuild = 0;
        self.calib_pops = 0;
        self.calib_scans = 0;
        if new_buckets < self.buckets.len() {
            self.buckets.truncate(new_buckets);
        } else {
            self.buckets.resize_with(new_buckets, Vec::new);
        }
        self.mins.clear();
        self.mins.resize(new_buckets, EMPTY_MIN);
        self.mask = new_buckets - 1;
        let mut min_t: Option<u128> = None;
        if !self.scratch.is_empty() {
            self.key_scratch.clear();
            self.key_scratch
                .extend(self.scratch.iter().map(|s| (s.time.as_micros(), s.seq)));
            let k = self.key_scratch.len().min(WIDTH_SAMPLE);
            self.key_scratch.select_nth_unstable(k - 1);
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for &(t, _) in &self.key_scratch[..k] {
                lo = lo.min(t);
                hi = hi.max(t);
            }
            min_t = Some(lo as u128);
            if k >= 2 {
                // ~3 average near-head sample gaps per bucket — Brown\'s
                // ratio, keeps head buckets short so pops stay O(1). (u128:
                // a near-`SimTime::MAX` spread must not overflow.)
                let near = (hi - lo) as u128 * 3 / (k as u128 - 1);
                self.width = near.clamp(1, u64::MAX as u128) as u64;
            }
        }
        let span = self.span();
        let now_aligned = self.align_down(self.now.as_micros() as u128);
        let anchor = match min_t {
            None => now_aligned,
            // Head times are never behind `now`, so `align_down(mt)` is the
            // higher (but always progress-guaranteeing) anchor.
            Some(mt) => {
                if mt < now_aligned + span {
                    now_aligned
                } else {
                    self.align_down(mt)
                }
            }
        };
        self.cal_start = anchor;
        let mut new_end = anchor + span;
        if new_end > end_cap {
            if self.far.is_empty() {
                // Nothing beyond the old ceiling — free to raise it.
            } else if !self.scratch.is_empty() {
                // The new span reaches past far events: fold the far tier into
                // this rebuild so the ceiling can rise without stranding them
                // (everything still past the new end spills right back).
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.append(&mut self.far);
                self.far_min = EMPTY_MIN;
                self.scratch = scratch;
            } else {
                // Empty calendar: keep the ceiling and let `migrate` re-derive
                // the width from the far tier's own head instead.
                new_end = end_cap;
            }
        }
        self.cal_end = new_end;
        debug_assert!(self.cal_end > self.cal_start);
        let cursor_t = min_t.unwrap_or(anchor).max(anchor);
        self.cur_bucket = self.bucket_of(cursor_t as u64);
        self.cur_top = self.align_down(cursor_t) + self.width as u128;
        let mut scratch = std::mem::take(&mut self.scratch);
        for s in scratch.drain(..) {
            if (s.time.as_micros() as u128) < self.cal_end {
                self.place(s);
            } else {
                self.push_far(s);
            }
        }
        self.scratch = scratch;
    }

    /// Drops every pending event and resets the clock to t = 0, **keeping the
    /// allocated storage**: the bucket array, each bucket\'s capacity, the far
    /// tier\'s capacity, the staging buffers, and the calibrated width all
    /// survive, so a pooled worker reusing one queue across seeds never
    /// re-grows it.
    pub fn reset(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.mins.fill(EMPTY_MIN);
        self.far.clear();
        self.far_min = EMPTY_MIN;
        self.len = 0;
        self.cur_bucket = 0;
        self.cur_top = self.width as u128;
        self.cal_start = 0;
        self.cal_end = self.span();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.scheduled_total = 0;
        self.peak_depth = 0;
        self.resizes = 0;
        self.max_pop_scan = 0;
        self.calib_pops = 0;
        self.calib_scans = 0;
        self.ops_since_rebuild = 0;
    }
}

/// Outcome of [`run`] / [`run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained before the horizon.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The handler requested an early stop.
    Stopped,
}

/// What a handler tells the driver after each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Control {
    /// Keep processing events.
    #[default]
    Continue,
    /// Stop the run immediately.
    Stop,
}

/// Runs the queue until it drains, the handler stops the run, or `horizon` is passed.
///
/// `handler` receives each event together with the queue so it can schedule follow-up
/// events. Events with `time > horizon` are left in the queue; the clock never
/// advances past the last event actually processed. One queue operation per event:
/// the horizon check rides inside [`EventQueue::pop_if_at_or_before`].
pub fn run_until<E>(
    queue: &mut EventQueue<E>,
    horizon: SimTime,
    mut handler: impl FnMut(SimTime, E, &mut EventQueue<E>) -> Control,
) -> RunOutcome {
    loop {
        match queue.pop_if_at_or_before(horizon) {
            Some((t, e)) => {
                if handler(t, e, queue) == Control::Stop {
                    return RunOutcome::Stopped;
                }
            }
            None => {
                return if queue.is_empty() {
                    RunOutcome::Drained
                } else {
                    RunOutcome::HorizonReached
                };
            }
        }
    }
}

/// Runs the queue until it drains or the handler stops the run.
pub fn run<E>(
    queue: &mut EventQueue<E>,
    handler: impl FnMut(SimTime, E, &mut EventQueue<E>) -> Control,
) -> RunOutcome {
    run_until(queue, SimTime::MAX, handler)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn schedule_periodic_lays_down_every_multiple() {
        // Exclusive end: 10 s / 3 s → samples at 3, 6, 9 only.
        let mut q = EventQueue::new();
        q.schedule_periodic(
            SimDuration::from_secs(3),
            SimTime::from_secs(10),
            false,
            || "s",
        );
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros() / 1_000_000)
            .collect();
        assert_eq!(times, vec![3, 6, 9]);
        // Inclusive end landing exactly on a multiple: 9 s / 3 s → 3, 6, 9.
        let mut q = EventQueue::new();
        q.schedule_periodic(
            SimDuration::from_secs(3),
            SimTime::from_secs(9),
            true,
            || "s",
        );
        assert_eq!(q.len(), 3);
        // Exclusive end on an exact multiple drops the boundary sample.
        let mut q = EventQueue::new();
        q.schedule_periodic(
            SimDuration::from_secs(3),
            SimTime::from_secs(9),
            false,
            || "s",
        );
        assert_eq!(q.len(), 2);
        // A period longer than the horizon schedules nothing.
        let mut q = EventQueue::<&str>::new();
        q.schedule_periodic(
            SimDuration::from_secs(30),
            SimTime::from_secs(9),
            true,
            || "s",
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "need a period")]
    fn schedule_periodic_rejects_zero_period() {
        EventQueue::new().schedule_periodic(SimDuration::ZERO, SimTime::from_secs(1), true, || ());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_full_instant_burst_stays_fifo_through_resizes() {
        // 10k events at one instant all land in one bucket; growth resizes
        // re-bucket them repeatedly and must never disturb the FIFO order.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10_000u32 {
            q.schedule_at(t, i);
        }
        assert!(q.telemetry().resizes > 0, "growth resizes expected");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_beyond_the_calendar_year_pop_in_order() {
        // new() starts with 16 buckets of 1 ms: a 16 ms year. Events hours and
        // days out exercise the fruitless-rotation → direct-search jump.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(86_400), "day");
        q.schedule_at(SimTime::from_millis(1), "soon");
        q.schedule_at(SimTime::from_secs(3_600), "hour");
        q.schedule_at(SimTime::from_secs(5), "five");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["soon", "five", "hour", "day"]);
    }

    #[test]
    fn simtime_max_events_are_representable() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::MAX, "end");
        q.schedule_at(SimTime::from_secs(1), "start");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "start")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
        assert_eq!(q.now(), SimTime::MAX);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(4), ());
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 0);
        q.pop();
        q.schedule_after(SimDuration::from_secs(2), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(12));
    }

    #[test]
    fn pop_if_at_or_before_is_one_touch() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(3), "b");
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), "a"))
        );
        // Declined: the head stays queued and the clock does not move.
        assert_eq!(q.pop_if_at_or_before(SimTime::from_secs(2)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), SimTime::from_secs(1));
        // A later insert behind the advanced cursor must still pop first.
        q.schedule_at(SimTime::from_secs(2), "mid");
        assert_eq!(
            q.pop_if_at_or_before(SimTime::MAX),
            Some((SimTime::from_secs(2), "mid"))
        );
        assert_eq!(
            q.pop_if_at_or_before(SimTime::MAX),
            Some((SimTime::from_secs(3), "b"))
        );
        assert_eq!(q.pop_if_at_or_before(SimTime::MAX), None);
    }

    #[test]
    fn peek_entry_sees_head_without_popping() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2), "b");
        q.schedule_at(SimTime::from_secs(1), "a");
        assert_eq!(q.peek_entry(), Some((SimTime::from_secs(1), &"a")));
        assert_eq!(q.len(), 2);
        assert_eq!(q.now(), SimTime::ZERO, "peeking never advances the clock");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.peek_entry(), Some((SimTime::from_secs(2), &"b")));
        // A far-tier head is visible too: the peek migrates exactly as a pop
        // would, and peeking twice is idempotent.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(86_400), "day");
        assert_eq!(q.peek_entry(), Some((SimTime::from_secs(86_400), &"day")));
        assert_eq!(q.peek_entry(), Some((SimTime::from_secs(86_400), &"day")));
        assert!(EventQueue::<u8>::new().peek_entry().is_none());
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut q = EventQueue::new();
        for s in 1..=10u64 {
            q.schedule_at(SimTime::from_secs(s), s);
        }
        let mut seen = vec![];
        let outcome = run_until(&mut q, SimTime::from_secs(5), |_, e, _| {
            seen.push(e);
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn run_with_simtime_max_horizon_drains() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::MAX, "sentinel");
        q.schedule_at(SimTime::from_secs(1), "first");
        let mut seen = vec![];
        let outcome = run_until(&mut q, SimTime::MAX, |_, e, _| {
            seen.push(e);
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(seen, vec!["first", "sentinel"]);
    }

    #[test]
    fn run_drains_and_allows_cascading() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 3u32);
        let mut count = 0;
        let outcome = run(&mut q, |_, e, q| {
            count += 1;
            if e > 0 {
                q.schedule_after(SimDuration::from_secs(1), e - 1);
            }
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(count, 4); // 3, 2, 1, 0
    }

    #[test]
    fn handler_can_stop_early() {
        let mut q = EventQueue::new();
        for s in 1..=10u64 {
            q.schedule_at(SimTime::from_secs(s), s);
        }
        let mut seen = 0;
        let outcome = run(&mut q, |_, _, _| {
            seen += 1;
            if seen == 3 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(q.len(), 7);
    }

    #[test]
    fn reset_clears_everything() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.scheduled_total(), 0);
    }

    #[test]
    fn reset_keeps_allocated_storage() {
        // The pooled-replicate contract: a drained-and-reset queue re-runs the
        // same workload without growing again.
        let mut q = EventQueue::with_capacity(64);
        for i in 0..5_000u64 {
            q.schedule_at(SimTime::from_micros(i * 37 % 100_000), i);
        }
        let grown = q.telemetry();
        let cap = q.storage_capacity();
        assert!(grown.buckets > 16, "growth expected past the initial array");
        assert!(cap >= 5_000, "buckets hold capacity for what was queued");
        q.reset();
        let after = q.telemetry();
        assert_eq!(after.buckets, grown.buckets, "bucket array survives reset");
        assert_eq!(after.width_us, grown.width_us, "calibration survives reset");
        assert_eq!(q.storage_capacity(), cap, "bucket capacity survives reset");
        assert_eq!(after.peak_depth, 0, "per-run telemetry is cleared");
        assert_eq!(after.resizes, 0);
        // The re-run schedules the same load without a single resize.
        for i in 0..5_000u64 {
            q.schedule_at(SimTime::from_micros(i * 37 % 100_000), i);
        }
        assert_eq!(q.telemetry().resizes, 0, "reset queue re-grew its storage");
        assert_eq!(q.storage_capacity(), cap);
    }

    /// Drives a clone-free differential: `drain_into` must emit exactly the
    /// stream repeated `pop_if_at_or_before` calls would, with the same
    /// clock/len after every horizon.
    fn assert_drain_matches_pops(events: &[(u64, u32)], horizons: &[u64]) {
        let mut bulk = EventQueue::new();
        let mut single = EventQueue::new();
        for &(t, v) in events {
            bulk.schedule_at(SimTime::from_micros(t), v);
            single.schedule_at(SimTime::from_micros(t), v);
        }
        for &h in horizons {
            let horizon = SimTime::from_micros(h);
            let mut got = Vec::new();
            bulk.drain_into(horizon, &mut got);
            let mut want = Vec::new();
            while let Some(e) = single.pop_if_at_or_before(horizon) {
                want.push(e);
            }
            assert_eq!(got, want, "drain diverged at horizon {h}");
            assert_eq!(bulk.len(), single.len());
            assert_eq!(bulk.now(), single.now());
        }
    }

    #[test]
    fn drain_into_matches_repeated_bounded_pops() {
        // Mixed spacing: same-instant bursts, sub-width jitter, sparse tail.
        let events: Vec<(u64, u32)> = (0..2_000u32)
            .map(|i| ((i as u64 * 137) % 50_000, i))
            .chain((0..500u32).map(|i| (7_777, 10_000 + i))) // one-instant burst
            .chain((0..50u32).map(|i| (10_000_000 + i as u64 * 999_983, 20_000 + i)))
            .collect();
        assert_drain_matches_pops(
            &events,
            &[
                0,
                100,
                7_776,
                7_777,
                7_778,
                49_999,
                2_000_000,
                30_000_000,
                u64::MAX / 2,
            ],
        );
    }

    #[test]
    fn drain_into_interleaves_with_schedules_and_pops() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule_at(SimTime::from_micros(i * 10), i);
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(SimTime::from_micros(95), &mut out), 10);
        assert_eq!(q.now(), SimTime::from_micros(90));
        // Schedules behind the (advanced) cursor still pop first.
        q.schedule_at(SimTime::from_micros(91), 777);
        assert_eq!(q.pop(), Some((SimTime::from_micros(91), 777)));
        out.clear();
        assert_eq!(q.drain_into(SimTime::MAX, &mut out), 90);
        assert_eq!(
            out.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            (10..100).collect::<Vec<_>>()
        );
        assert!(q.is_empty());
        // An empty drain below the head moves nothing, not even the clock.
        q.schedule_at(SimTime::from_secs(10), 1);
        out.clear();
        assert_eq!(q.drain_into(SimTime::from_secs(5), &mut out), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), SimTime::from_micros(990));
    }

    #[test]
    fn drain_into_pulls_far_tier_in_order() {
        // new() spans 16 ms; events hours out live in `far` and must migrate
        // through cleanly mid-drain.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3_600), "hour");
        q.schedule_at(SimTime::from_millis(1), "soon");
        q.schedule_at(SimTime::from_secs(86_400), "day");
        let mut out = Vec::new();
        assert_eq!(q.drain_into(SimTime::from_secs(7_200), &mut out), 2);
        assert_eq!(
            out.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            vec!["soon", "hour"]
        );
        assert_eq!(q.len(), 1);
        // Far head beyond the horizon: no migration churn, no clock motion.
        let resizes = q.telemetry().resizes;
        out.clear();
        assert_eq!(q.drain_into(SimTime::from_secs(7_300), &mut out), 0);
        assert_eq!(q.telemetry().resizes, resizes);
    }

    #[test]
    fn drain_into_keeps_same_instant_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10_000u32 {
            q.schedule_at(t, i);
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(t, &mut out), 10_000);
        assert_eq!(
            out.into_iter().map(|(_, e)| e).collect::<Vec<_>>(),
            (0..10_000).collect::<Vec<_>>()
        );
    }

    #[test]
    fn telemetry_tracks_peak_and_scans() {
        let mut q = EventQueue::new();
        for s in 0..100u64 {
            q.schedule_at(SimTime::from_secs(s), s);
        }
        assert_eq!(q.telemetry().peak_depth, 100);
        while q.pop().is_some() {}
        let t = q.telemetry();
        assert!(t.max_pop_scan >= 1);
        assert_eq!(q.len(), 0);
    }
}
