//! The simulator's event queue: a calendar queue that pops in exactly
//! the total `(at, rank, seq)` key order a binary heap would.
//!
//! This is the sim-core seam: event entries, their key, and the queue
//! that orders them — nothing here knows what an event *is* (the kind
//! is an opaque `K`), so the scheduling structure can change without
//! touching forwarding, and the other way round.
//!
//! Packet-level traffic is the wrong shape for a comparison heap: on
//! the k = 10 fat-tree 99.9 % of pushes land less than 32 µs ahead of
//! the clock (one hop is 0.512 – 22.032 µs), a third of consecutive
//! pops share a timestamp, and only session starts, 1 ms sweeps and
//! RTOs lie further out — yet every `BinaryHeap::pop` sifts ≈ 10
//! levels of a ≈ 1 400-entry heap (36 % of a `fig1a_write_k10` run).
//! The calendar queue files near events by time instead:
//!
//! * `ring` — [`RING_SLOTS`] buckets, one per `1 << SLOT_SHIFT` ns
//!   *slot* of simulated time, each kept in ascending key order as it
//!   fills, with an occupancy bitmap. A push inside the ring's horizon
//!   is an insert from the bucket's back — an append when it arrives
//!   in key order, the common case — and a bit set.
//! * `far` — a small binary heap for everything beyond the horizon.
//! * `current` — the events of the cursor's slot, in descending key
//!   order, popped from the back: the cursor's bucket reversed once
//!   when the cursor reaches the slot.
//!
//! The cursor invariant, which makes every pop the global minimum:
//! **`current` holds every event whose slot ≤ `cursor`, the ring only
//! slots in `cursor + 1 ..= cursor + RING_SLOTS - 1`, and `far` only
//! slots ≥ `cursor + RING_SLOTS`.** The cursor moves only in
//! [`EventQueue::pop_before`], and only into a slot that starts before
//! the caller's horizon, so it never runs ahead of the window the
//! caller is executing. [`EventQueue::peek`] is deliberately
//! non-mutating: the callers peek to publish their next event time
//! (shard clocks, global-event arbitration), and a peek that advanced
//! the cursor to an event that then does not run — an idle shard whose
//! next event is a 1 ms sweep — would leave every later push behind
//! the cursor, each an O(n) ordered insert into `current`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log₂ of the slot width in nanoseconds: 256 ns slots, the narrowest
/// power of two whose ring still spans a hop. A wider slot holds more
/// events per bucket, so an out-of-order push inserts further from the
/// back, and every bucket grows to the busiest slot it ever held.
/// Seed 1, eight alternating rounds on a noisy 2-core box, median
/// `wall_s` at 256 / 512 / 1 024 ns: `fig1a_write_k10` 1.655 / 1.666 /
/// 1.835 s, `tcp_write_k10` 1.151 / 1.197 / 1.283 s (256 ns faster
/// than 512 ns in 6 and 7 of 8 rounds); `peak_rss_mb` on
/// `tcp_write_k10` 5.75 / 5.90 / 6.38 MB.
const SLOT_SHIFT: u32 = 8;

/// Ring length in slots — the occupancy bitmap is one `u128`. The
/// horizon (128 × 256 ns = 32.8 µs) has to cover one full-size hop at
/// 1 Gb/s (12.032 µs serialization + 10 µs propagation), or every
/// arrival would detour through `far`; it does: on `tcp_write_k10`,
/// seed 1, 11 410 808 pushes went to the ring, 327 126 into the
/// cursor's own slot and 803 to `far` (`fig1a_write_k10`: 12 721 548 /
/// 277 260 / 11 171). A longer ring would only cost memory.
const RING_SLOTS: u64 = u128::BITS as u64;

/// The total event order: `(time, author rank, author seq)`.
pub(crate) type EvKey = (SimTime, u32, u64);

/// A queue entry. Ordered by `(at, rank, seq)` where `rank` identifies
/// the *author* (0 = the global control plane, `n + 1` = node `n`) and
/// `seq` is the author's private counter. The key is a pure function
/// of simulated causality: node `n` authors the same events with the
/// same counters on whichever shard it runs, so the schedule is
/// identical at every shard count. Since `(rank, seq)`
/// never repeats, the order is total — no tie ever falls through to
/// implementation-defined push order.
#[derive(Debug)]
pub(crate) struct Ev<K> {
    pub(crate) at: SimTime,
    pub(crate) rank: u32,
    pub(crate) seq: u64,
    pub(crate) kind: K,
}

impl<K> Ev<K> {
    pub(crate) fn key(&self) -> EvKey {
        (self.at, self.rank, self.seq)
    }

    /// The calendar slot this event falls in.
    fn slot(&self) -> u64 {
        self.at.as_nanos() >> SLOT_SHIFT
    }
}

impl<K> PartialEq for Ev<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<K> Eq for Ev<K> {}
impl<K> PartialOrd for Ev<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Ev<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The calendar queue (see the module docs for the layout and the
/// cursor invariant).
pub(crate) struct EventQueue<K> {
    /// Every event whose slot ≤ `cursor`, sorted by key descending:
    /// the next event is at the back.
    current: Vec<Ev<K>>,
    /// `ring[slot % RING_SLOTS]`: the events of one slot in
    /// `cursor + 1 ..= cursor + RING_SLOTS - 1`, by key ascending.
    ring: Vec<Vec<Ev<K>>>,
    /// Bit `i` set iff `ring[i]` is non-empty.
    occupied: u128,
    /// Events at slots ≥ `cursor + RING_SLOTS`.
    far: BinaryHeap<Reverse<Ev<K>>>,
    /// Slot of the last popped event (0 before the first pop).
    cursor: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        Self {
            current: Vec::new(),
            ring: (0..RING_SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
            far: BinaryHeap::new(),
            cursor: 0,
        }
    }
}

impl<K> EventQueue<K> {
    /// Add an event. Inside the ring's horizon an ordered insert from
    /// the bucket's back (usually an append), a heap push beyond it,
    /// and an ordered insert when the event belongs to the cursor's
    /// slot (a timer at the current instant) — near the back, where the
    /// next pop is, so the scan and the shift are short.
    pub(crate) fn push(&mut self, ev: Ev<K>) {
        let slot = ev.slot();
        if slot <= self.cursor {
            let key = ev.key();
            let i = self
                .current
                .iter()
                .rposition(|e| e.key() > key)
                .map_or(0, |p| p + 1);
            self.current.insert(i, ev);
        } else if slot - self.cursor < RING_SLOTS {
            self.push_ring(slot, ev);
        } else {
            self.far.push(Reverse(ev));
        }
    }

    /// File an event of a slot inside the ring's horizon, keeping its
    /// bucket in ascending key order.
    fn push_ring(&mut self, slot: u64, ev: Ev<K>) {
        let i = (slot % RING_SLOTS) as usize;
        let bucket = &mut self.ring[i];
        // Every bucket ends up as large as the busiest slot (capacity
        // circulates, see `advance`), so `Vec`'s doubling is paid
        // RING_SLOTS times over: on `tcp_write_k10` all 128 buckets sat
        // at capacity 64 (330 KB, in a 5.8 MB process); growing by a
        // quarter they stop at 50 (257 KB).
        if bucket.len() == bucket.capacity() {
            bucket.reserve_exact((bucket.capacity() / 4).max(8));
        }
        // Events mostly arrive in key order: scan from the back, where
        // an in-order push stops at once.
        let key = ev.key();
        let at = bucket
            .iter()
            .rposition(|e| e.key() < key)
            .map_or(0, |p| p + 1);
        bucket.insert(at, ev);
        // The bucket was ascending, so checking the new entry's
        // neighbours keeps the whole bucket ascending.
        debug_assert!(bucket[at.saturating_sub(1)..(at + 2).min(bucket.len())]
            .windows(2)
            .all(|w| w[0].key() < w[1].key()));
        self.occupied |= 1 << i;
    }

    /// Remove and return the event with the smallest key if it lies
    /// before `horizon` (in nanoseconds); otherwise leave the queue as
    /// it is. The cursor moves only into a slot that starts before
    /// `horizon`, so an event at or past the horizon stays put, cursor
    /// and all.
    pub(crate) fn pop_before(&mut self, horizon: u64) -> Option<Ev<K>> {
        if self.current.is_empty() {
            let next = self.next_slot()?;
            if next << SLOT_SHIFT >= horizon {
                return None;
            }
            self.advance(next);
        }
        match self.current.last() {
            Some(ev) if ev.at.as_nanos() < horizon => self.current.pop(),
            _ => None,
        }
    }

    /// The event with the smallest key, without moving the cursor (see
    /// the module docs for why that matters): the back of `current`,
    /// else the front of the first occupied bucket, else `far`'s head.
    pub(crate) fn peek(&self) -> Option<&Ev<K>> {
        if let Some(ev) = self.current.last() {
            return Some(ev);
        }
        match self.next_ring_slot() {
            // Ring slots all precede `far`'s, and buckets are in key
            // order.
            Some(slot) => self.ring[(slot % RING_SLOTS) as usize].first(),
            None => self.far.peek().map(|Reverse(ev)| ev),
        }
    }

    /// Consume the queue, yielding its events in no particular order
    /// (the event loop deals them out to, and merges them back from,
    /// the queues of shards past the first).
    pub(crate) fn into_unordered(self) -> impl Iterator<Item = Ev<K>> {
        self.current
            .into_iter()
            .chain(self.ring.into_iter().flatten())
            .chain(self.far.into_iter().map(|Reverse(ev)| ev))
    }

    /// The first occupied ring slot after the cursor.
    fn next_ring_slot(&self) -> Option<u64> {
        // Rotate the bitmap so bit 0 is slot `cursor + 1`.
        let first = self.cursor + 1;
        let ahead = self.occupied.rotate_right((first % RING_SLOTS) as u32);
        (ahead != 0).then(|| first + u64::from(ahead.trailing_zeros()))
    }

    /// The first slot after the cursor that holds an event, if any.
    fn next_slot(&self) -> Option<u64> {
        self.next_ring_slot()
            .or_else(|| self.far.peek().map(|Reverse(ev)| ev.slot()))
    }

    /// With `current` empty, move the cursor to `next` (the next slot
    /// that holds an event) and make that slot `current`.
    fn advance(&mut self, next: u64) {
        debug_assert!(self.current.is_empty() && Some(next) == self.next_slot());
        self.cursor = next;
        // The horizon moved with the cursor: file what `far` held for
        // the slots it now covers, the new cursor's own included.
        while let Some(Reverse(ev)) = self.far.peek() {
            let slot = ev.slot();
            if slot - next >= RING_SLOTS {
                break;
            }
            let Reverse(ev) = self.far.pop().expect("peeked");
            self.push_ring(slot, ev);
        }
        // Swapping (rather than taking) hands the emptied `current`'s
        // allocation to the bucket, so capacity circulates round the
        // ring instead of being reallocated per slot.
        let i = (next % RING_SLOTS) as usize;
        std::mem::swap(&mut self.current, &mut self.ring[i]);
        self.occupied &= !(1 << i);
        self.current.reverse();
        debug_assert!(self.current.windows(2).all(|w| w[0].key() > w[1].key()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference model: the binary heap the queue replaced.
    type Model = BinaryHeap<Reverse<Ev<u64>>>;

    /// Pop everything, in order.
    fn drain<K>(queue: &mut EventQueue<K>) -> impl Iterator<Item = Ev<K>> + '_ {
        std::iter::from_fn(|| queue.pop_before(u64::MAX))
    }

    /// The layout the module docs promise: `current` descending, every
    /// ring bucket ascending, within its slot and flagged occupied, and
    /// each part inside its range of slots.
    fn assert_layout<K>(queue: &EventQueue<K>) {
        let c = queue.cursor;
        assert!(queue.current.windows(2).all(|w| w[0].key() > w[1].key()));
        assert!(queue.current.iter().all(|e| e.slot() <= c));
        for (i, bucket) in queue.ring.iter().enumerate() {
            assert_eq!(queue.occupied >> i & 1 == 1, !bucket.is_empty());
            assert!(bucket.windows(2).all(|w| w[0].key() < w[1].key()));
            for e in bucket {
                assert_eq!(e.slot() % RING_SLOTS, i as u64);
                assert!(e.slot() > c && e.slot() - c < RING_SLOTS);
            }
        }
        assert!(queue
            .far
            .iter()
            .all(|Reverse(e)| e.slot() - c >= RING_SLOTS));
    }

    /// What one generated step does. Delays are relative to the key of
    /// the last popped event — the simulation clock — and drawn from
    /// the classes that reach different parts of the queue.
    fn delay_ns(class: u8, raw: u64) -> u64 {
        match class {
            // The cursor's own slot: the clock's instant, then within
            // a slot's width of it.
            0 => 0,
            1 => raw % 256,
            // One hop: 64 B / 1 504 B serialization, with and without
            // 10 µs of propagation — inside the ring.
            2 => [512, 10_512, 12_032, 22_032][(raw % 4) as usize],
            // The horizon's edge, both sides.
            3 => RING_SLOTS * 256 - 300 + raw % 600,
            // Beyond it: sweeps, RTOs, session starts.
            4 => 40_000 + raw % 2_000_000,
            // So far out that the slot distance overflows 32 bits.
            _ => (1 << 40) + raw % (1 << 41),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any interleaving of pushes, pops, pops bounded by a horizon,
        /// peeks and drains pops the heap's sequence, every peek is the
        /// heap's head, a bounded pop returns the head exactly when it
        /// lies before the horizon, and (since the heap cannot tell) no
        /// peek or refused pop changes a later pop. Horizons fall inside
        /// the cursor's slot, one hop out, at the ring's edge and beyond
        /// it, so a refused pop can leave the cursor in a slot whose
        /// events all lie past the horizon, with later pushes behind it.
        /// After every step the buckets are in key order. A `nosy` case
        /// also peeks after every step.
        #[test]
        fn pops_exactly_like_the_binary_heap(
            steps in proptest::collection::vec((0u8..15, 0u8..6, any::<u64>(), 0u32..4), 1..700),
            nosy in any::<bool>(),
        ) {
            let mut queue = EventQueue::<u64>::default();
            let mut model = Model::new();
            // The clock, and the next `seq` (unique, so keys never tie).
            let (mut now, mut seq) = (0u64, 0u64);
            let pop_both = |queue: &mut EventQueue<u64>,
                            model: &mut Model,
                            now: &mut u64,
                            horizon: u64| {
                let got = queue.pop_before(horizon).map(|e| (e.key(), e.kind));
                let want = match model.peek() {
                    Some(Reverse(e)) if e.at.as_nanos() < horizon => {
                        model.pop().map(|Reverse(e)| (e.key(), e.kind))
                    }
                    _ => None,
                };
                prop_assert_eq!(got, want);
                if let Some(((at, ..), _)) = got {
                    *now = at.as_nanos();
                }
                Ok(got.is_some())
            };
            let peek_both = |queue: &EventQueue<u64>, model: &Model| {
                let want = model.peek().map(|Reverse(e)| e.key());
                prop_assert_eq!(queue.peek().map(Ev::key), want);
                Ok(())
            };
            for (op, class, raw, rank) in steps {
                match op {
                    // Pushes outnumber pops so the queue fills; every
                    // sixth is dated *before* the clock (never legal
                    // in the simulator, still ordered exactly here) to
                    // land behind the cursor.
                    0..=5 => {
                        let at = if op == 5 {
                            now.saturating_sub(delay_ns(class.min(4), raw))
                        } else {
                            now + delay_ns(class, raw)
                        };
                        let ev = || Ev { at: SimTime::from_nanos(at), rank, seq, kind: seq };
                        queue.push(ev());
                        model.push(Reverse(ev()));
                        seq += 1;
                    }
                    6..=8 => {
                        pop_both(&mut queue, &mut model, &mut now, u64::MAX)?;
                    }
                    // A window: pop up to a horizon ahead of the clock.
                    9 | 10 => {
                        let horizon = now + delay_ns(class, raw);
                        while pop_both(&mut queue, &mut model, &mut now, horizon)? {}
                    }
                    11..=13 => peek_both(&queue, &model)?,
                    // Drain to empty, then carry on reusing the queue.
                    _ => while pop_both(&mut queue, &mut model, &mut now, u64::MAX)? {},
                }
                assert_layout(&queue);
                if nosy {
                    peek_both(&queue, &model)?;
                }
            }
            while pop_both(&mut queue, &mut model, &mut now, u64::MAX)? {}
            prop_assert!(queue.peek().is_none());
        }
    }

    /// The two caller sequences that push at or behind the cursor's
    /// slot, spelled out: a window that stopped at its horizon followed
    /// by an earlier timer, and a mailbox arrival after a window test.
    #[test]
    fn a_peek_leaves_room_for_earlier_pushes() {
        let ev = |at: u64, seq: u64| Ev {
            at: SimTime::from_nanos(at),
            rank: 1,
            seq,
            kind: (),
        };
        let mut queue = EventQueue::default();
        queue.push(ev(100, 0));
        queue.push(ev(1_000_000, 1)); // a 1 ms sweep, in `far`
        assert_eq!(queue.pop_before(500_000).map(|e| e.seq), Some(0));
        // The window ends at 500 µs: the sweep is past it.
        assert!(queue.pop_before(500_000).is_none());
        assert_eq!(queue.peek().map(|e| e.seq), Some(1));
        assert_eq!(queue.cursor, 0, "a refused pop must not move the cursor");
        // `schedule_timer(earlier)` / a mailbox arrival: ahead of the
        // cursor, so a plain bucket push.
        queue.push(ev(500_000, 2));
        queue.push(ev(150, 3)); // the cursor's own slot
        assert!(queue.far.len() == 2 && queue.current.len() == 1);
        let order: Vec<u64> = drain(&mut queue).map(|e| e.seq).collect();
        assert_eq!(order, [3, 2, 1]);
    }

    /// A horizon inside a slot: the cursor enters the slot, because it
    /// starts before the horizon, but the slot's events at or past the
    /// horizon stay put; a later push earlier in the slot pops first.
    /// A slot that starts at the horizon is not entered at all.
    #[test]
    fn a_horizon_inside_a_slot_moves_the_cursor_but_pops_nothing_past_it() {
        let ev = |at: u64, seq: u64| Ev {
            at: SimTime::from_nanos(at),
            rank: 1,
            seq,
            kind: (),
        };
        let mut queue = EventQueue::default();
        queue.push(ev(300, 0)); // slot 1: 256 ..= 511
        assert!(queue.pop_before(256).is_none());
        assert_eq!(queue.cursor, 0, "slot 1 starts at the horizon");
        assert!(queue.pop_before(260).is_none());
        assert_eq!(queue.cursor, 1, "slot 1 starts before the horizon");
        queue.push(ev(257, 1)); // the cursor's slot, before the event
        assert_eq!(queue.pop_before(260).map(|e| e.seq), Some(1));
        assert!(queue.pop_before(300).is_none());
        assert_eq!(queue.pop_before(301).map(|e| e.seq), Some(0));
        assert!(queue.pop_before(u64::MAX).is_none());
    }

    /// The invariant's far edge: an event exactly `RING_SLOTS` slots
    /// ahead waits in `far`, and moves into the ring the moment a pop
    /// brings the cursor one slot closer — so an occupied bucket always
    /// precedes everything in `far`, which `peek` relies on.
    #[test]
    fn the_horizon_follows_the_cursor() {
        let width = 1u64 << SLOT_SHIFT;
        let ev = |slot: u64, seq: u64| Ev {
            at: SimTime::from_nanos(slot * width),
            rank: 1,
            seq,
            kind: (),
        };
        let mut queue = EventQueue::default();
        queue.push(ev(1, 0));
        queue.push(ev(RING_SLOTS - 1, 1));
        queue.push(ev(RING_SLOTS, 2));
        queue.push(ev(RING_SLOTS + 1, 3));
        assert_eq!(
            queue.far.len(),
            2,
            "slots 128 and 129 are past slot 0's horizon"
        );
        assert_eq!(queue.pop_before(u64::MAX).map(|e| e.seq), Some(0));
        assert_eq!(queue.far.len(), 1, "slot 128 is inside slot 1's horizon");
        // Same slot as the event that just left `far`, smaller key.
        queue.push(ev(RING_SLOTS, 1));
        queue.push(ev(RING_SLOTS - 1, 0));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| {
            let head = queue.peek().map(Ev::key);
            let ev = queue.pop_before(u64::MAX)?;
            assert_eq!(head, Some(ev.key()));
            Some((ev.at.as_nanos() / width, ev.seq))
        })
        .collect();
        assert_eq!(order, [(127, 0), (127, 1), (128, 1), (128, 2), (129, 3)]);
    }

    /// Slots a whole ring apart share a bucket index; the far heap
    /// keeps the later one out until the cursor has passed the earlier.
    #[test]
    fn ring_wrap_around_keeps_laps_apart() {
        let width = 1u64 << SLOT_SHIFT;
        let mut queue = EventQueue::default();
        // Same bucket index (5), laps 0, 1 and 2; pushed latest first.
        for (seq, lap) in [2u64, 1, 0].into_iter().enumerate() {
            queue.push(Ev {
                at: SimTime::from_nanos((5 + lap * RING_SLOTS) * width + 7),
                rank: 1,
                seq: seq as u64,
                kind: lap,
            });
        }
        assert_eq!(queue.far.len(), 2, "laps 1 and 2 lie beyond the horizon");
        let laps: Vec<u64> = drain(&mut queue).map(|e| e.kind).collect();
        assert_eq!(laps, [0, 1, 2]);
    }
}
