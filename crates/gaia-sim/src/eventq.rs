//! Event queue for the engine: an ordered arrival run beside a binary
//! heap.
//!
//! The engine's event order is the total order `(time, prio, seq)`;
//! sequence numbers are unique, so the order is total and deterministic.
//! Much of the traffic already arrives in that order: the batch path
//! submits a whole trace up front, sorted by arrival, and an in-order
//! serving client does the same one request at a time. An insert whose
//! key is greater than every key in the `run` lane is appended to it (a
//! `VecDeque`, so the run stays sorted and pops from its front in O(1));
//! every other insert goes to the `heap` lane, a `BinaryHeap` that
//! already pops earliest-first through [`Event`]'s inverted `Ord`. A pop
//! takes the smaller of the two heads, so the pop order is exactly the
//! heap's total order whichever lane an event took.
//!
//! The snapshot codec serializes events sorted by `(time, prio, seq)`,
//! so [`EventQueue::unprocessed`] — which iterates in arbitrary order —
//! feeds a sort, and the bytes cannot depend on which lane holds what. A
//! restored snapshot re-inserts its events in that sorted order, so all
//! of them take the run.

use std::collections::{BinaryHeap, VecDeque};

use gaia_time::SimTime;

use crate::online::{stagger_capacity, Event};

/// Spare capacity of the run and heap lanes: the two rungs of the
/// [`stagger_capacity`] ladder past the per-job columns' (`k` = 19 and
/// 20), so the lanes' capacities stay distinct from each other's and
/// every column's under doubling.
const RUN_SLACK: usize = stagger_capacity(19);
const HEAP_SLACK: usize = stagger_capacity(20);

/// The engine's pending events, ordered by `(time, prio, seq)`.
pub(crate) struct EventQueue {
    /// Events in strictly ascending key order, earliest at the front.
    run: VecDeque<Event>,
    /// Every event that arrived out of the run's order.
    heap: BinaryHeap<Event>,
}

/// The queue's total order; smaller pops first.
fn key(e: &Event) -> (SimTime, u8, u64) {
    (e.time, e.prio, e.seq)
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Queued events not yet popped.
    pub(crate) fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Pre-sizes both lanes for `additional` more events each (plus
    /// their distinct slack), so neither reallocates while the queue
    /// holds no more than that.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.reserve_run(additional);
        self.heap.reserve_exact(additional + HEAP_SLACK);
    }

    /// Pre-sizes the run lane alone for `additional` more events (plus
    /// its slack): enough for inserts already sorted by `(time, prio,
    /// seq)`, which all take the run.
    pub(crate) fn reserve_run(&mut self, additional: usize) {
        self.run.reserve_exact(additional + RUN_SLACK);
    }

    /// Enqueues one event: onto the run if it sorts after the run's
    /// last event, into the heap otherwise.
    pub(crate) fn insert(&mut self, e: Event) {
        if self.run.back().is_none_or(|last| key(&e) > key(last)) {
            self.run.push_back(e);
        } else {
            self.heap.push(e);
        }
    }

    /// `true` when the next event to pop is the run's front.
    fn run_first(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => key(r) < key(h),
            (r, _) => r.is_some(),
        }
    }

    /// The timestamp of the next event to pop, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        if self.run_first() {
            self.run.front().map(|e| e.time)
        } else {
            self.heap.peek().map(|e| e.time)
        }
    }

    /// Pops the next event in `(time, prio, seq)` order.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        if self.run_first() {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }
    }

    /// Every queued (unpopped) event, in arbitrary order. Snapshot
    /// encoding sorts by `(time, prio, seq)` before serializing.
    pub(crate) fn unprocessed(&self) -> impl Iterator<Item = &Event> {
        self.run.iter().chain(self.heap.iter())
    }
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("run", &self.run.len())
            .field("heap", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
impl EventQueue {
    /// The run and heap lanes' capacities.
    pub(crate) fn lane_capacities(&self) -> (usize, usize) {
        (self.run.capacity(), self.heap.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::EventKind;
    use std::collections::BinaryHeap;

    fn event(time: u64, prio: u8, seq: u64) -> Event {
        Event {
            time: SimTime::from_minutes(time),
            prio,
            seq,
            job: seq as u32,
            kind: EventKind::Arrival,
        }
    }

    /// Splitmix-style generator: the test must not depend on any RNG
    /// crate surface.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Random interleaving of pushes (never into the past, including
    /// same-minute pushes and far-future ones that jump the run's tail)
    /// and pops must match the binary heap exactly.
    #[test]
    fn matches_heap_order_under_random_interleaving() {
        for seed in 0..20u64 {
            let mut rng = Mix(seed);
            let mut queue = EventQueue::new();
            let mut heap: BinaryHeap<Event> = BinaryHeap::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            let mut popped = Vec::new();
            for _ in 0..4000 {
                let do_push = heap.is_empty() || !rng.next().is_multiple_of(3);
                if do_push {
                    seq += 1;
                    let horizon = match rng.next() % 4 {
                        0 => 0,                             // same minute
                        1 => rng.next() % 50,               // near future
                        2 => rng.next() % 5_000,            // days ahead
                        _ => 40_000 + rng.next() % 200_000, // far future
                    };
                    let e = event(now + horizon, (rng.next() % 4) as u8, seq);
                    queue.insert(e);
                    heap.push(e);
                } else {
                    let expect = heap.pop();
                    let got = queue.pop();
                    assert_eq!(got, expect, "seed {seed}");
                    if let Some(e) = got {
                        now = now.max(e.time.as_minutes());
                        popped.push(e);
                    }
                }
                assert_eq!(queue.len(), heap.len(), "seed {seed}");
                assert_eq!(queue.peek_time(), heap.peek().map(|e| e.time));
            }
            // Drain both completely.
            while let Some(expect) = heap.pop() {
                assert_eq!(queue.pop(), Some(expect), "seed {seed} drain");
            }
            assert_eq!(queue.pop(), None);
            assert_eq!(queue.len(), 0);
        }
    }

    /// Tens of thousands of events on one minute (the carbon trough
    /// shape: every waiting job parked on the same low-carbon minute)
    /// split between the lanes by their random priorities, and must
    /// still pop in exact heap order, with [`EventQueue::unprocessed`]
    /// covering both lanes.
    #[test]
    fn heavy_minute_keeps_order() {
        let total = 37_089u64;
        let mut rng = Mix(7);
        let mut queue = EventQueue::new();
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        // One early sentinel so the heavy minute is not the first batch.
        let sentinel = event(1, 0, 0);
        queue.insert(sentinel);
        heap.push(sentinel);
        for seq in 1..=total {
            let e = event(500, (rng.next() % 4) as u8, seq);
            queue.insert(e);
            heap.push(e);
        }
        let mut pending: Vec<Event> = queue.unprocessed().copied().collect();
        pending.sort_unstable_by_key(|e| (e.time, e.prio, e.seq));
        let mut expected: Vec<Event> = heap.iter().copied().collect();
        expected.sort_unstable_by_key(|e| (e.time, e.prio, e.seq));
        assert_eq!(pending, expected, "unprocessed must cover both lanes");
        while let Some(expect) = heap.pop() {
            assert_eq!(queue.pop(), Some(expect));
        }
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn unprocessed_covers_every_pending_event() {
        let mut queue = EventQueue::new();
        let mut expected = Vec::new();
        for seq in 1..=300u64 {
            let e = event((seq * 977) % 100_000, (seq % 4) as u8, seq);
            queue.insert(e);
            expected.push(e);
        }
        // Pop a prefix; the remainder must be exactly what iterates.
        for _ in 0..120 {
            let e = queue.pop().expect("non-empty");
            let at = expected.iter().position(|x| x == &e).expect("tracked");
            expected.remove(at);
        }
        let mut pending: Vec<Event> = queue.unprocessed().copied().collect();
        pending.sort_unstable_by_key(|e| (e.time, e.prio, e.seq));
        expected.sort_unstable_by_key(|e| (e.time, e.prio, e.seq));
        assert_eq!(pending, expected);
    }

    /// Drains `queue` against `heap`, event by event.
    fn drain_matches(queue: &mut EventQueue, heap: &mut BinaryHeap<Event>) {
        while let Some(expect) = heap.pop() {
            assert_eq!(queue.peek_time(), Some(expect.time));
            assert_eq!(queue.pop(), Some(expect));
        }
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.len(), 0);
    }

    /// The batch path's shape: a whole trace of arrivals inserted in
    /// order up front (all of them take the run), then the engine's own
    /// inserts — releases, starts and finishes at or after the popped
    /// event's minute — interleaved with pops.
    #[test]
    fn batch_submission_then_engine_inserts_match_heap() {
        for seed in 0..8u64 {
            let mut rng = Mix(seed);
            let mut queue = EventQueue::new();
            let mut heap: BinaryHeap<Event> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut t = 0u64;
            for _ in 0..3000 {
                seq += 1;
                t += rng.next() % 30;
                let e = event(t, 2, seq);
                queue.insert(e);
                heap.push(e);
            }
            assert_eq!(queue.heap.len(), 0, "in-order arrivals all take the run");
            for _ in 0..6000 {
                let expect = heap.pop();
                assert_eq!(queue.pop(), expect, "seed {seed}");
                let Some(now) = expect.map(|e| e.time.as_minutes()) else {
                    break;
                };
                for _ in 0..rng.next() % 3 {
                    seq += 1;
                    let later = match rng.next() % 3 {
                        0 => 0,
                        1 => rng.next() % 240,
                        _ => rng.next() % 20_000,
                    };
                    let prio = [0u8, 1, 3][(rng.next() % 3) as usize];
                    let e = event(now + later, prio, seq);
                    queue.insert(e);
                    heap.push(e);
                }
                assert_eq!(queue.len(), heap.len(), "seed {seed}");
            }
            drain_matches(&mut queue, &mut heap);
        }
    }

    /// The restore path's shape: every event inserted already sorted by
    /// `(time, prio, seq)` lands in the run and pops in that order.
    #[test]
    fn sorted_inserts_all_take_the_run() {
        let mut rng = Mix(11);
        let mut events: Vec<Event> = (1..=5000u64)
            .map(|seq| event(rng.next() % 50_000, (rng.next() % 4) as u8, seq))
            .collect();
        events.sort_unstable_by_key(|e| (e.time, e.prio, e.seq));
        let mut queue = EventQueue::new();
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        for &e in &events {
            queue.insert(e);
            heap.push(e);
        }
        assert_eq!(queue.run.len(), events.len());
        assert!(queue.heap.is_empty());
        drain_matches(&mut queue, &mut heap);
    }

    /// `reserve(n)` covers `n` inserts into either lane: neither
    /// reallocates, whichever lane the events take.
    #[test]
    fn reserve_covers_inserts_into_either_lane() {
        let n = 10_000u64;
        for descending in [false, true] {
            let mut queue = EventQueue::new();
            queue.reserve(n as usize);
            let capacities = (queue.run.capacity(), queue.heap.capacity());
            for i in 1..=n {
                // Ascending keys all take the run; descending keys all
                // but the first take the heap.
                let t = if descending { n - i } else { i };
                queue.insert(event(t, 2, i));
                assert_eq!((queue.run.capacity(), queue.heap.capacity()), capacities);
            }
            assert_eq!(queue.len(), n as usize);
            if descending {
                assert_eq!(queue.run.len(), 1);
            }
        }
    }
}
