//! The pending-event set of one metro domain.
//!
//! Most metro events are scheduled a *fixed* delay after the current
//! time — a generator's next emission, a local packet's access-network
//! hop, a handover's end. Events of one such kind are therefore pushed
//! in time order, and a FIFO holds them sorted for free. [`Pending`]
//! keeps `N` such FIFO lanes plus one binary heap for everything else
//! (random residence draws, paced flushes, boundary arrivals).
//!
//! The order is exactly that of [`fh_sim::EventQueue`]: one `seq`
//! counter stamps every push across all lanes and the heap, and
//! [`Pending::pop`] takes the minimum `(time, seq)` over the lane fronts
//! and the heap top. A lane push earlier than the lane's back would
//! break the lane's sort, so it goes to the heap instead; the order
//! stays exact for any schedule. Events are never cancelled, so there
//! is no slot arena, free list or generation stamp to pay for.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use fh_sim::SimTime;

/// One scheduled event, ordered by `(time, seq)`.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

// Min-heap by (time, seq): invert the comparison.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

/// `N` time-ordered FIFO lanes and a heap, popped in `(time, seq)`
/// order.
#[derive(Debug)]
pub(crate) struct Pending<E, const N: usize> {
    lanes: [VecDeque<Entry<E>>; N],
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E, const N: usize> Pending<E, N> {
    pub(crate) fn new() -> Self {
        Pending {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn stamp(&mut self, time: SimTime, event: E) -> Entry<E> {
        let seq = self.seq;
        self.seq += 1;
        Entry { time, seq, event }
    }

    /// Schedules `event` at `time` on the heap.
    pub(crate) fn push(&mut self, time: SimTime, event: E) {
        let entry = self.stamp(time, event);
        self.heap.push(entry);
    }

    /// Schedules `event` at `time` on `lane`, or on the heap if `time`
    /// is earlier than the lane's last event.
    pub(crate) fn push_lane(&mut self, lane: usize, time: SimTime, event: E) {
        let entry = self.stamp(time, event);
        match self.lanes[lane].back() {
            Some(back) if time < back.time => self.heap.push(entry),
            _ => self.lanes[lane].push_back(entry),
        }
    }

    /// Schedules `event` at `time` on `lane` in any time order. Call
    /// [`Pending::sort_lanes`] before the next pop.
    pub(crate) fn seed_lane(&mut self, lane: usize, time: SimTime, event: E) {
        let entry = self.stamp(time, event);
        self.lanes[lane].push_back(entry);
    }

    /// Restores every lane's `(time, seq)` order after seeding.
    pub(crate) fn sort_lanes(&mut self) {
        for lane in &mut self.lanes {
            lane.make_contiguous().sort_unstable_by_key(Entry::key);
        }
    }

    /// The lane whose front is earliest, or `None` for the heap top.
    /// `None` as well when everything is empty.
    fn earliest_lane(&self) -> Option<usize> {
        let mut best = self.heap.peek().map(Entry::key);
        let mut lane = None;
        for (i, l) in self.lanes.iter().enumerate() {
            if let Some(front) = l.front() {
                if best.is_none_or(|b| front.key() < b) {
                    best = Some(front.key());
                    lane = Some(i);
                }
            }
        }
        lane
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match self.earliest_lane() {
            Some(lane) => self.lanes[lane].pop_front(),
            None => self.heap.pop(),
        }?;
        Some((entry.time, entry.event))
    }

    /// Time of the earliest event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        match self.earliest_lane() {
            Some(lane) => self.lanes[lane].front().map(|e| e.time),
            None => self.heap.peek().map(|e| e.time),
        }
    }
}

#[cfg(test)]
mod tests {
    use fh_sim::{EventQueue, Rng64};

    use super::*;

    /// Drives a `Pending` and the reference `EventQueue` through the
    /// same random schedule and demands identical output. Lane pushes
    /// land at `now + lane delay` with a small random jitter, so some
    /// fall behind their lane's back (the heap fallback), and times are
    /// coarse so equal-time ties are frequent (the `seq` tie-break).
    #[test]
    fn pops_in_the_event_queue_order() {
        const DELAYS: [u64; 3] = [40, 2, 120];
        for seed in 0..20 {
            let mut rng = Rng64::seed_from(seed);
            let mut pending: Pending<u64, 3> = Pending::new();
            let mut oracle: EventQueue<u64> = EventQueue::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            let mut fallbacks = 0;
            let mut ties = 0;

            // Out-of-order seeds on lane 0, interleaved with heap pushes.
            for _ in 0..50 {
                let t = SimTime::from_nanos(rng.gen_range_u64(40));
                if rng.gen_bool(0.3) {
                    pending.push(t, payload);
                } else {
                    pending.seed_lane(0, t, payload);
                }
                oracle.push(t, payload);
                payload += 1;
            }
            pending.sort_lanes();

            for _ in 0..3_000 {
                if rng.gen_bool(0.45) {
                    let want = oracle.pop();
                    assert_eq!(pending.pop(), want, "seed {seed}");
                    if let Some((t, _)) = want {
                        ties += usize::from(oracle.peek_time() == Some(t));
                        now = t.as_nanos();
                    }
                } else {
                    let lane = rng.gen_range_u64(4) as usize;
                    if lane == 3 {
                        let t = SimTime::from_nanos(now + rng.gen_range_u64(200));
                        pending.push(t, payload);
                        oracle.push(t, payload);
                    } else {
                        let jitter = rng.gen_range_u64(3);
                        let t = SimTime::from_nanos(now + DELAYS[lane] - jitter);
                        let back = pending.lanes[lane].back().map(|e| e.time);
                        fallbacks += usize::from(back.is_some_and(|b| t < b));
                        pending.push_lane(lane, t, payload);
                        oracle.push(t, payload);
                    }
                    payload += 1;
                }
                assert_eq!(pending.peek_time(), oracle.peek_time(), "seed {seed}");
            }
            while let Some(want) = oracle.pop() {
                assert_eq!(pending.pop(), Some(want), "seed {seed}");
            }
            assert_eq!(pending.pop(), None);
            assert!(fallbacks > 0 && ties > 0, "seed {seed}: schedule too tame");
        }
    }
}
