//! The engine's two hot containers: per-key FIFO matching queues and a
//! monotone event queue.
//!
//! [`MatchQueue`] holds posted receives and arrived messages under their
//! `(source, tag)` key. Almost every key holds one entry at a time, so the
//! first entry lives inline in the map slot and only a second entry under
//! the same key touches a `VecDeque`; an unmatched message costs a map
//! insert and remove, never an allocation.
//!
//! [`RadixQueue`] is a radix heap over integer picosecond times. The
//! engine never schedules an event before the one it is processing, so
//! times are monotone and each pop is amortised O(log range) with no
//! comparisons between queued items. Equal times pop in push order, which
//! is exactly the `(time, seq)` order of a binary heap with a push
//! counter as tie-breaker. Its buckets keep their capacity across runs.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use crate::time::SimTime;
use crate::util::IntMap;

/// One key's queue: the oldest entry inline, later ones behind it.
#[derive(Debug)]
struct Slot<T> {
    head: T,
    rest: VecDeque<T>,
}

/// FIFO queues keyed by packed `(source, tag)` matching keys.
#[derive(Debug)]
pub struct MatchQueue<T> {
    map: IntMap<Slot<T>>,
}

impl<T> Default for MatchQueue<T> {
    fn default() -> Self {
        MatchQueue { map: IntMap::default() }
    }
}

impl<T> MatchQueue<T> {
    /// Append `value` to `key`'s queue.
    #[inline]
    pub fn push(&mut self, key: u64, value: T) {
        match self.map.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().rest.push_back(value),
            Entry::Vacant(e) => {
                e.insert(Slot { head: value, rest: VecDeque::new() });
            }
        }
    }

    /// Remove and return the oldest entry under `key`, if any.
    #[inline]
    pub fn pop(&mut self, key: u64) -> Option<T> {
        let Entry::Occupied(mut e) = self.map.entry(key) else {
            return None;
        };
        match e.get_mut().rest.pop_front() {
            Some(next) => Some(std::mem::replace(&mut e.get_mut().head, next)),
            None => Some(e.remove().head),
        }
    }

    /// Whether no key holds an entry.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every entry, keeping the map's capacity.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Number of buckets: bucket 0 holds items at the current time, bucket
/// `i ≥ 1` items whose highest bit differing from it is bit `i - 1`.
const BUCKETS: usize = 65;

/// A monotone priority queue over [`SimTime`] (a radix heap).
///
/// Pushing a time earlier than the last popped one is a caller error:
/// it is caught by a debug assertion and otherwise pops at the current
/// time.
#[derive(Debug)]
pub struct RadixQueue<T> {
    /// Time of the last pop (every queued time is at least this).
    last: u64,
    buckets: [Vec<(u64, T)>; BUCKETS],
    /// Read position in bucket 0, which pops from the front.
    head0: usize,
    /// Bit `i` set when bucket `i` may be non-empty.
    occupied: u128,
    len: usize,
}

impl<T> Default for RadixQueue<T> {
    fn default() -> Self {
        RadixQueue {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            head0: 0,
            occupied: 0,
            len: 0,
        }
    }
}

impl<T> RadixQueue<T> {
    #[inline]
    fn bucket_of(&self, time: u64) -> usize {
        (u64::BITS - (time ^ self.last).leading_zeros()) as usize
    }

    /// Queue `value` at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, value: T) {
        debug_assert!(time.0 >= self.last, "radix queue times must be monotone");
        let t = time.0.max(self.last);
        let b = self.bucket_of(t);
        self.buckets[b].push((t, value));
        self.occupied |= 1 << b;
        self.len += 1;
    }

    /// Remove the earliest item; among equal times, the first pushed.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)>
    where
        T: Copy,
    {
        if self.head0 == self.buckets[0].len() {
            self.buckets[0].clear();
            self.head0 = 0;
            self.occupied &= !1;
            if self.occupied == 0 {
                return None;
            }
            let i = self.occupied.trailing_zeros() as usize;
            if self.buckets[i].len() == 1 {
                // A lone item is the minimum: no redistribution needed.
                let (t, v) = self.buckets[i].pop()?;
                self.occupied &= !(1 << i);
                self.last = t;
                self.len -= 1;
                return Some((SimTime(t), v));
            }
            self.refill(i)?;
        }
        let (t, v) = self.buckets[0][self.head0];
        self.head0 += 1;
        self.len -= 1;
        Some((SimTime(t), v))
    }

    /// Bucket 0 is drained: move the items of bucket `i`, the lowest
    /// non-empty one, down around their minimum, the new current time.
    fn refill(&mut self, i: usize) -> Option<()>
    where
        T: Copy,
    {
        self.occupied &= !(1 << i);
        let mut items = std::mem::take(&mut self.buckets[i]);
        self.last = items.iter().map(|&(t, _)| t).min()?;
        // Items keep their relative order, so equal times stay in push
        // order: all of them sit in one bucket at any moment.
        for &(t, v) in &items {
            let b = self.bucket_of(t);
            self.buckets[b].push((t, v));
            self.occupied |= 1 << b;
        }
        items.clear();
        self.buckets[i] = items;
        Some(())
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every item and restart at time zero, keeping bucket capacity.
    pub fn clear(&mut self) {
        self.buckets[0].clear();
        while self.occupied != 0 {
            let i = self.occupied.trailing_zeros();
            self.occupied &= !(1 << i);
            self.buckets[i as usize].clear();
        }
        self.last = 0;
        self.head0 = 0;
        self.len = 0;
    }
}
