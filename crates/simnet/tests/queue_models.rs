//! The engine's containers against reference models: the inline-head
//! matching queue must behave as a `VecDeque` per key, and the radix
//! event queue must pop in the `(time, push sequence)` order of a binary
//! heap, under random operation sequences.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use proptest::prelude::*;

use mpcp_simnet::queue::{MatchQueue, RadixQueue};
use mpcp_simnet::SimTime;

/// `(push?, key, value)`: a few keys, so queues often hold several
/// entries under one key.
fn match_ops() -> impl Strategy<Value = Vec<(bool, u64, u32)>> {
    prop::collection::vec((any::<bool>(), 0u64..5, any::<u32>()), 0..200)
}

/// `(pops, step class, step)`: how many pops precede a push, and how far
/// past the current time it lands. Half the pushes land exactly on the
/// current time, a quarter within 8 ps, the rest anywhere up to 2^45 ps.
fn event_ops() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..3, 0u32..4, 0u64..(1 << 45)), 0..300)
}

fn step(class: u32, raw: u64) -> u64 {
    match class {
        0 | 1 => 0,
        2 => raw % 8,
        _ => raw,
    }
}

/// Replay `ops` on a fresh or reused radix queue and on the reference
/// heap; both must yield the same pops, then drain identically.
fn check_event_order(q: &mut RadixQueue<u32>, ops: &[(u32, u32, u64)]) -> Result<(), TestCaseError> {
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut now = 0u64;
    let mut seq = 0u64;
    for (i, &(pops, class, raw)) in ops.iter().enumerate() {
        for _ in 0..pops {
            let want = heap.pop().map(|Reverse((t, _, v))| (SimTime(t), v));
            let got = q.pop();
            prop_assert_eq!(got, want);
            if let Some((t, _)) = got {
                now = t.picos();
            }
        }
        let payload = u32::try_from(i).unwrap_or(u32::MAX);
        let t = now + step(class, raw);
        seq += 1;
        heap.push(Reverse((t, seq, payload)));
        q.push(SimTime(t), payload);
        prop_assert_eq!(q.len(), heap.len());
    }
    while let Some(Reverse((t, _, v))) = heap.pop() {
        prop_assert_eq!(q.pop(), Some((SimTime(t), v)));
    }
    prop_assert_eq!(q.pop(), None);
    prop_assert!(q.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn match_queue_is_a_fifo_per_key(ops in match_ops()) {
        let mut q = MatchQueue::default();
        let mut model: HashMap<u64, VecDeque<u32>> = HashMap::new();
        for (push, key, value) in ops {
            if push {
                q.push(key, value);
                model.entry(key).or_default().push_back(value);
            } else {
                let want = model.get_mut(&key).and_then(VecDeque::pop_front);
                prop_assert_eq!(q.pop(key), want);
            }
        }
        prop_assert_eq!(q.is_empty(), model.values().all(VecDeque::is_empty));
        for (key, mut fifo) in model {
            while let Some(v) = fifo.pop_front() {
                prop_assert_eq!(q.pop(key), Some(v));
            }
            prop_assert_eq!(q.pop(key), None);
        }
        prop_assert!(q.is_empty());
    }

    #[test]
    fn radix_queue_pops_in_binary_heap_order(ops in event_ops()) {
        check_event_order(&mut RadixQueue::default(), &ops)?;
    }

    #[test]
    fn a_cleared_radix_queue_behaves_like_a_new_one(
        first in event_ops(),
        cut in 0usize..300,
        second in event_ops(),
    ) {
        // Run part of a sequence, abandon it mid-way (as a failed
        // simulation does), clear, and reuse the buckets.
        let mut q = RadixQueue::default();
        let mut now = 0u64;
        for &(_, class, raw) in first.iter().take(cut) {
            q.push(SimTime(now + step(class, raw)), 0);
            if let Some((t, _)) = q.pop() {
                now = t.picos();
            }
            q.push(SimTime(now + step(class, raw)), 0);
        }
        q.clear();
        prop_assert!(q.is_empty());
        check_event_order(&mut q, &second)?;
    }
}
