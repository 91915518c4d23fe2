//! Indexed per-engine request queues for the serving event loop.
//!
//! Every engine holds assigned-but-unstarted requests. The event loop
//! asks four things of them, each in O(log n):
//!
//! * the next request in discipline order — the earliest absolute
//!   deadline (ties to the lowest request id) under EDF, the oldest
//!   assignment otherwise;
//! * the newest assignment, which a work-stealing peer takes;
//! * which engine holds a given request, and its entry (preemption);
//! * removal of any one request by id.
//!
//! Entries live in an assignment-order map keyed by a per-run enqueue
//! sequence number, so a crash drains a queue in assignment order. EDF
//! runs add a `(deadline, id)` index; the key is unique because a
//! request sits in at most one queue at a time. A per-request slot
//! records `(engine, sequence)` for the id lookups.

use std::collections::BTreeMap;
use std::num::NonZeroU32;

/// Where a queued request sits: its engine and enqueue sequence number.
type Slot = (u32, NonZeroU32);

// One slot per request of the stream, queued or not: keep it 8 bytes.
const _: () = assert!(std::mem::size_of::<Option<Slot>>() == 8);

/// One engine's queue.
struct Lane<T> {
    /// Entries by enqueue sequence (assignment order):
    /// `(request id, absolute deadline, entry)`.
    order: BTreeMap<NonZeroU32, (usize, u64, T)>,
    /// `(absolute deadline, request id) → sequence`; filled only under
    /// EDF.
    by_deadline: BTreeMap<(u64, usize), NonZeroU32>,
}

/// The queues of every engine in one run, indexed by request id.
pub(crate) struct EngineQueues<T> {
    lanes: Vec<Lane<T>>,
    /// Per request id: its queue slot while queued.
    slots: Vec<Option<Slot>>,
    /// Sequence number of the next enqueue.
    next_seq: NonZeroU32,
    /// Whether the discipline serves earliest deadline first.
    edf: bool,
}

impl<T> EngineQueues<T> {
    /// Empty queues for `engines` engines over request ids
    /// `0..requests`; `edf` selects the earliest-deadline discipline.
    pub(crate) fn new(engines: usize, requests: usize, edf: bool) -> Self {
        assert!(
            u32::try_from(engines).is_ok(),
            "engine count {engines} exceeds the queue slot's range"
        );
        EngineQueues {
            lanes: (0..engines)
                .map(|_| Lane {
                    order: BTreeMap::new(),
                    by_deadline: BTreeMap::new(),
                })
                .collect(),
            slots: vec![None; requests],
            next_seq: NonZeroU32::MIN,
            edf,
        }
    }

    /// Queues request `id` on engine `e` with absolute deadline
    /// `deadline` (read only under EDF).
    ///
    /// # Panics
    ///
    /// Panics if `id` is already queued, or after 2³² − 1 enqueues.
    pub(crate) fn push(&mut self, e: usize, id: usize, deadline: u64, entry: T) {
        assert!(self.slots[id].is_none(), "request {id} is already queued");
        let seq = self.next_seq;
        self.next_seq = seq
            .checked_add(1)
            .expect("fewer than 2^32 enqueues per run");
        let lane = &mut self.lanes[e];
        lane.order.insert(seq, (id, deadline, entry));
        if self.edf {
            lane.by_deadline.insert((deadline, id), seq);
        }
        self.slots[id] = Some((e as u32, seq));
    }

    /// The entry engine `e` serves next under the discipline.
    pub(crate) fn next(&self, e: usize) -> Option<&T> {
        let lane = &self.lanes[e];
        if self.edf {
            let seq = lane.by_deadline.first_key_value()?.1;
            Some(&lane.order[seq].2)
        } else {
            lane.order.first_key_value().map(|(_, (_, _, t))| t)
        }
    }

    /// Removes and returns the entry engine `e` serves next.
    pub(crate) fn pop_next(&mut self, e: usize) -> Option<T> {
        if self.edf {
            let seq = *self.lanes[e].by_deadline.first_key_value()?.1;
            return Some(self.take(e, seq));
        }
        let (_, (id, _, entry)) = self.lanes[e].order.pop_first()?;
        self.slots[id] = None;
        Some(entry)
    }

    /// Removes and returns engine `e`'s most recently assigned entry
    /// (what a work-stealing peer takes).
    pub(crate) fn pop_back(&mut self, e: usize) -> Option<T> {
        let seq = *self.lanes[e].order.last_key_value()?.0;
        Some(self.take(e, seq))
    }

    /// The engine holding request `id` and its entry, if queued.
    pub(crate) fn get(&self, id: usize) -> Option<(usize, &T)> {
        let (e, seq) = self.slots[id]?;
        let e = e as usize;
        Some((e, &self.lanes[e].order[&seq].2))
    }

    /// Removes request `id` from its queue: its engine and entry.
    pub(crate) fn remove(&mut self, id: usize) -> Option<(usize, T)> {
        let (e, seq) = self.slots[id]?;
        let e = e as usize;
        Some((e, self.take(e, seq)))
    }

    /// Unlinks engine `e`'s entry `seq` from every index.
    fn take(&mut self, e: usize, seq: NonZeroU32) -> T {
        let lane = &mut self.lanes[e];
        let (id, deadline, entry) = lane.order.remove(&seq).expect("a live entry");
        if self.edf {
            lane.by_deadline.remove(&(deadline, id));
        }
        self.slots[id] = None;
        entry
    }

    /// Entries queued on engine `e`.
    pub(crate) fn len(&self, e: usize) -> usize {
        self.lanes[e].order.len()
    }

    /// Whether engine `e`'s queue is empty.
    pub(crate) fn is_empty(&self, e: usize) -> bool {
        self.lanes[e].order.is_empty()
    }

    /// Engine `e`'s entries in assignment order.
    pub(crate) fn iter(&self, e: usize) -> impl Iterator<Item = &T> {
        self.lanes[e].order.values().map(|(_, _, t)| t)
    }

    /// Empties engine `e`'s queue, returning its entries in assignment
    /// order.
    pub(crate) fn drain(&mut self, e: usize) -> Vec<T> {
        let lane = &mut self.lanes[e];
        lane.by_deadline.clear();
        std::mem::take(&mut lane.order)
            .into_values()
            .map(|(id, _, entry)| {
                self.slots[id] = None;
                entry
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear reference: one `Vec` per engine in assignment order,
    /// served by a `min_by_key` scan — the event loop's former queue.
    struct Model {
        queues: Vec<Vec<(usize, u64)>>,
        edf: bool,
    }

    impl Model {
        fn next(&self, e: usize) -> Option<usize> {
            let q = &self.queues[e];
            if self.edf {
                q.iter().min_by_key(|&&(id, d)| (d, id)).map(|&(id, _)| id)
            } else {
                q.first().map(|&(id, _)| id)
            }
        }

        fn remove(&mut self, id: usize) -> Option<usize> {
            self.queues.iter_mut().enumerate().find_map(|(e, q)| {
                let pos = q.iter().position(|&(i, _)| i == id)?;
                q.remove(pos);
                Some(e)
            })
        }
    }

    /// splitmix64: a seeded op stream without a dependency.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn indexed_queues_match_the_linear_scan() {
        const ENGINES: usize = 3;
        const REQUESTS: usize = 64;
        for edf in [false, true] {
            for seed in 0..8u64 {
                let mut rng = seed;
                let mut q: EngineQueues<(usize, u64)> = EngineQueues::new(ENGINES, REQUESTS, edf);
                let mut model = Model {
                    queues: vec![Vec::new(); ENGINES],
                    edf,
                };
                for _ in 0..2_000 {
                    let r = mix(&mut rng);
                    let e = (r % ENGINES as u64) as usize;
                    let id = ((r >> 8) % REQUESTS as u64) as usize;
                    match (r >> 40) % 6 {
                        // Colliding deadlines exercise the id tie-break.
                        0 | 1 if q.get(id).is_none() => {
                            let deadline = (r >> 20) % 16;
                            q.push(e, id, deadline, (id, deadline));
                            model.queues[e].push((id, deadline));
                        }
                        2 => {
                            let next = model.next(e);
                            assert_eq!(q.next(e).map(|&(id, _)| id), next);
                            assert_eq!(q.pop_next(e).map(|(id, _)| id), next);
                            if let Some(id) = next {
                                model.remove(id);
                            }
                        }
                        3 => {
                            let back = model.queues[e].pop();
                            assert_eq!(q.pop_back(e), back);
                        }
                        4 => {
                            let held = q.get(id).map(|(e, _)| e);
                            assert_eq!(q.remove(id).map(|(e, _)| e), held);
                            assert_eq!(model.remove(id), held);
                        }
                        5 if r.is_multiple_of(7) => {
                            assert_eq!(q.drain(e), std::mem::take(&mut model.queues[e]));
                        }
                        _ => {}
                    }
                    for (e, mq) in model.queues.iter().enumerate() {
                        assert_eq!(q.len(e), mq.len());
                        assert_eq!(q.is_empty(e), mq.is_empty());
                        assert!(q.iter(e).copied().eq(mq.iter().copied()));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn double_enqueue_panics() {
        let mut q = EngineQueues::new(2, 4, false);
        q.push(0, 1, 0, ());
        q.push(1, 1, 0, ());
    }
}
