//! Bounded, thread-safe memoization of pure functions.
//!
//! The experiment drivers re-use the same workloads and `(model,
//! workload, hw)` simulation points many times across a suite. Both are
//! pure functions of their (stringified) keys, so recalling a cached
//! value is **bit-identical** to rebuilding it — the cache can only
//! change *speed*, never results. [`BoundedMemo`] enforces a hard entry
//! cap so a paper-scale run's memory stays bounded, with the two
//! policies the drivers need:
//!
//! * [`BoundedMemo::get_or_insert`] — clear-at-cap: when the map is
//!   full, it is emptied before the new entry is inserted (cheap entries
//!   that are re-derivable, e.g. simulation reports).
//! * [`BoundedMemo::insert_if_room`] — drop-past-cap: once full, new
//!   entries are simply not cached and callers keep the freshly built
//!   value (large entries where the early, cross-driver keys are the
//!   hot ones, e.g. workloads).
//!
//! Either way the map never holds more than `cap` entries.

use std::collections::HashMap;
use std::sync::Mutex;

/// A capacity-bounded `String → V` memo table behind a mutex.
#[derive(Debug)]
pub struct BoundedMemo<V> {
    cap: usize,
    map: Mutex<HashMap<String, V>>,
}

impl<V: Clone> BoundedMemo<V> {
    /// Creates an empty memo holding at most `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero (a zero-capacity memo would clear on
    /// every insert and cache nothing).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "memo capacity must be non-zero");
        BoundedMemo {
            cap,
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Clones the cached value for `key`, if any.
    pub fn get(&self, key: &str) -> Option<V> {
        self.map.lock().expect("memo poisoned").get(key).cloned()
    }

    /// Recalls `key` or runs `build` and caches the result, evicting
    /// (clearing) the whole table first when it is at capacity. `build`
    /// runs outside the lock, so concurrent misses on the same key may
    /// build twice — harmless for pure functions, whose results are
    /// identical.
    pub fn get_or_insert(&self, key: String, build: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = build();
        let mut guard = self.map.lock().expect("memo poisoned");
        if guard.len() >= self.cap {
            guard.clear();
        }
        guard.insert(key, v.clone());
        v
    }

    /// Caches `value` under `key` only if the table has room, returning
    /// whether it was stored. Existing entries are never evicted.
    pub fn insert_if_room(&self, key: String, value: V) -> bool {
        let mut guard = self.map.lock().expect("memo poisoned");
        if guard.contains_key(&key) {
            return true;
        }
        if guard.len() >= self.cap {
            return false;
        }
        guard.insert(key, value);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pure function under memoization in these tests.
    fn f(x: u64) -> u64 {
        x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD
    }

    /// Entries currently cached.
    fn entries(memo: &BoundedMemo<u64>) -> usize {
        memo.map.lock().expect("memo poisoned").len()
    }

    #[test]
    fn recalls_cached_value_without_rebuilding() {
        let memo = BoundedMemo::new(8);
        let mut builds = 0;
        let a = memo.get_or_insert("k".into(), || {
            builds += 1;
            f(7)
        });
        let b = memo.get_or_insert("k".into(), || {
            builds += 1;
            unreachable!("cached key must not rebuild")
        });
        assert_eq!(a, b);
        assert_eq!(builds, 1);
    }

    #[test]
    fn evicts_at_bound_and_never_exceeds_it() {
        let memo = BoundedMemo::new(4);
        for x in 0..13u64 {
            memo.get_or_insert(format!("{x}"), || f(x));
            assert!(
                entries(&memo) <= memo.cap,
                "len {} at x={x}",
                entries(&memo)
            );
        }
        // 13 inserts through cap 4: cleared at x=4, 8, 12 → one survivor.
        assert_eq!(entries(&memo), 1);
        assert_eq!(memo.get("12"), Some(f(12)));
        assert_eq!(memo.get("3"), None, "pre-eviction entries are gone");
    }

    #[test]
    fn results_identical_across_eviction() {
        // Every value returned through the memo — cached, rebuilt, or
        // recomputed after an eviction — must equal the pure function.
        let memo = BoundedMemo::new(3);
        let mut first_pass = Vec::new();
        for x in 0..10u64 {
            first_pass.push(memo.get_or_insert(format!("{x}"), || f(x)));
        }
        for x in 0..10u64 {
            let again = memo.get_or_insert(format!("{x}"), || f(x));
            assert_eq!(again, first_pass[x as usize]);
            assert_eq!(again, f(x));
        }
    }

    #[test]
    fn insert_if_room_stops_at_cap() {
        let memo = BoundedMemo::new(2);
        assert!(memo.insert_if_room("a".into(), 1));
        assert!(memo.insert_if_room("b".into(), 2));
        assert!(!memo.insert_if_room("c".into(), 3), "cap reached");
        // Existing keys survive and report success without eviction.
        assert!(memo.insert_if_room("a".into(), 99));
        assert_eq!(memo.get("a"), Some(1), "existing entry not overwritten");
        assert_eq!(memo.get("c"), None);
        assert_eq!(entries(&memo), 2);
    }

    #[test]
    fn shared_across_threads() {
        let memo = BoundedMemo::new(64);
        let out = crate::par_map_with(
            (0..256u64).collect(),
            |x| memo.get_or_insert(format!("{}", x % 16), || f(x % 16)),
            4,
        );
        for (x, v) in out.into_iter().enumerate() {
            assert_eq!(v, f(x as u64 % 16));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = BoundedMemo::<u64>::new(0);
    }
}
