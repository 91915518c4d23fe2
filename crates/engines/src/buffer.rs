//! Prefetch stream buffers.
//!
//! "A graph reader reads the … vertex indices and the corresponding edges.
//! From the edge information, the feature reader fetches the feature
//! vectors … Together, these modules feed the SIMD cores to continuously
//! process the aggregation without being stalled. Each module has a small
//! buffer to temporarily store prefetched values to avoid stalls from
//! upstream backpressure." (§III-B)
//!
//! [`StreamBuffer`] models such a producer→consumer FIFO at cycle
//! granularity: a producer with a fixed fill rate, a consumer draining on
//! demand, and occupancy/stall accounting. Used to size reader buffers
//! and verify the no-stall claim for balanced rates.

/// Occupancy and stall counters for a stream buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Cycles the consumer stalled on an empty buffer.
    pub consumer_stalls: u64,
    /// Cycles the producer stalled on a full buffer (backpressure).
    pub producer_stalls: u64,
    /// Items moved end to end.
    pub items: u64,
    /// Peak occupancy observed.
    pub peak_occupancy: usize,
}

/// A fixed-capacity producer/consumer FIFO with per-cycle accounting.
#[derive(Debug, Clone)]
pub struct StreamBuffer {
    capacity: usize,
    occupancy: usize,
    stats: BufferStats,
}

impl StreamBuffer {
    /// Creates an empty buffer holding up to `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be non-zero");
        StreamBuffer {
            capacity,
            occupancy: 0,
            stats: BufferStats::default(),
        }
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// One producer cycle attempting to push `items`; returns how many
    /// were accepted (the rest is backpressure).
    pub fn produce(&mut self, items: usize) -> usize {
        let space = self.capacity - self.occupancy;
        let accepted = items.min(space);
        if accepted < items {
            self.stats.producer_stalls += 1;
        }
        self.occupancy += accepted;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy);
        accepted
    }

    /// One consumer cycle attempting to pop `items`; returns how many were
    /// delivered (a shortfall is a consumer stall).
    pub fn consume(&mut self, items: usize) -> usize {
        let delivered = items.min(self.occupancy);
        if delivered < items {
            self.stats.consumer_stalls += 1;
        }
        self.occupancy -= delivered;
        self.stats.items += delivered as u64;
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `cycles` closed-loop cycles at constant producer and consumer
    /// rates (items per cycle) and returns the counters.
    fn run_rates(
        b: &mut StreamBuffer,
        produce_rate: usize,
        consume_rate: usize,
        cycles: u64,
    ) -> BufferStats {
        for _ in 0..cycles {
            b.produce(produce_rate);
            b.consume(consume_rate);
        }
        b.stats
    }

    #[test]
    fn balanced_rates_never_stall_after_warmup() {
        let mut b = StreamBuffer::new(8);
        b.produce(4); // warm-up fill
        let stats = run_rates(&mut b, 2, 2, 1000);
        assert_eq!(stats.consumer_stalls, 0);
        assert_eq!(stats.items, 2 * 1000);
    }

    #[test]
    fn slow_producer_starves_consumer() {
        let mut b = StreamBuffer::new(8);
        let stats = run_rates(&mut b, 1, 2, 100);
        assert!(stats.consumer_stalls > 50, "{stats:?}");
    }

    #[test]
    fn fast_producer_hits_backpressure() {
        let mut b = StreamBuffer::new(4);
        let stats = run_rates(&mut b, 3, 1, 100);
        assert!(stats.producer_stalls > 50, "{stats:?}");
        assert_eq!(stats.peak_occupancy, 4);
    }

    #[test]
    fn produce_consume_accounting() {
        let mut b = StreamBuffer::new(2);
        assert_eq!(b.produce(5), 2);
        assert_eq!(b.occupancy, 2);
        assert_eq!(b.consume(1), 1);
        assert_eq!(b.consume(5), 1);
        assert_eq!(b.stats.items, 2);
        assert_eq!(b.stats.consumer_stalls, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = StreamBuffer::new(0);
    }
}
