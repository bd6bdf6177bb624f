//! Lock-free bounded MPMC ring recorder.
//!
//! The classic bounded-sequence queue (Vyukov): each slot carries a
//! sequence number that encodes whether it is free for the producer or
//! ready for the consumer of a given lap. Producers and consumers each
//! claim a position with one CAS; no locks, no allocation after
//! construction. When the ring is full the event is dropped and counted —
//! a telemetry layer must never stall the solve it is observing.

use crate::{Counter, Event, EventKind, Recorder};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<Event>>,
}

/// A lock-free, bounded, multi-producer multi-consumer event ring plus a
/// fixed array of atomic counters.
///
/// Capacity is rounded up to a power of two. When the ring is full, new
/// events are dropped (never blocking the recording thread) and the
/// [`Counter::EventsDropped`] counter is bumped.
pub struct RingRecorder {
    buf: Box<[Slot]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    counters: [AtomicU64; Counter::COUNT],
    epoch: Instant,
}

// SAFETY: slot access is mediated by the per-slot sequence protocol —
// a producer writes `value` only after winning the CAS on `enqueue_pos`
// for a slot whose sequence marks it empty, and publishes with a release
// store; a consumer reads only after observing that release.
unsafe impl Send for RingRecorder {}
unsafe impl Sync for RingRecorder {}

impl RingRecorder {
    /// Create a ring holding at least `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> RingRecorder {
        let cap = capacity.max(2).next_power_of_two();
        let buf: Box<[Slot]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        RingRecorder {
            buf,
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            epoch: Instant::now(),
        }
    }

    /// The ring's capacity in events.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Try to enqueue one event; returns `false` (and counts a drop) when
    /// the ring is full.
    fn push(&self, event: Event) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                if self
                    .enqueue_pos
                    .compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    // SAFETY: the CAS gives this thread exclusive write
                    // access to the slot for this lap.
                    unsafe { (*slot.value.get()).write(event) };
                    slot.seq.store(pos + 1, Ordering::Release);
                    return true;
                }
            } else if dif < 0 {
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Try to dequeue one event.
    fn pop(&self) -> Option<Event> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - (pos + 1) as isize;
            if dif == 0 {
                if self
                    .dequeue_pos
                    .compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    // SAFETY: the CAS gives this thread exclusive read
                    // access to the slot for this lap; the producer's
                    // release store made the write visible.
                    let event = unsafe { (*slot.value.get()).assume_init_read() };
                    slot.seq.store(pos + self.mask + 1, Ordering::Release);
                    return Some(event);
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Drain every currently buffered event, in queue order.
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }

    /// A point-in-time snapshot of all counters, indexed by
    /// [`Counter::index`].
    pub fn counters(&self) -> [u64; Counter::COUNT] {
        std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// Events dropped so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.counters[Counter::EventsDropped.index()].load(Ordering::Relaxed)
    }
}

impl Recorder for RingRecorder {
    fn record(&self, job: u64, kind: EventKind) {
        let event = Event {
            job,
            t_nanos: self.epoch.elapsed().as_nanos() as u64,
            kind,
        };
        if !self.push(event) {
            self.counters[Counter::EventsDropped.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn counter_add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn iteration(i: u32) -> EventKind {
        EventKind::IterationStart {
            iteration: i,
            at_cycle: u64::from(i) * 10,
        }
    }

    #[test]
    fn fifo_order_single_thread() {
        let ring = RingRecorder::new(8);
        for i in 0..5u32 {
            ring.record(0, iteration(i));
        }
        let events = ring.drain();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.kind, iteration(i as u32));
        }
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let ring = RingRecorder::new(4);
        for i in 0..10u32 {
            ring.record(0, iteration(i));
        }
        assert_eq!(ring.drain().len(), 4);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(RingRecorder::new(0).capacity(), 2);
        assert_eq!(RingRecorder::new(5).capacity(), 8);
        assert_eq!(RingRecorder::new(8).capacity(), 8);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let ring = Arc::new(RingRecorder::new(4096));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..512u32 {
                        ring.record(t, iteration(i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = ring.drain();
        assert_eq!(events.len(), 4 * 512);
        assert_eq!(ring.dropped(), 0);
        // Per-producer order is preserved.
        for job in 0..4u64 {
            let iters: Vec<u32> = events
                .iter()
                .filter(|e| e.job == job)
                .map(|e| match e.kind {
                    EventKind::IterationStart { iteration, .. } => iteration,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(iters, (0..512).collect::<Vec<_>>());
        }
    }

    #[test]
    fn counters_accumulate() {
        let ring = RingRecorder::new(4);
        ring.counter_add(Counter::CacheHits, 2);
        ring.counter_add(Counter::CacheHits, 3);
        assert_eq!(ring.counters()[Counter::CacheHits.index()], 5);
    }
}
