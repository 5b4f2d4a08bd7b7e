//! A lock-free single-producer/single-consumer ring buffer.
//!
//! The columnar dataplane's coordinator/shard channel: one bounded ring per
//! (coordinator → shard) and (shard → coordinator) edge, each with exactly
//! one producer and one consumer, so the fast path is two atomic loads, a
//! slot write, and one release store — no mutex, no syscall, no allocation.
//!
//! The design is the classic Lamport queue: `head` and `tail` are
//! monotonically increasing counters (indices modulo capacity pick the
//! slot). The producer owns `tail`, the consumer owns `head`; each reads
//! the other's counter with `Acquire` to bound the visible region and
//! publishes its own with `Release` after touching the slot. Either side
//! may `close` the ring to make the other side's blocking loop exit.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    /// Next slot to pop; written only by the consumer.
    head: AtomicUsize,
    /// Next slot to push; written only by the producer.
    tail: AtomicUsize,
    closed: AtomicBool,
}

// SAFETY: the ring hands each value from exactly one thread to exactly one
// other thread; a slot is written strictly before the release store of `tail`
// that makes it visible, and read strictly after the acquire load of `tail`
// that observed it, so no `&UnsafeCell` slot is ever accessed unsynchronized
// from two threads. `rld_analysis::ringmodel` exhaustively model-checks this
// protocol (every interleaving, including stale counter reads).
unsafe impl<T: Send> Sync for Ring<T> {}
// SAFETY: all fields are `Send` when `T` is; ownership of buffered values
// moves with the ring.
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Sole owner now: drop whatever was pushed but never popped.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut i = head;
        while i != tail {
            // SAFETY: `&mut self` proves exclusive access, and every slot in
            // [head, tail) was initialized by a completed `try_push` whose
            // value was never popped (pops advance `head` past it).
            unsafe { (*self.buf[i % self.cap].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Create a bounded SPSC ring of the given capacity, returning the two
/// endpoints. Each endpoint is `Send` but not `Clone` — one producer, one
/// consumer, by construction.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    let ring = Arc::new(Ring {
        buf: (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        cap: capacity,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

/// The producing endpoint of an SPSC [`ring`].
pub struct Producer<T: Send> {
    ring: Arc<Ring<T>>,
}

/// The consuming endpoint of an SPSC [`ring`].
pub struct Consumer<T: Send> {
    ring: Arc<Ring<T>>,
}

impl<T: Send> Producer<T> {
    /// Try to push; gives the value back when the ring is full or closed.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let r = &*self.ring;
        if r.closed.load(Ordering::Acquire) {
            return Err(value);
        }
        let tail = r.tail.load(Ordering::Relaxed);
        let head = r.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == r.cap {
            return Err(value);
        }
        // SAFETY: sole producer, so `tail` is stable; `tail - head < cap`
        // (checked above against an acquire-loaded `head`) proves the slot
        // is free — the consumer finished reading it before releasing the
        // `head` value we observed — and the consumer cannot touch it until
        // the release store below publishes the write.
        unsafe { (*r.buf[tail % r.cap].get()).write(value) };
        r.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Push, spinning (with yields) while the ring is full — the
    /// backpressure seam. Fails only when the ring was closed, giving the
    /// value back.
    pub fn push_blocking(&self, mut value: T) -> Result<(), T> {
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(v) => {
                    if self.ring.closed.load(Ordering::Acquire) {
                        return Err(v);
                    }
                    value = v;
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Close the ring: subsequent pushes fail, the consumer can still drain
    /// what was already in flight.
    pub fn close(&self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl<T: Send> Drop for Producer<T> {
    fn drop(&mut self) {
        // Hang-up semantics, like dropping an `mpsc` sender: a consumer
        // blocked polling an abandoned ring must see it closed.
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl<T: Send> Consumer<T> {
    /// Pop the oldest value, if any.
    pub fn try_pop(&self) -> Option<T> {
        let r = &*self.ring;
        let head = r.head.load(Ordering::Relaxed);
        let tail = r.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: sole consumer, so `head` is stable; `head != tail` with an
        // acquire-loaded `tail` proves the producer's write of this slot
        // happened-before this read, and the producer will not reuse the slot
        // until the release store below publishes that the read finished.
        let value = unsafe { (*r.buf[head % r.cap].get()).assume_init_read() };
        r.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Whether the producing side closed the ring (values may still be
    /// buffered — drain with [`Self::try_pop`] until `None`).
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }

    /// Close the ring from the consuming side (shutdown signal to a
    /// blocked producer).
    pub fn close(&self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl<T: Send> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_preserves_fifo_order() {
        let (tx, rx) = ring::<u32>(4);
        assert!(rx.try_pop().is_none());
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        // Full: the value bounces back.
        assert_eq!(tx.try_push(99), Err(99));
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert!(rx.try_pop().is_none());
        // Wrap around the physical buffer.
        for round in 0..10u32 {
            tx.try_push(round).unwrap();
            assert_eq!(rx.try_pop(), Some(round));
        }
    }

    #[test]
    fn closed_ring_rejects_pushes_but_drains() {
        let (tx, rx) = ring::<u32>(4);
        tx.try_push(1).unwrap();
        tx.close();
        assert_eq!(tx.try_push(2), Err(2));
        assert_eq!(tx.push_blocking(3), Err(3));
        assert!(rx.is_closed());
        assert_eq!(rx.try_pop(), Some(1));
        assert!(rx.try_pop().is_none());
    }

    #[test]
    fn ring_transfers_across_threads_under_backpressure() {
        const N: u64 = 100_000;
        let (tx, rx) = ring::<u64>(8);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..N {
                    tx.push_blocking(i).unwrap();
                }
            });
            let mut next = 0u64;
            while next < N {
                if let Some(v) = rx.try_pop() {
                    assert_eq!(v, next);
                    next += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
    }

    #[test]
    fn dropping_the_ring_drops_undrained_values() {
        let counter = Arc::new(());
        let (tx, rx) = ring::<Arc<()>>(4);
        // One popped, two left in the ring (one of them past a wrap).
        tx.try_push(Arc::clone(&counter)).unwrap();
        tx.try_push(Arc::clone(&counter)).unwrap();
        assert!(rx.try_pop().is_some());
        tx.try_push(Arc::clone(&counter)).unwrap();
        assert_eq!(Arc::strong_count(&counter), 3);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&counter), 1);
    }
}
