//! Thread-local recycling arena for `f32` workspace buffers.
//!
//! Every tensor op allocates its output buffer, and training allocates
//! thousands of short-lived tensors per minibatch (op outputs, gradients,
//! transposes). Round-tripping each of those through the global
//! allocator costs more than some of the kernels themselves. The arena
//! keeps dropped buffers in per-thread size-class freelists and hands
//! them back to the next allocation of a compatible size.
//!
//! # Design
//!
//! * **Size classes** are powers of two (in elements). [`alloc_raw`]
//!   rounds the request up to its class, so a recycled buffer's capacity
//!   always exactly matches its class and can serve any request in it.
//! * **Recycling is capacity-keyed.** [`recycle`] only retains buffers
//!   whose capacity is exactly a class size — i.e. buffers the arena
//!   itself handed out. Buffers built elsewhere (`Tensor::from_vec` with
//!   a caller-provided `Vec`) fall through to the normal allocator.
//! * **Bounded.** Each class keeps at most [`MAX_PER_CLASS`] buffers and
//!   the arena holds at most a per-thread byte cap in total (default
//!   `MAX_HELD_BYTES`; persistent pool workers lower theirs to
//!   [`WORKER_MAX_HELD_BYTES`] via [`set_held_cap`] so dozens of
//!   process-lifetime threads can't pin GiBs of freed buffers). Beyond
//!   the caps, buffers are simply freed. This bounds the high-water
//!   mark: steady-state training reuses the same few buffers per class
//!   instead of growing without limit (checked by the arena proptests).
//! * **Thread-local.** Worker threads recycle into their own arenas; a
//!   buffer allocated on one thread and dropped on another migrates — a
//!   plain `Vec` free/reuse either way, so no synchronization is needed.
//!
//! Recycling never touches buffer *contents*; [`alloc_raw`] returns
//! whatever values the previous owner left (callers must overwrite) and
//! [`alloc_filled`] overwrites with a fill value. Allocation is entirely
//! safe code: buffers are parked with whatever length they had when
//! dropped, and `truncate`/`resize` produce the requested length without
//! ever exposing uninitialized memory — a reuse writes at most the tail
//! beyond the parked length, and parking writes nothing.

use std::cell::RefCell;

/// Maximum buffers parked per size class.
const MAX_PER_CLASS: usize = 8;
/// Default cap on total bytes the arena will hold parked (per thread;
/// see [`set_held_cap`]).
const MAX_HELD_BYTES: usize = 128 << 20;
/// Held-bytes cap for persistent pool worker threads. Workers live for
/// the life of the process and there can be dozens of them; at the
/// default cap a long-lived many-core process could pin several GiB of
/// freed buffers forever. Workers only recycle row chunks, so a small
/// cap costs nothing — `stod_tensor::par` applies it at worker startup
/// via [`set_held_cap`].
pub const WORKER_MAX_HELD_BYTES: usize = 8 << 20;
/// Number of power-of-two size classes (class `c` holds `2^c` elements);
/// requests above `2^(NUM_CLASSES-1)` elements are never recycled.
const NUM_CLASSES: usize = 27;

/// Counters exposed for the arena property tests and the bench probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes currently parked in freelists on this thread.
    pub held_bytes: usize,
    /// Largest `held_bytes` ever observed on this thread.
    pub high_water_bytes: usize,
    /// Allocations served from a recycled buffer.
    pub reuses: u64,
    /// Allocations that had to hit the global allocator.
    pub fresh: u64,
    /// Bytes those fresh allocations asked the global allocator for (a
    /// managed request's whole size class).
    pub fresh_bytes: u64,
}

impl ArenaStats {
    /// Counts one fresh allocation of `len` elements.
    fn count_fresh(&mut self, len: usize) {
        self.fresh += 1;
        self.fresh_bytes += 4 * len as u64;
    }
}

struct Arena {
    classes: Vec<Vec<Vec<f32>>>,
    stats: ArenaStats,
    /// This thread's cap on parked bytes ([`MAX_HELD_BYTES`] unless
    /// lowered by [`set_held_cap`]).
    held_cap: usize,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            classes: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
            stats: ArenaStats::default(),
            held_cap: MAX_HELD_BYTES,
        }
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::new());
}

/// Size class for a request of `len` elements: the smallest power of two
/// `>= len` (minimum 64 elements so tiny tensors share a class), or
/// `None` when the request is too large to manage.
fn class_of(len: usize) -> Option<usize> {
    let cap = len.max(64).next_power_of_two();
    let c = cap.trailing_zeros() as usize;
    (c < NUM_CLASSES).then_some(c)
}

/// A buffer of exactly `len` elements with **arbitrary existing
/// contents** (never uninitialized memory). Use when every element will
/// be overwritten before it is read.
pub fn alloc_raw(len: usize) -> Vec<f32> {
    let Some(c) = class_of(len) else {
        ARENA.with(|a| a.borrow_mut().stats.count_fresh(len));
        return vec![0.0; len];
    };
    let cap = 1usize << c;
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        if let Some(mut buf) = a.classes[c].pop() {
            a.stats.held_bytes -= 4 * buf.capacity();
            a.stats.reuses += 1;
            if buf.len() >= len {
                buf.truncate(len);
            } else {
                buf.resize(len, 0.0);
            }
            buf
        } else {
            a.stats.count_fresh(cap);
            let mut buf = Vec::with_capacity(cap);
            buf.resize(len, 0.0);
            buf
        }
    })
}

/// A buffer of `len` elements filled with `value`.
pub fn alloc_filled(len: usize, value: f32) -> Vec<f32> {
    let Some(c) = class_of(len) else {
        ARENA.with(|a| a.borrow_mut().stats.count_fresh(len));
        return vec![value; len];
    };
    let cap = 1usize << c;
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        if let Some(mut buf) = a.classes[c].pop() {
            a.stats.held_bytes -= 4 * buf.capacity();
            a.stats.reuses += 1;
            buf.clear();
            buf.resize(len, value);
            buf
        } else {
            a.stats.count_fresh(cap);
            let mut buf = Vec::with_capacity(cap);
            buf.resize(len, value);
            buf
        }
    })
}

/// Parks `buf` for reuse if its capacity is exactly a managed class size
/// and the caps allow; otherwise frees it normally.
pub fn recycle(buf: Vec<f32>) {
    let cap = buf.capacity();
    if cap < 64 || !cap.is_power_of_two() {
        return;
    }
    let c = cap.trailing_zeros() as usize;
    if c >= NUM_CLASSES {
        return;
    }
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        if a.classes[c].len() >= MAX_PER_CLASS || a.stats.held_bytes + 4 * cap > a.held_cap {
            return;
        }
        // Parked as-is: the next alloc truncates or zero-extends from the
        // parked length, so parking itself never writes the buffer.
        a.stats.held_bytes += 4 * cap;
        a.stats.high_water_bytes = a.stats.high_water_bytes.max(a.stats.held_bytes);
        a.classes[c].push(buf);
    });
}

/// Caps the bytes this thread's arena may hold parked, freeing already-
/// parked buffers (largest classes first) until holdings fit the new
/// cap. Long-lived pool workers call this at startup with
/// [`WORKER_MAX_HELD_BYTES`] so their arenas never pin the full
/// per-thread budget for the life of the process.
pub fn set_held_cap(bytes: usize) {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.held_cap = bytes;
        let mut c = NUM_CLASSES;
        while a.stats.held_bytes > bytes && c > 0 {
            c -= 1;
            while a.stats.held_bytes > bytes {
                match a.classes[c].pop() {
                    Some(buf) => a.stats.held_bytes -= 4 * buf.capacity(),
                    None => break,
                }
            }
        }
    });
}

/// This thread's arena counters.
pub fn stats() -> ArenaStats {
    ARENA.with(|a| a.borrow().stats)
}

/// Frees every parked buffer and zeroes `held_bytes` (counters for
/// reuse/fresh/high-water are kept). Test helper.
pub fn drain() {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        for class in &mut a.classes {
            class.clear();
        }
        a.stats.held_bytes = 0;
    });
}

/// Resets all counters *and* frees parked buffers. Test helper.
pub fn reset_stats() {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        for class in &mut a.classes {
            class.clear();
        }
        a.stats = ArenaStats::default();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_buffer() {
        reset_stats();
        let a = alloc_raw(100);
        let p = a.as_ptr();
        recycle(a);
        let b = alloc_raw(70); // same class (128)
        assert_eq!(b.as_ptr(), p, "same-class request must reuse the buffer");
        assert_eq!(b.len(), 70);
        assert_eq!(stats().reuses, 1);
        assert_eq!(stats().fresh, 1);
        assert_eq!(stats().fresh_bytes, 4 * 128, "a fresh buffer is its class");
        reset_stats();
    }

    #[test]
    fn reuse_extends_shorter_parked_buffer() {
        reset_stats();
        let a = alloc_raw(70);
        let p = a.as_ptr();
        recycle(a); // parked at len 70, capacity 128
        let b = alloc_raw(100); // same class, longer than parked len
        assert_eq!(b.as_ptr(), p);
        assert_eq!(b.len(), 100);
        assert!(b[70..].iter().all(|&x| x == 0.0), "extension is zeroed");
        reset_stats();
    }

    #[test]
    fn foreign_buffers_are_not_recycled() {
        reset_stats();
        let v = Vec::with_capacity(100); // not a power of two
        recycle(v);
        assert_eq!(stats().held_bytes, 0);
        reset_stats();
    }

    #[test]
    fn held_bytes_is_capped_per_class() {
        reset_stats();
        let bufs: Vec<_> = (0..2 * MAX_PER_CLASS).map(|_| alloc_raw(1000)).collect();
        for b in bufs {
            recycle(b);
        }
        assert_eq!(stats().held_bytes, MAX_PER_CLASS * 1024 * 4);
        reset_stats();
    }

    #[test]
    fn filled_alloc_overwrites_recycled_contents() {
        reset_stats();
        let mut a = alloc_raw(64);
        a.fill(7.0);
        recycle(a);
        let b = alloc_filled(64, 0.0);
        assert!(b.iter().all(|&x| x == 0.0));
        reset_stats();
    }

    #[test]
    fn set_held_cap_trims_parked_buffers_and_caps_future_recycles() {
        reset_stats();
        let bufs: Vec<_> = (0..4).map(|_| alloc_raw(1 << 20)).collect(); // 4 MiB each
        for b in bufs {
            recycle(b);
        }
        assert_eq!(stats().held_bytes, 16 << 20);
        set_held_cap(9 << 20);
        assert!(stats().held_bytes <= 9 << 20, "existing holdings trimmed");
        recycle(alloc_raw(1 << 20)); // would push holdings to 12 MiB
        assert!(stats().held_bytes <= 9 << 20, "over-cap recycle refused");
        set_held_cap(MAX_HELD_BYTES);
        reset_stats();
    }

    #[test]
    fn oversized_requests_fall_through() {
        let n = 1usize << NUM_CLASSES;
        assert!(class_of(n + 1).is_none());
        let v = alloc_raw(10); // sanity: small path still works
        assert_eq!(v.len(), 10);
        recycle(v);
        drain();
    }
}
