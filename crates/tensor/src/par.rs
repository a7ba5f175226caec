//! Deterministic scoped worker pool for the workspace's tensor/graph hot
//! paths.
//!
//! # The determinism contract
//!
//! Every kernel routed through this module produces **bitwise identical**
//! results at any thread count, including the exact-serial fallback
//! (`STOD_THREADS=1`). Two rules make that hold:
//!
//! 1. **The unit of work never depends on the thread count.** Work is cut
//!    either per independent output row/item (matmul rows, batched-matmul
//!    items — each element is computed by the same serial inner loop
//!    regardless of which thread runs it), or into fixed-size blocks from
//!    [`grain_blocks`], whose boundaries depend only on the problem size.
//! 2. **Reductions happen in a fixed order.** When block results must be
//!    combined (gradient shards, metric accumulators), the caller collects
//!    per-block partials with [`map`] — which returns them in block order —
//!    and folds them sequentially on the calling thread. Threads never
//!    accumulate into shared state.
//!
//! Floating-point addition is not associative, so rule 2 is what keeps
//! `STOD_THREADS=4` from drifting away from `STOD_THREADS=1`; rule 1 is
//! what keeps block boundaries from drifting when the machine changes.
//!
//! # Sizing
//!
//! The pool size is resolved per call as: thread-local override (set by
//! [`with_threads`] / [`with_forced_threads`], used by tests and by pool
//! workers to keep nested kernels serial) → `STOD_THREADS` → available
//! cores. Fan-out dispatches onto a **persistent worker pool**: workers
//! are spawned once (lazily, on first use) and parked on a shared queue,
//! so a dispatch costs a queue push + wake instead of a thread spawn.
//! The dispatching thread blocks until every task of its batch has
//! completed — helping drain the queue while it waits, and doing the
//! same on its own unwind path — so borrowed operands need no `Arc` and
//! panics propagate to the caller without ever outliving the operands.
//!
//! During a fan-out, *all* participating threads (the caller included)
//! run nested kernels serial: the batch is already using every thread
//! the caller was entitled to, so a nested fan-out could only
//! oversubscribe the machine.
//!
//! Small operations are not worth even a pool dispatch; kernels gate on
//! [`should_parallelize`] with an approximate scalar-op count. The gate
//! only affects *where* code runs, never *what* it computes, so crossing
//! the threshold cannot change results.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
// Pool locks ignore poisoning. Pool state is only mutated in panic-free
// critical sections (queue push/pop, counter updates, payload pushes), so
// a poisoned lock's data is still consistent — and the batch guard must be
// able to drain the queue and wait on the latch while its thread is
// *already unwinding*, where a poison panic would abort.
use stod_obs::sync::lock;

/// Minimum approximate scalar-op count before a kernel fans out.
///
/// A pool dispatch costs a few microseconds of queueing and wakeup; below
/// ~256k multiply-adds the serial kernel finishes before the workers
/// would. (The old per-call-spawn pool used 1<<16; the persistent pool
/// cut the dispatch cost but the blocked GEMM kernels cut per-op runtime
/// further, so the break-even point moved *up*.)
pub const MIN_PARALLEL_WORK: usize = 1 << 18;

thread_local! {
    /// Per-thread override of the pool size. `None` defers to the
    /// environment; pool worker threads set `Some(1)` so nested kernels
    /// stay serial instead of oversubscribing the machine.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// When set, [`should_parallelize`] ignores the work threshold. Used
    /// by tests that must drive tiny operands through the parallel path.
    static FORCE_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Pool size from the environment: `STOD_THREADS` if set (must be a
/// positive integer; `1` selects the exact serial fallback), otherwise the
/// number of available cores.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("STOD_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("STOD_THREADS must be a positive integer, got {v:?}")),
        Err(_) => std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// The thread count kernels will use on this thread right now.
pub fn num_threads() -> usize {
    THREAD_OVERRIDE.with(Cell::get).unwrap_or_else(env_threads)
}

/// Restores the previous override (and force flag) on drop, so overrides
/// nest and survive panics.
struct OverrideGuard {
    prev_threads: Option<usize>,
    prev_force: bool,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.prev_threads));
        FORCE_PARALLEL.with(|c| c.set(self.prev_force));
    }
}

fn push_override(threads: Option<usize>, force: bool) -> OverrideGuard {
    let guard = OverrideGuard {
        prev_threads: THREAD_OVERRIDE.with(Cell::get),
        prev_force: FORCE_PARALLEL.with(Cell::get),
    };
    if let Some(n) = threads {
        THREAD_OVERRIDE.with(|c| c.set(Some(n)));
    }
    FORCE_PARALLEL.with(|c| c.set(force));
    guard
}

/// Runs `f` with the pool pinned to `n` threads on this thread (nested
/// kernels included, unless they spawn — workers always run serial).
///
/// # Panics
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be ≥ 1");
    let _guard = push_override(Some(n), FORCE_PARALLEL.with(Cell::get));
    f()
}

/// Like [`with_threads`] but also disables the work-size threshold, so
/// even tiny operands take the parallel path. Test-only in spirit: it
/// exists so determinism tests genuinely execute on `n` threads instead of
/// being waved through by the small-op gate.
pub fn with_forced_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be ≥ 1");
    let _guard = push_override(Some(n), true);
    f()
}

/// Logical CPUs available to the process (cached). This is
/// `available_parallelism`, which honors cgroup/affinity limits but
/// counts SMT siblings as separate CPUs — it is *not* a physical-core
/// count, and a 1-core/2-hyperthread host reports 2 here.
fn host_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Whether a kernel with roughly `work` scalar operations should fan out.
///
/// Besides the work threshold, this respects the host: when the process
/// has only one logical CPU available ([`host_threads`]), a fan-out can
/// only timeshare it and thrash its caches, so `STOD_THREADS=2` there
/// runs the same serial schedule as `STOD_THREADS=1` (bitwise-identical
/// results either way — the gate is scheduling-only by contract).
/// [`with_forced_threads`] still forces the parallel path so determinism
/// tests exercise it everywhere.
pub fn should_parallelize(work: usize) -> bool {
    num_threads() > 1
        && (FORCE_PARALLEL.with(Cell::get) || (host_threads() > 1 && work >= MIN_PARALLEL_WORK))
}

/// Splits `0..n` into `parts` contiguous, balanced, in-order ranges
/// (fewer when `n < parts`; empty when `n == 0`).
///
/// Used for *scheduling only*: each range is a set of independent work
/// units, so the split may depend on the thread count without affecting
/// results.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n);
    let mut out = Vec::with_capacity(parts);
    // parts == 0 only when n == 0, in which case no ranges are emitted.
    let q = n.checked_div(parts).unwrap_or(0);
    let r = n.checked_rem(parts).unwrap_or(0);
    let mut start = 0;
    for i in 0..parts {
        let len = q + usize::from(i < r);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `0..n` into fixed blocks of at most `grain` elements.
///
/// Unlike [`chunk_ranges`] the boundaries depend only on `(n, grain)` —
/// never on the thread count — so block-local reductions (e.g. per-shard
/// gradient sums) are reproducible on any machine at any `STOD_THREADS`.
///
/// # Panics
/// Panics if `grain == 0`.
pub fn grain_blocks(n: usize, grain: usize) -> Vec<Range<usize>> {
    assert!(grain >= 1, "grain must be ≥ 1");
    (0..n.div_ceil(grain))
        .map(|b| b * grain..((b + 1) * grain).min(n))
        .collect()
}

/// Pairs each range with the slice of `buf` covering
/// `range.len() * stride` elements, consuming `buf` front to back.
fn split_by_ranges<'a, T>(
    mut buf: &'a mut [T],
    ranges: &[Range<usize>],
    stride: usize,
) -> Vec<(Range<usize>, &'a mut [T])> {
    let mut pairs = Vec::with_capacity(ranges.len());
    for range in ranges {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(range.len() * stride);
        buf = tail;
        pairs.push((range.clone(), head));
    }
    pairs
}

/// One unit of dispatched work: the erased task closure plus the batch
/// latch it reports completion (or its panic payload) to.
struct Job {
    task: Box<dyn FnOnce() + Send>,
    latch: Arc<Latch>,
    queued_at: Option<std::time::Instant>,
}

impl Job {
    /// Runs the task pinned serial (nested kernels must not fan out) and
    /// signals the batch latch, capturing a panic payload instead of
    /// unwinding through the worker.
    fn run(self) {
        if let Some(q) = self.queued_at {
            stod_obs::observe_ns("pool/queue_wait_ns", q.elapsed().as_nanos() as u64);
        }
        let _serial = push_override(Some(1), false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(self.task));
        if let Err(payload) = result {
            lock(&self.latch.panics).push(payload);
        }
        self.latch.done();
    }
}

/// Completion latch for one dispatched batch.
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
    panics: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Arc<Latch> {
        Arc::new(Latch {
            remaining: Mutex::new(count),
            cv: Condvar::new(),
            panics: Mutex::new(Vec::new()),
        })
    }

    fn done(&self) {
        let mut rem = lock(&self.remaining);
        *rem -= 1;
        if *rem == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut rem = lock(&self.remaining);
        while *rem > 0 {
            rem = self
                .cv
                .wait(rem)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The persistent pool: a shared injector queue and the number of worker
/// threads spawned so far. Workers are started lazily as batches demand
/// them and then live for the life of the process, parked on the queue.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    spawned: Mutex<usize>,
}

/// Upper bound on pool workers — far above any sane `STOD_THREADS`, it
/// only guards against a runaway configuration.
const MAX_WORKERS: usize = 64;

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        cv: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Makes sure at least `wanted` workers exist, spawning any missing ones.
fn ensure_workers(p: &'static Pool, wanted: usize) {
    let wanted = wanted.min(MAX_WORKERS);
    let mut spawned = p.spawned.lock().unwrap();
    while *spawned < wanted {
        std::thread::Builder::new()
            .name(format!("stod-pool-{spawned}"))
            .spawn(move || worker_loop(p))
            .expect("spawn pool worker");
        *spawned += 1;
    }
}

fn worker_loop(p: &'static Pool) {
    // Workers live for the life of the process and there can be up to
    // MAX_WORKERS of them; cap their workspace arenas so parked buffers
    // can't pin GiBs across a long-lived many-core process.
    crate::arena::set_held_cap(crate::arena::WORKER_MAX_HELD_BYTES);
    loop {
        let job = {
            let mut q = p.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = p.cv.wait(q).unwrap();
            }
        };
        job.run();
    }
}

/// Blocks until a batch's jobs have all completed, on the normal return
/// path *and on unwind*. Created immediately after the batch is
/// enqueued: the jobs hold `'static`-transmuted borrows of the kernel
/// closure and the output chunks, both living in [`run_chunked`]'s
/// callers' frames, so those frames must not be torn down — not even by
/// a panicking lead-chunk call — while any job is pending or running.
/// This guard is what upholds the SAFETY comment on the transmute.
struct BatchGuard<'a> {
    pool: &'static Pool,
    latch: &'a Latch,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        // Help drain pending jobs (ours or a concurrent batch's) instead
        // of sleeping — on a saturated machine the caller is a worker
        // too. `Job::run` captures panics in the latch rather than
        // unwinding, and the locks tolerate poisoning, so this cannot
        // panic out of a destructor that may already be unwinding.
        loop {
            let job = lock(&self.pool.queue).pop_front();
            match job {
                Some(job) => job.run(),
                None => break,
            }
        }
        self.latch.wait();
    }
}

/// Runs `(range, chunk)` pairs across the pool: pairs `1..` as queued
/// jobs on the persistent workers (pinned serial so nested kernels don't
/// oversubscribe), pair `0` on the calling thread — also pinned serial,
/// since the batch already occupies the caller's thread budget. Blocks —
/// helping drain the queue — until every job completed, then propagates
/// the first captured panic; if the lead-chunk call itself panics, the
/// unwind likewise waits for the whole batch before leaving this frame.
fn run_chunked<T, F>(pairs: Vec<(Range<usize>, &mut [T])>, f: &F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    // Observability (armed only): fan-out count, tasks dispatched, and
    // per-job queue wait — enqueue-to-start latency, the pool's analogue
    // of time spent sitting in a run queue. Probes never touch operands.
    let armed = stod_obs::armed();
    if armed {
        stod_obs::count("pool/fanouts", 1);
        stod_obs::count("pool/tasks", pairs.len() as u64);
    }
    let mut pairs = pairs.into_iter();
    let (lead_range, lead_chunk) = pairs.next().expect("at least one chunk");
    let latch = Latch::new(pairs.len());
    let p = pool();
    ensure_workers(p, pairs.len());
    {
        let mut q = lock(&p.queue);
        for (range, chunk) in pairs {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || f(range, chunk));
            // SAFETY: `run_chunked` cannot return *or unwind* until every
            // job of this batch has completed — the `BatchGuard` created
            // right below drains the queue and blocks on the batch latch
            // in its destructor — so the borrows of `f` and the output
            // chunks captured by `task` outlive its execution even when
            // the lead-chunk call panics.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
            q.push_back(Job {
                task,
                latch: Arc::clone(&latch),
                queued_at: armed.then(std::time::Instant::now),
            });
        }
        p.cv.notify_all();
    }
    let guard = BatchGuard {
        pool: p,
        latch: &latch,
    };
    {
        let _serial = push_override(Some(1), false);
        f(lead_range, lead_chunk);
    }
    // Normal path: run the guard's drain-and-wait now; the unwind path
    // runs the same drop when `f` panics above.
    drop(guard);
    let payload = lock(&latch.panics).pop();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Splits the `rows × row_len` buffer `out` into contiguous row chunks and
/// runs `f(row_range, chunk)` for each, fanning chunks across the pool.
///
/// `f` must compute each output row identically regardless of which chunk
/// it lands in — then the result is bitwise identical at any thread
/// count, because chunk boundaries only decide *where* a row is computed.
/// Falls back to one serial call `f(0..rows, out)` when the pool has one
/// thread (or `rows <= 1`).
pub fn for_each_row_chunk<F>(out: &mut [f32], rows: usize, row_len: usize, f: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), rows * row_len);
    let threads = num_threads().min(rows);
    if threads <= 1 {
        f(0..rows, out);
        return;
    }
    let ranges = chunk_ranges(rows, threads);
    run_chunked(split_by_ranges(out, &ranges, row_len), &f);
}

/// Applies `f(index)` for `0..n` and returns the results **in index
/// order**, fanning out across the pool.
///
/// Each index must be an independent unit of work; any cross-index
/// reduction belongs in the caller, folded over the returned `Vec` (that
/// fixed fold order is what keeps reductions deterministic). Note the
/// caller decides *whether* to parallelize (via [`should_parallelize`])
/// before reaching for this; `map` itself only falls back to serial when
/// the pool has a single thread.
pub fn map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = num_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let ranges = chunk_ranges(n, threads);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    run_chunked(
        split_by_ranges(&mut out, &ranges, 1),
        &|range: Range<usize>, chunk: &mut [Option<T>]| {
            for (slot, i) in chunk.iter_mut().zip(range) {
                *slot = Some(f(i));
            }
        },
    );
    out.into_iter().map(|v| v.expect("slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_in_order() {
        for n in [0usize, 1, 2, 7, 16, 100] {
            for parts in [1usize, 2, 3, 4, 9] {
                let ranges = chunk_ranges(n, parts);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
                if n > 0 {
                    let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(hi - lo <= 1, "unbalanced: {lens:?}");
                }
            }
        }
    }

    #[test]
    fn grain_blocks_are_thread_count_independent() {
        let blocks = grain_blocks(19, 8);
        assert_eq!(blocks, vec![0..8, 8..16, 16..19]);
        assert_eq!(grain_blocks(0, 8), Vec::<Range<usize>>::new());
        assert_eq!(grain_blocks(8, 8), vec![0..8]);
    }

    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let serial: Vec<usize> = with_forced_threads(1, || map(23, |i| i * i));
        for t in [2, 3, 4, 8] {
            let par: Vec<usize> = with_forced_threads(t, || map(23, |i| i * i));
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn for_each_row_chunk_matches_serial() {
        let rows = 13;
        let row_len = 5;
        let fill = |range: Range<usize>, chunk: &mut [f32]| {
            for (local, row) in range.enumerate() {
                for c in 0..row_len {
                    chunk[local * row_len + c] = (row * row_len + c) as f32 * 0.5;
                }
            }
        };
        let mut serial = vec![0.0f32; rows * row_len];
        with_forced_threads(1, || for_each_row_chunk(&mut serial, rows, row_len, fill));
        for t in [2, 4, 7] {
            let mut par = vec![0.0f32; rows * row_len];
            with_forced_threads(t, || for_each_row_chunk(&mut par, rows, row_len, fill));
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn overrides_nest_and_restore() {
        let outer = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(2, || assert_eq!(num_threads(), 2));
            assert_eq!(num_threads(), 3);
            assert!(!should_parallelize(1));
            with_forced_threads(4, || assert!(should_parallelize(1)));
            assert!(!should_parallelize(1));
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn all_fanout_participants_run_nested_kernels_serial() {
        // The batch already holds every thread the caller was entitled
        // to, so the caller's lead chunk is pinned serial exactly like
        // the pool workers — a nested fan-out could only oversubscribe.
        let nested: Vec<usize> = with_forced_threads(4, || {
            let nested = map(4, |_| num_threads());
            assert_eq!(num_threads(), 4, "override restored after the fan-out");
            nested
        });
        assert_eq!(nested, vec![1, 1, 1, 1], "every participant serial");
    }

    #[test]
    fn lead_chunk_panic_waits_for_in_flight_workers() {
        // Index 0 lands on the *calling* thread's lead chunk; the worker
        // chunks sleep so they are still writing their (borrowed) output
        // slots when the lead panics. The unwind must block until the
        // batch completes — otherwise the workers would scribble on a
        // freed stack frame — and the pool must stay usable afterwards.
        let r = std::panic::catch_unwind(|| {
            with_forced_threads(4, || {
                map(8, |i| {
                    if i == 0 {
                        panic!("lead chunk panics first");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    i
                })
            })
        });
        assert!(r.is_err());
        let v: Vec<usize> = with_forced_threads(4, || map(8, |i| i + 1));
        assert_eq!(v, (1..=8).collect::<Vec<_>>(), "pool survives the unwind");
    }

    #[test]
    fn map_propagates_worker_panics() {
        let r = std::panic::catch_unwind(|| {
            with_forced_threads(2, || {
                map(8, |i| {
                    assert!(i < 6, "intentional");
                    i
                })
            })
        });
        assert!(r.is_err());
    }
}
