//! Thread-count resolution, the scoped parallel map, and the persistent
//! worker pool (no external crates).
//!
//! Thread count resolution (first match wins):
//!
//! 1. [`set_threads`] — a process-wide programmatic override (`1` forces the
//!    serial path, used by benches to measure the serial/parallel ratio);
//! 2. the `TCNI_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! Two execution primitives share that resolution:
//!
//! * [`par_map`] — fan independent whole jobs (Table-1 cells, sweep points)
//!   over scoped threads; jobs are coarse, so spawning per call is fine;
//! * [`run_tasks`] — run one short fork/join region (a machine-cycle phase)
//!   over a *persistent* pool. The region is microseconds long and fires
//!   hundreds of thousands of times per run, so workers are spawned once
//!   and rendezvous at cycle boundaries by spinning briefly on a lock-free
//!   epoch hint before parking on a condvar (the spin bound is `SPIN_ITERS`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Process-wide override; 0 = resolve automatically.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for all subsequent [`par_map`]/[`run_tasks`]
/// calls in this process. `1` forces serial in-place execution (no threads
/// spawned); `0` restores automatic resolution.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count [`par_map`] and [`run_tasks`] would use right now.
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    if let Ok(s) = std::env::var("TCNI_THREADS") {
        if let Ok(n) = s.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Contiguous partition of `0..len` into (at most) `parts` near-equal
/// ranges: returns ascending boundaries `b` with `b[0] == 0`,
/// `b[last] == len`, and domain `d` covering `b[d]..b[d + 1]`. With
/// `len < parts` the partition degrades to one-element domains; `parts == 0`
/// is treated as 1.
pub fn domain_bounds(len: usize, parts: usize) -> Vec<usize> {
    let parts = parts.clamp(1, len.max(1));
    (0..=parts).map(|k| k * len / parts).collect()
}

/// Applies `f` to every item, in parallel, returning results in input order.
///
/// Work is distributed dynamically (a shared queue), so unevenly-sized items
/// — e.g. the six Table-1 models, whose handler programs differ in length —
/// balance across workers. With one worker (or one item) it degrades to a
/// plain serial map with no thread spawned, which is the tested fallback for
/// single-core hosts.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // A LIFO queue of (index, item); results carry the index back so the
    // output preserves input order regardless of completion order.
    let queue = Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
    let results = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let job = queue.lock().expect("queue poisoned").pop();
                let Some((i, item)) = job else { break };
                let out = f(item);
                results.lock().expect("results poisoned").push((i, out));
            });
        }
    });
    let mut out = results.into_inner().expect("results poisoned");
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, u)| u).collect()
}

/// [`par_map`] over a fixed-size array, preserving the array shape.
pub fn par_map_array<T, U, F, const N: usize>(items: [T; N], f: F) -> [U; N]
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let v = par_map(Vec::from(items), f);
    match v.try_into() {
        Ok(arr) => arr,
        Err(_) => unreachable!("par_map preserves length"),
    }
}

// --- persistent fork/join pool -------------------------------------------

/// The published job, shared under [`Pool::state`]'s mutex.
struct PoolState {
    /// Bumped per job so a worker never re-enters one it already left.
    epoch: u64,
    /// Whether a job is currently published.
    active: bool,
    /// The type-erased task, valid exactly while the publishing
    /// [`pool_run`] call is still blocked (see the safety comment there).
    task: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Next unclaimed task index.
    next: usize,
    /// Total task count of the current job.
    total: usize,
    /// Completed task count of the current job.
    done: usize,
    /// Whether any task of the current job panicked.
    panicked: bool,
    /// Helper threads spawned so far (grow-only; they park between jobs).
    spawned: usize,
}

/// How long a thread spins watching a lock-free hint before parking on its
/// condvar. Cycle-boundary rendezvous fire hundreds of thousands of times
/// per run and each region is microseconds long, so at steady state the
/// next job (or the last task's completion) almost always lands inside the
/// spin window — the condvar round trip, with its syscall and scheduler
/// wakeup latency, is the slow path reserved for genuinely idle periods.
const SPIN_ITERS: u32 = 4096;

struct Pool {
    state: Mutex<PoolState>,
    /// Wakes parked helpers when a job is published.
    work: Condvar,
    /// Wakes the submitter when the last task completes.
    idle: Condvar,
    /// Held for the duration of one job. `try_lock` — a nested or
    /// concurrent fork/join region falls back to serial execution instead
    /// of queueing (results are identical either way; see [`run_tasks`]).
    submit: Mutex<()>,
    /// Lock-free copy of [`PoolState::epoch`], stored under the state mutex
    /// right before `work` is notified. Helpers spin on it between jobs so
    /// a back-to-back region is picked up without a park/notify round trip.
    /// The mutex state stays authoritative — the hint only ends a spin.
    epoch_hint: AtomicU64,
    /// Tasks of the current job not yet completed, decremented (under the
    /// state mutex) alongside `done`. The submitter spins on it reaching
    /// zero before parking on `idle`.
    remaining: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            epoch: 0,
            active: false,
            task: None,
            next: 0,
            total: 0,
            done: 0,
            panicked: false,
            spawned: 0,
        }),
        work: Condvar::new(),
        idle: Condvar::new(),
        submit: Mutex::new(()),
        epoch_hint: AtomicU64::new(0),
        remaining: AtomicUsize::new(0),
    })
}

/// One task call with panic containment: a panicking task must not strand
/// the submitter on the `idle` condvar, so the unwind is caught, counted,
/// and re-raised by the submitter after the join.
fn call_task(task: &(dyn Fn(usize) + Sync), i: usize) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i))).is_ok()
}

fn worker_loop() {
    let pool = pool();
    let mut seen = 0u64;
    let mut g = pool.state.lock().expect("pool poisoned");
    loop {
        if g.active && g.epoch != seen {
            seen = g.epoch;
            let task = g.task.expect("active job has a task");
            while g.next < g.total {
                let i = g.next;
                g.next += 1;
                drop(g);
                let ok = call_task(task, i);
                g = pool.state.lock().expect("pool poisoned");
                g.panicked |= !ok;
                g.done += 1;
                pool.remaining.fetch_sub(1, Ordering::Release);
                if g.done == g.total {
                    pool.idle.notify_all();
                }
            }
        } else {
            // Spin-then-park: watch the lock-free epoch hint for a freshly
            // published job before paying for a condvar park. The re-check
            // under the mutex makes the hint advisory only — a hint missed
            // during the lock/unlock gap is caught by the predicate, and a
            // spurious spin exit just loops back here.
            drop(g);
            let mut hinted = false;
            for _ in 0..SPIN_ITERS {
                if pool.epoch_hint.load(Ordering::Acquire) != seen {
                    hinted = true;
                    break;
                }
                std::hint::spin_loop();
            }
            g = pool.state.lock().expect("pool poisoned");
            if !(hinted || (g.active && g.epoch != seen)) {
                g = pool.work.wait(g).expect("pool poisoned");
            }
        }
    }
}

/// Runs `task(0..total)` across this thread plus up to `helpers` pool
/// threads; blocks until every index completed. Returns `false` without
/// running anything if the pool is already mid-job (the caller then runs
/// serially).
fn pool_run(total: usize, helpers: usize, task: &(dyn Fn(usize) + Sync)) -> bool {
    let pool = pool();
    let Ok(_job) = pool.submit.try_lock() else {
        return false;
    };
    // SAFETY (lifetime erasure): the `'static` is a lie told only to the
    // parked workers. The reference is published under `state`'s mutex,
    // dereferenced by workers exclusively for claimed indices `< total`,
    // and every claim is followed by a `done` increment after the call
    // returns. This function does not return until `done == total` and the
    // job is unpublished (`active = false`, `task = None`) under the same
    // mutex, so no worker can observe the reference after `task`'s real
    // lifetime ends.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let mut g = pool.state.lock().expect("pool poisoned");
    while g.spawned < helpers {
        let spawned = std::thread::Builder::new()
            .name("tcni-par".into())
            .spawn(worker_loop)
            .is_ok();
        if !spawned {
            break; // degrade to fewer helpers; the submitter still works
        }
        g.spawned += 1;
    }
    g.epoch = g.epoch.wrapping_add(1);
    g.active = true;
    g.task = Some(task);
    g.next = 0;
    g.total = total;
    g.done = 0;
    g.panicked = false;
    // Hints go out under the lock, before the notify: spinning helpers see
    // the new epoch without touching the mutex, parked ones get the condvar.
    pool.epoch_hint.store(g.epoch, Ordering::Release);
    pool.remaining.store(total, Ordering::Release);
    pool.work.notify_all();
    // The submitter is a worker too.
    while g.next < g.total {
        let i = g.next;
        g.next += 1;
        drop(g);
        let ok = call_task(task, i);
        g = pool.state.lock().expect("pool poisoned");
        g.panicked |= !ok;
        g.done += 1;
        pool.remaining.fetch_sub(1, Ordering::Release);
    }
    if g.done < g.total {
        // The helpers are on the job's tail. Spin on the remaining-task
        // count — it usually hits zero within the window — and only then
        // park on `idle`. The mutex-guarded count is re-checked either way.
        drop(g);
        for _ in 0..SPIN_ITERS {
            if pool.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            std::hint::spin_loop();
        }
        g = pool.state.lock().expect("pool poisoned");
        while g.done < g.total {
            g = pool.idle.wait(g).expect("pool poisoned");
        }
    }
    g.active = false;
    g.task = None;
    let panicked = g.panicked;
    drop(g);
    if panicked {
        panic!("a parallel task panicked (original payload on its worker's stderr)");
    }
    true
}

/// Runs `f(i, &mut views[i])` for every view, in parallel across the
/// persistent pool, and returns when all are done (a fork/join barrier).
///
/// This is the machine simulator's per-cycle primitive: each view is one
/// spatial domain's mutable state, `f` is one phase of the cycle, and the
/// join is the cycle-boundary exchange point. Guarantees:
///
/// * every index runs exactly once, with exclusive `&mut` access to its
///   view — callers need no interior synchronization;
/// * with a resolved thread count of 1 (or a single view) no pool is
///   touched and the views run in index order on the caller's thread;
/// * nested or concurrent regions (e.g. a machine stepped from inside a
///   [`par_map`] job) never deadlock: the inner region runs serially.
///
/// No ordering between concurrently-running views is promised — callers
/// keep bit-determinism by buffering cross-view effects and applying them
/// in index order after the join.
pub fn run_tasks<V: Send>(views: &mut [V], f: impl Fn(usize, &mut V) + Sync) {
    let total = views.len();
    let workers = threads().min(total);
    if workers <= 1 {
        for (i, v) in views.iter_mut().enumerate() {
            f(i, v);
        }
        return;
    }
    struct SendPtr<T>(*mut T);
    // SAFETY: the pointer is only used to derive per-index `&mut` borrows,
    // and the pool claims each index exactly once.
    unsafe impl<T: Send> Send for SendPtr<T> {}
    unsafe impl<T: Send> Sync for SendPtr<T> {}
    let base = SendPtr(views.as_mut_ptr());
    let task = |i: usize| {
        // Capture the whole `SendPtr` (not its raw-pointer field) so the
        // closure is `Sync` via the wrapper.
        let base = &base;
        // SAFETY: `i < total` (pool contract) and each index is claimed by
        // exactly one worker, so this is the sole `&mut` to element `i`;
        // `V: Send` allows the element to be touched from the worker.
        let v = unsafe { &mut *base.0.add(i) };
        f(i, v);
    };
    if !pool_run(total, workers - 1, &task) {
        for (i, v) in views.iter_mut().enumerate() {
            f(i, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_length() {
        let out = par_map((0..100).collect::<Vec<_>>(), |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_override_matches_parallel() {
        let items: Vec<u64> = (0..40).collect();
        set_threads(1);
        let serial = par_map(items.clone(), |i| i * i);
        set_threads(0);
        let auto = par_map(items, |i| i * i);
        assert_eq!(serial, auto);
    }

    #[test]
    fn array_map_keeps_shape() {
        let out = par_map_array([1, 2, 3, 4, 5, 6], |i| i + 10);
        assert_eq!(out, [11, 12, 13, 14, 15, 16]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn domain_bounds_partition() {
        assert_eq!(domain_bounds(10, 4), vec![0, 2, 5, 7, 10]);
        assert_eq!(domain_bounds(3, 8), vec![0, 1, 2, 3]);
        assert_eq!(domain_bounds(5, 1), vec![0, 5]);
        assert_eq!(domain_bounds(0, 4), vec![0, 0]);
        assert_eq!(domain_bounds(7, 0), vec![0, 7]);
        for (len, parts) in [(100, 7), (1, 1), (64, 64), (13, 5)] {
            let b = domain_bounds(len, parts);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), len);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
            assert!(b
                .windows(2)
                .all(|w| w[1] - w[0] <= len.div_ceil(parts.max(1))));
        }
    }

    #[test]
    fn run_tasks_touches_every_view_once() {
        // Deliberately many more views than workers so the claim loop wraps.
        for threads_n in [1usize, 2, 3, 8] {
            set_threads(threads_n);
            let mut views: Vec<u64> = vec![0; 97];
            run_tasks(&mut views, |i, v| *v += (i as u64) + 1);
            set_threads(0);
            let want: Vec<u64> = (0..97).map(|i| i + 1).collect();
            assert_eq!(views, want, "threads={threads_n}");
        }
    }

    #[test]
    fn run_tasks_repeated_regions_reuse_the_pool() {
        set_threads(4);
        let mut views: Vec<u64> = vec![0; 8];
        for _ in 0..1000 {
            run_tasks(&mut views, |_, v| *v += 1);
        }
        set_threads(0);
        assert!(views.iter().all(|&v| v == 1000), "{views:?}");
    }

    #[test]
    fn run_tasks_nested_falls_back_to_serial() {
        set_threads(4);
        let mut outer: Vec<u64> = vec![0; 4];
        run_tasks(&mut outer, |i, v| {
            let mut inner: Vec<u64> = vec![0; 6];
            // The pool is busy with the outer region: this must complete
            // serially rather than deadlock.
            run_tasks(&mut inner, |j, w| *w = (i * 10 + j) as u64);
            *v = inner.iter().sum();
        });
        set_threads(0);
        for (i, v) in outer.iter().enumerate() {
            let want: u64 = (0..6).map(|j| (i * 10 + j) as u64).sum();
            assert_eq!(*v, want);
        }
    }
}
