//! A shared, reusable worker pool for every parallel stage in the workspace.
//!
//! Before this module existed, each embarrassingly-parallel stage — the
//! n+1 local solves, the batched multi-RHS global solve, block-wise stress
//! reconstruction — spun its own ad-hoc `std::thread::scope`, paying thread
//! spawn cost on every call and, worse, multiplying: a stage that spawned
//! `cap` threads whose tasks each spawned `cap` more could hold `cap²` OS
//! threads alive. [`WorkPool`] replaces all of that with one lazily-started
//! set of resident worker threads and a scoped work-queue API:
//!
//! * [`WorkPool::global`] — the process-wide pool. Its thread cap comes from
//!   the `MORESTRESS_THREADS` environment variable when set, otherwise from
//!   [`std::thread::available_parallelism`] clamped to 16 (the paper's
//!   thread count).
//! * [`WorkPool::new`] — an explicitly-capped private pool, used by tests to
//!   prove thread-count invariance and by embedders that must bound the
//!   simulator's parallelism.
//! * [`WorkPool::install`] — runs a closure with this pool as the *current*
//!   pool of the calling thread; every parallel site in the workspace
//!   resolves [`WorkPool::current`], so a whole pipeline (local stage →
//!   global solve → reconstruction) is redirected by wrapping it once.
//! * [`WorkPool::scope_chunks`] / [`WorkPool::scope_workers`] — the scoped
//!   execution primitives. Both block until every started task finished, so
//!   task closures may borrow from the caller's stack.
//!
//! Every parallel site uses these two primitives over independent tasks.
//! There is no task-graph scheduler: one supernodal factorization is a
//! serial sweep, and the parallelism sits around it — per shard, per panel
//! of right-hand sides, per local solve and per campaign job.
//!
//! # Cap semantics
//!
//! A pool's `cap` is the maximum number of threads that ever execute its
//! work concurrently: up to `cap − 1` resident workers plus the calling
//! thread, which always participates. Per-call `workers` arguments (the
//! `threads` fields of the various options structs) are *requests* that are
//! clamped to the cap — they can narrow a call below the cap but never
//! widen it. Nested stages share the one pool: a task already running on a
//! pool worker that opens a nested scope enqueues onto the same queue, and
//! idle workers help out; no new threads appear. A worker waiting for its
//! nested scope only waits on worker slots other threads have already
//! *started* — unstarted slots are reclaimed and never run, which is why
//! slot bodies must be drain-a-shared-counter loops (see
//! [`WorkPool::scope_workers`]) and why nesting is deadlock-free at any
//! cap, including 1.
//!
//! The cap bounds the pool's resident workers plus *one* calling thread;
//! `k` independent application threads calling in concurrently donate
//! their own `k` caller slots on top of the `cap − 1` residents. Within
//! one call tree (the nesting case that used to explode to cap²) the bound
//! is the cap.
//!
//! # Determinism
//!
//! The scoped APIs assign tasks dynamically but the workspace's task bodies
//! write to disjoint, index-addressed slots and never accumulate across
//! tasks in scheduling order, so results are bitwise identical for every
//! cap — the property `crates/core/tests/thread_invariance.rs` pins down.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

/// A worker-pool handle.
///
/// Cloning is cheap (the clones share the pool). The resident worker
/// threads shut down when the last handle is dropped; the global pool lives
/// for the process.
#[derive(Clone)]
pub struct WorkPool {
    inner: Arc<Inner>,
    owner: Arc<Owner>,
}

/// Shared pool state: the work queue and worker bookkeeping.
struct Inner {
    cap: usize,
    state: Mutex<QueueState>,
    work_ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Arc<ScopeJob>>,
    spawned: usize,
    shutdown: bool,
}

/// Dropping the last [`WorkPool`] handle drops this and shuts the workers
/// down. Worker threads only hold [`Weak`] references to it, so they never
/// keep their own pool alive.
struct Owner {
    inner: Arc<Inner>,
}

impl Drop for Owner {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().expect("pool state poisoned");
        state.shutdown = true;
        drop(state);
        self.inner.work_ready.notify_all();
    }
}

/// Thread-local resolution target of [`WorkPool::current`]. Holds the pool
/// weakly so a worker's own thread-local never keeps its pool alive.
#[derive(Clone)]
struct CurrentRef {
    inner: Arc<Inner>,
    owner: Weak<Owner>,
}

impl CurrentRef {
    fn upgrade(&self) -> Option<WorkPool> {
        self.owner.upgrade().map(|owner| WorkPool {
            inner: Arc::clone(&self.inner),
            owner,
        })
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CurrentRef>> = const { RefCell::new(None) };
}

/// One queued worker slot of an active scope.
///
/// `body` is a lifetime-erased pointer to the scope's task closure, which
/// lives on the scope caller's stack. Safety argument: the caller blocks in
/// [`WorkPool::scope_workers`] until every *claimed* job finished and has
/// reclaimed every unclaimed one, so the pointer is never dereferenced
/// after the closure's stack frame dies. Unclaimed jobs may outlive the
/// scope inside the queue, but their `claimed` flag is already set, so they
/// are discarded on pop without touching `body`.
struct ScopeJob {
    slot: usize,
    body: *const (dyn Fn(usize) + Sync),
    claimed: AtomicBool,
    scope: Arc<ScopeState>,
}

// SAFETY: `body` points at a `Sync` closure (shared references may cross
// threads) and the scope discipline above bounds its lifetime.
unsafe impl Send for ScopeJob {}
unsafe impl Sync for ScopeJob {}

/// Completion tracking of one scope: how many claimed jobs finished, plus
/// the first panic payload any of them produced.
struct ScopeState {
    finished: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn new() -> Self {
        Self {
            finished: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }
}

fn run_job(job: &ScopeJob) {
    if job.claimed.swap(true, Ordering::AcqRel) {
        return; // reclaimed by the scope caller, or already run
    }
    // SAFETY: claiming the job above means the scope caller will wait for
    // `finished` to cover this job before returning, so `body` is alive.
    let body = unsafe { &*job.body };
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(job.slot))) {
        job.scope
            .panic
            .lock()
            .expect("scope panic slot poisoned")
            .get_or_insert(payload);
    }
    let mut finished = job.scope.finished.lock().expect("scope latch poisoned");
    *finished += 1;
    drop(finished);
    job.scope.done.notify_all();
}

fn worker_loop(inner: Arc<Inner>, owner: Weak<Owner>) {
    // Work executed on this thread resolves `WorkPool::current()` to the
    // pool that owns it, so nested parallel stages reuse the same pool
    // instead of falling back to the global one.
    CURRENT.with(|current| {
        *current.borrow_mut() = Some(CurrentRef {
            inner: Arc::clone(&inner),
            owner,
        });
    });
    loop {
        let job = {
            let mut state = inner.state.lock().expect("pool state poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = inner.work_ready.wait(state).expect("pool state poisoned");
            }
        };
        run_job(&job);
    }
}

/// Reads the global pool's thread cap: `MORESTRESS_THREADS` when set to a
/// positive integer, otherwise the machine's parallelism clamped to 16
/// (the paper's thread count).
fn default_global_cap() -> usize {
    std::env::var("MORESTRESS_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&cap| cap >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get().min(16)))
}

impl WorkPool {
    /// Creates a private pool whose work never runs on more than `cap`
    /// threads (`cap − 1` resident workers plus the caller). Workers are
    /// spawned lazily on first use and shut down when the last handle to
    /// the pool is dropped.
    pub fn new(cap: usize) -> Self {
        let inner = Arc::new(Inner {
            cap: cap.max(1),
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                spawned: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let owner = Arc::new(Owner {
            inner: Arc::clone(&inner),
        });
        Self { inner, owner }
    }

    /// The process-wide shared pool (created on first use; see the
    /// `default_global_cap` semantics in the module docs).
    pub fn global() -> &'static WorkPool {
        static GLOBAL: OnceLock<WorkPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkPool::new(default_global_cap()))
    }

    /// The pool parallel stages on this thread currently resolve to: the
    /// innermost [`install`](Self::install) scope, the owning pool on a
    /// pool worker thread, or the [`global`](Self::global) pool.
    pub fn current() -> WorkPool {
        CURRENT
            .with(|current| current.borrow().clone())
            .and_then(|re| re.upgrade())
            .unwrap_or_else(|| Self::global().clone())
    }

    /// Thread cap of this pool: up to `cap − 1` resident workers plus the
    /// calling thread. Each concurrent *independent* calling thread donates
    /// its own caller slot (see the module docs); within one call tree the
    /// cap is a hard bound.
    pub fn cap(&self) -> usize {
        self.inner.cap
    }

    fn current_ref(&self) -> CurrentRef {
        CurrentRef {
            inner: Arc::clone(&self.inner),
            owner: Arc::downgrade(&self.owner),
        }
    }

    /// Runs `f` with this pool installed as the calling thread's current
    /// pool, so every parallel stage `f` reaches — directly or through
    /// nested calls on this thread — executes here instead of on the
    /// global pool. The previous installation is restored on exit, also on
    /// unwind.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<CurrentRef>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|current| *current.borrow_mut() = prev);
            }
        }
        let prev = CURRENT.with(|current| current.borrow_mut().replace(self.current_ref()));
        let _restore = Restore(prev);
        f()
    }

    /// Enqueues `jobs` and makes sure enough workers exist to help.
    fn submit(&self, jobs: &[Arc<ScopeJob>]) {
        let mut state = self.inner.state.lock().expect("pool state poisoned");
        state.jobs.extend(jobs.iter().map(Arc::clone));
        let want = (self.inner.cap - 1).min(state.jobs.len());
        while state.spawned < want {
            state.spawned += 1;
            let inner = Arc::clone(&self.inner);
            let owner = Arc::downgrade(&self.owner);
            std::thread::Builder::new()
                .name("morestress-pool".into())
                .spawn(move || worker_loop(inner, owner))
                .expect("failed to spawn pool worker");
        }
        drop(state);
        self.inner.work_ready.notify_all();
    }

    /// Runs `body(slot)` once per worker slot, on up to `workers` threads
    /// concurrently (clamped to the pool cap; the caller runs slot 0, pool
    /// workers pick up the rest). Returns the number of worker slots that
    /// *actually ran* — the caller plus every slot a resident worker
    /// started, which is less than the request when the pool is busy
    /// serving other callers.
    ///
    /// This is the low-level primitive: `body` must be written in the
    /// work-queue style (each invocation drains a shared task counter until
    /// empty), because slots whose pool worker never became free are
    /// reclaimed and simply not run. [`scope_chunks`](Self::scope_chunks)
    /// packages that pattern.
    ///
    /// Blocks until every started slot returned, so `body` may borrow from
    /// the caller's stack. A panic in any slot is caught and its first
    /// payload re-thrown here only after the scope fully quiesced — one
    /// broken task can neither deadlock nor poison the pool, the other
    /// slots keep draining their work, and the pool stays usable. (Work the
    /// panicking slot would have claimed is abandoned, as in `rayon`: the
    /// scope is aborting anyway.)
    pub fn scope_workers(&self, workers: usize, body: impl Fn(usize) + Sync) -> usize {
        let workers = workers.clamp(1, self.inner.cap);
        let body_ref: &(dyn Fn(usize) + Sync) = &body;
        if workers == 1 {
            body_ref(0);
            return 1;
        }
        // SAFETY: lifetime erasure for the queue; see `ScopeJob` docs. This
        // function does not return before every claimed job finished.
        let body_ptr: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(body_ref as *const (dyn Fn(usize) + Sync)) };
        let scope = Arc::new(ScopeState::new());
        let jobs: Vec<Arc<ScopeJob>> = (1..workers)
            .map(|slot| {
                Arc::new(ScopeJob {
                    slot,
                    body: body_ptr,
                    claimed: AtomicBool::new(false),
                    scope: Arc::clone(&scope),
                })
            })
            .collect();
        self.submit(&jobs);

        // The caller is worker slot 0. Catch its panic so the scope still
        // quiesces before unwinding out.
        let caller = panic::catch_unwind(AssertUnwindSafe(|| body_ref(0)));

        // Reclaim every job no worker started; wait for the ones claimed.
        let mut claimed_by_workers = 0usize;
        for job in &jobs {
            if job.claimed.swap(true, Ordering::AcqRel) {
                claimed_by_workers += 1;
            }
        }
        let mut finished = scope.finished.lock().expect("scope latch poisoned");
        while *finished < claimed_by_workers {
            finished = scope.done.wait(finished).expect("scope latch poisoned");
        }
        drop(finished);

        if let Err(payload) = caller {
            panic::resume_unwind(payload);
        }
        let worker_panic = scope
            .panic
            .lock()
            .expect("scope panic slot poisoned")
            .take();
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
        1 + claimed_by_workers
    }

    /// Runs `task(i)` exactly once for every `i in 0..num_tasks`,
    /// distributing indices dynamically over up to `workers` worker slots
    /// (clamped to the pool cap and to `num_tasks`). Returns the number of
    /// worker slots that executed at least one task — honest concurrency
    /// telemetry, ≥ 1 and ≤ the clamped request, but scheduling-dependent:
    /// a fast caller can drain a small task set before the residents wake.
    ///
    /// Indices are claimed in *chunks* of `max(1, num_tasks / (8·workers))`
    /// from one shared counter, so fine-grained task sets pay one atomic
    /// RMW per chunk instead of one per task — the contention fix the
    /// many-core runs wanted — while the `8×` oversplit keeps the tail
    /// balanced when task costs vary.
    ///
    /// Blocks until all tasks finished, so `task` may borrow from the
    /// caller's stack; panic semantics are those of
    /// [`scope_workers`](Self::scope_workers).
    pub fn scope_chunks(
        &self,
        workers: usize,
        num_tasks: usize,
        task: impl Fn(usize) + Sync,
    ) -> usize {
        self.scope_chunks_with(workers, num_tasks, || (), |(), i| task(i))
    }

    /// [`scope_chunks`](Self::scope_chunks) with per-worker state: `init`
    /// runs once on every worker slot that claims at least one index, and
    /// the produced state is threaded through all of that slot's `task`
    /// calls. This is how batched solvers reuse one panel scratch per
    /// worker instead of allocating per task.
    ///
    /// The state is dropped when the slot drains; nothing is returned —
    /// use it for scratch, not for reductions (accumulating into it in
    /// claim order would break the workspace's schedule-independence
    /// contract).
    pub fn scope_chunks_with<S>(
        &self,
        workers: usize,
        num_tasks: usize,
        init: impl Fn() -> S + Sync,
        task: impl Fn(&mut S, usize) + Sync,
    ) -> usize {
        if num_tasks == 0 {
            return 0;
        }
        let workers = workers.clamp(1, self.inner.cap).min(num_tasks);
        let chunk = (num_tasks / (8 * workers)).max(1);
        let next = AtomicUsize::new(0);
        let active = AtomicUsize::new(0);
        self.scope_workers(workers, |_slot| {
            let mut state: Option<S> = None;
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= num_tasks {
                    return;
                }
                let state = match &mut state {
                    Some(state) => state,
                    None => {
                        active.fetch_add(1, Ordering::Relaxed);
                        state.insert(init())
                    }
                };
                for i in start..(start + chunk).min(num_tasks) {
                    task(state, i);
                }
            }
        });
        active.load(Ordering::Relaxed).max(1)
    }
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock().expect("pool state poisoned");
        f.debug_struct("WorkPool")
            .field("cap", &self.inner.cap)
            .field("spawned", &state.spawned)
            .field("queued", &state.jobs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkPool::new(4);
        let counts: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        let used = pool.scope_chunks(4, counts.len(), |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(0 < used && used <= 4);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn cap_one_runs_inline() {
        let pool = WorkPool::new(1);
        let hits = AtomicUsize::new(0);
        let used = pool.scope_chunks(16, 10, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(used, 1);
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        assert_eq!(
            pool.inner.state.lock().unwrap().spawned,
            0,
            "a cap-1 pool must never spawn threads"
        );
    }

    #[test]
    fn requests_are_clamped_to_the_cap() {
        let pool = WorkPool::new(3);
        // The return value counts slots that actually started (the caller
        // may outrun the residents on trivial bodies), never more than the
        // cap / the task count.
        let used = pool.scope_workers(64, |_| {});
        assert!((1..=3).contains(&used), "used {used}");
        let used = pool.scope_chunks(64, 2, |_| {});
        assert!((1..=2).contains(&used), "also clamped to tasks: {used}");
    }

    #[test]
    fn nested_scopes_share_the_pool() {
        use std::collections::HashSet;
        let pool = WorkPool::new(3);
        let ids = Mutex::new(HashSet::new());
        let total = AtomicUsize::new(0);
        pool.install(|| {
            WorkPool::current().scope_chunks(8, 4, |_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                WorkPool::current().scope_chunks(8, 5, |_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 5);
        assert!(
            ids.lock().unwrap().len() <= 3,
            "nested stages must not exceed the shared cap"
        );
    }

    #[test]
    fn install_redirects_and_restores() {
        let pool = WorkPool::new(2);
        let inside = pool.install(WorkPool::current);
        assert!(Arc::ptr_eq(&inside.inner, &pool.inner));
        let outside = WorkPool::current();
        assert!(Arc::ptr_eq(&outside.inner, &WorkPool::global().inner));
    }

    #[test]
    fn panicking_task_propagates_without_deadlocking() {
        let pool = WorkPool::new(4);
        let survivors = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_chunks(4, 20, |i| {
                if i == 7 {
                    panic!("task 7 exploded");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "the panic must reach the scope caller");
        // The panicking slot abandons its share; the others may or may not
        // have drained the rest, but the failed task never "ran".
        assert!(survivors.load(Ordering::Relaxed) <= 19);
        // And the pool keeps working afterwards.
        let after = AtomicUsize::new(0);
        pool.scope_chunks(4, 10, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn chunked_claiming_still_runs_every_index_once() {
        // Task counts chosen to exercise chunk-boundary arithmetic: primes,
        // exact multiples of the chunk size, and fewer tasks than workers.
        let pool = WorkPool::new(4);
        for num_tasks in [1usize, 3, 64, 97, 128, 1000] {
            let counts: Vec<AtomicUsize> = (0..num_tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.scope_chunks(4, num_tasks, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} of {num_tasks}");
            }
        }
    }

    #[test]
    fn per_worker_state_is_initialized_once_per_active_slot() {
        let pool = WorkPool::new(4);
        let inits = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let used = pool.scope_chunks_with(
            4,
            200,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                vec![0u8; 16] // stand-in for a panel scratch
            },
            |scratch, _i| {
                scratch[0] = scratch[0].wrapping_add(1);
                hits.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), 200);
        assert_eq!(
            inits.load(Ordering::Relaxed),
            used,
            "exactly one scratch per slot that claimed work"
        );
    }

    #[test]
    fn global_cap_env_parsing() {
        // Only shape-checks the fallback path (the env var itself is owned
        // by CI); the parsed branch is covered by the CI thread matrix.
        let cap = default_global_cap();
        assert!(cap >= 1);
    }
}
