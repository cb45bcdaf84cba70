//! A std-only work-stealing thread pool, in two modes.
//!
//! The sweep engine needs to shard a few dozen to a few thousand
//! independent simulation points across OS threads without pulling an
//! external runtime (the workspace is hermetic — no `rayon`), and the
//! braid-serve daemon needs the same workers to stay alive and accept jobs
//! as requests arrive. Both modes share one structure:
//!
//! * Every worker owns a deque of tasks, seeded/submitted round-robin so
//!   the distribution is balanced.
//! * A worker pops from the **front** of its own deque; when that runs
//!   dry it steals from the **back** of a victim's deque, scanning the
//!   other workers in a fixed rotation. Opposite ends keep the owner and
//!   thieves off the same cache lines of work.
//!
//! **Fixed mode** ([`run_indexed`]): the task set is known up front and no
//! task ever spawns another, so a worker exits when every deque is empty —
//! a race-free termination check. Results land in a slot per task index,
//! so the output order is the input order, **independent of thread count
//! and steal timing**. That property is what makes the sweep aggregation
//! deterministic.
//!
//! **Dynamic mode** ([`JobPool`]): workers are long-lived; jobs arrive one
//! at a time via [`JobPool::try_submit`] and idle workers sleep on a
//! condvar. The queue is **bounded** — a full pool refuses the job instead
//! of buffering unboundedly, which is what lets a server answer "retry
//! later" under load instead of building invisible latency. A panicking
//! job is contained (counted, worker survives); ordering guarantees are
//! the submitter's business — braid-serve sequences results per connection
//! on top of completion-order delivery.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Runs `work(index, item)` for every item on `threads` workers and
/// returns the results **in input order**, regardless of which worker ran
/// which item or in what order.
///
/// `threads` is clamped to `1..=items.len()`. With `threads == 1` the
/// items run strictly in input order on one spawned worker, which is the
/// reference schedule the determinism tests compare against.
///
/// # Panics
///
/// Propagates a panic from `work` after the scope unwinds the remaining
/// workers.
pub fn run_indexed<T, R, F>(threads: usize, items: Vec<T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..threads).map(|w| Mutex::new((w..n).step_by(threads).collect())).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..threads {
            let slots = &slots;
            let queues = &queues;
            let results = &results;
            let work = &work;
            scope.spawn(move || loop {
                let own = queues[w].lock().expect("queue poisoned").pop_front();
                let task = own.or_else(|| {
                    (1..threads).find_map(|d| {
                        queues[(w + d) % threads].lock().expect("queue poisoned").pop_back()
                    })
                });
                let Some(i) = task else { return };
                let item = slots[i].lock().expect("slot poisoned").take();
                if let Some(item) = item {
                    let r = work(i, item);
                    *results[i].lock().expect("result poisoned") = Some(r);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|m| m.into_inner().expect("result poisoned").expect("every task ran"))
        .collect()
}

/// A unit of dynamic work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`JobPool::try_submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; try again after in-flight work drains.
    /// This is the backpressure signal servers turn into `retry` replies.
    Saturated,
    /// The pool is shutting down and accepts no new work.
    Closing,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated => f.write_str("job queue saturated"),
            SubmitError::Closing => f.write_str("pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Queue depths of a [`JobPool`] at one instant (for stats reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolDepth {
    /// Jobs submitted but not yet picked up by a worker.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
}

struct PoolState {
    /// One deque per worker; owners pop the front, thieves pop the back.
    queues: Vec<VecDeque<Job>>,
    /// Round-robin submission cursor.
    next: usize,
    /// Jobs in the queues (bounded by the pool's `bound`).
    queued: usize,
    /// Jobs currently executing.
    running: usize,
    /// No new submissions; workers exit once the queues drain.
    closing: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers sleep here when every deque is empty.
    wake: Condvar,
    /// [`JobPool::drain`] sleeps here until `queued == running == 0`.
    idle: Condvar,
    /// Jobs that panicked (contained, not propagated).
    panics: AtomicU64,
}

/// The dynamic-submission mode of the pool: long-lived workers, a bounded
/// job queue with explicit backpressure, work stealing between workers,
/// and drain-on-shutdown (queued jobs finish; new submissions are
/// refused).
///
/// Unlike [`run_indexed`], completion order is whatever the steal timing
/// produces; callers needing ordered results (braid-serve's in-order
/// per-connection replies) sequence them on top.
pub struct JobPool {
    shared: Arc<PoolShared>,
    bound: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl JobPool {
    /// Spawns `threads` long-lived workers (clamped to at least 1) behind
    /// a queue bounded at `bound` jobs (clamped to at least 1).
    pub fn new(threads: usize, bound: usize) -> JobPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queues: (0..threads).map(|_| VecDeque::new()).collect(),
                next: 0,
                queued: 0,
                running: 0,
                closing: false,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
            panics: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("braid-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w, threads))
                    .expect("spawn pool worker")
            })
            .collect();
        JobPool { shared, bound: bound.max(1), workers }
    }

    /// Submits a job, or refuses it with the reason ([`SubmitError`]).
    /// Never blocks: saturation is reported, not absorbed.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] when `queued` is at the bound,
    /// [`SubmitError::Closing`] after [`JobPool::shutdown`] began.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        if st.closing {
            return Err(SubmitError::Closing);
        }
        if st.queued >= self.bound {
            return Err(SubmitError::Saturated);
        }
        let w = st.next;
        st.next = (st.next + 1) % st.queues.len();
        st.queues[w].push_back(Box::new(job));
        st.queued += 1;
        drop(st);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Current queue depths (for stats reporting).
    pub fn depth(&self) -> PoolDepth {
        let st = self.shared.state.lock().expect("pool state poisoned");
        PoolDepth { queued: st.queued, running: st.running }
    }

    /// Jobs that panicked since the pool started. Panics are contained —
    /// the worker survives — but counted, so a server can surface them.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Blocks until no job is queued or running. New submissions during
    /// the wait reset the condition, so call this after the submitters
    /// stopped (or after [`JobPool::shutdown`] closed the intake).
    pub fn drain(&self) {
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        while st.queued > 0 || st.running > 0 {
            st = self.shared.idle.wait(st).expect("pool state poisoned");
        }
    }

    /// Closes the intake: every subsequent [`JobPool::try_submit`] returns
    /// [`SubmitError::Closing`]; queued and running jobs still finish, and
    /// workers exit once the queues drain. Shareable (`&self`), so a
    /// server holding the pool in an [`Arc`] can close it from a request
    /// handler.
    pub fn close(&self) {
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        st.closing = true;
        drop(st);
        self.shared.wake.notify_all();
    }

    /// Graceful shutdown: closes the intake, lets every queued and running
    /// job finish, and joins the workers (also what dropping the pool
    /// does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, w: usize, threads: usize) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                let found = st.queues[w].pop_front().or_else(|| {
                    (1..threads).find_map(|d| st.queues[(w + d) % threads].pop_back())
                });
                if let Some(job) = found {
                    st.queued -= 1;
                    st.running += 1;
                    break job;
                }
                if st.closing {
                    return;
                }
                st = shared.wake.wait(st).expect("pool state poisoned");
            }
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        let mut st = shared.state.lock().expect("pool state poisoned");
        st.running -= 1;
        if st.queued == 0 && st.running == 0 {
            drop(st);
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 3, 8, 200] {
            let out = run_indexed(threads, items.clone(), |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let want: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = run_indexed(4, vec![(); 50], |_, ()| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(out.len(), 50);
        assert_eq!(ran.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = run_indexed(8, Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        // `threads` is clamped to the item count; no worker spins on an
        // empty deque and every result still lands in order.
        let out = run_indexed(64, vec![10u64, 20, 30], |i, x| (i as u64, x));
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30)]);
        let one = run_indexed(5, vec![7u64], |_, x| x);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        // The module header promises a panic in `work` unwinds out of
        // `run_indexed` after the scope collects the other workers; pin
        // it so the promise stays true.
        let result = catch_unwind(|| {
            run_indexed(4, (0..16u64).collect::<Vec<_>>(), |_, x| {
                assert!(x != 11, "injected failure");
                x
            })
        });
        assert!(result.is_err(), "a worker panic must propagate, not vanish");
    }

    #[test]
    fn job_pool_runs_submitted_work() {
        let pool = JobPool::new(3, 64);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..40u64 {
            let tx = tx.clone();
            pool.try_submit(move || tx.send(i * i).expect("recv alive")).expect("submit");
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..40u64).map(|i| i * i).collect();
        assert_eq!(got, want);
        pool.drain();
        assert_eq!(pool.depth(), PoolDepth { queued: 0, running: 0 });
        pool.shutdown();
    }

    #[test]
    fn job_pool_backpressure_and_closing() {
        // One worker, held busy; a queue bound of 2 then refuses the
        // third queued job with `Saturated` — deterministically, because
        // the worker is parked on the channel.
        let pool = JobPool::new(1, 2);
        let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
        pool.try_submit(move || hold_rx.recv().unwrap_or(())).expect("submit blocker");
        // Wait until the blocker is actually running so the bound applies
        // to the two fillers alone.
        while pool.depth().running == 0 {
            std::thread::yield_now();
        }
        pool.try_submit(|| {}).expect("first queued");
        pool.try_submit(|| {}).expect("second queued");
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::Saturated));
        assert_eq!(pool.depth().queued, 2);
        hold_tx.send(()).expect("worker waiting");
        pool.drain();
        pool.shutdown();
    }

    #[test]
    fn job_pool_shutdown_drains_queued_work_and_refuses_new() {
        let ran = Arc::new(AtomicUsize::new(0));
        let pool = JobPool::new(2, 128);
        for _ in 0..32 {
            let ran = Arc::clone(&ran);
            pool.try_submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .expect("submit");
        }
        pool.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 32);
        // Closing the intake refuses new work but joins cleanly.
        pool.close();
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::Closing));
        pool.shutdown();
    }

    #[test]
    fn job_pool_contains_panics() {
        let pool = JobPool::new(2, 16);
        // `resume_unwind` skips the panic hook: the test prints nothing.
        pool.try_submit(|| std::panic::resume_unwind(Box::new("injected"))).expect("submit");
        pool.try_submit(|| {}).expect("pool survives");
        pool.drain();
        assert_eq!(pool.panics(), 1, "panic counted");
        // The worker survived the panic: it can still run work.
        let (tx, rx) = std::sync::mpsc::channel();
        pool.try_submit(move || tx.send(1u32).expect("recv alive")).expect("submit");
        assert_eq!(rx.recv(), Ok(1));
        pool.shutdown();
    }

    #[test]
    fn stealing_drains_imbalanced_work() {
        // One slow item seeded to worker 0; the rest are instant. With
        // stealing, everything still completes.
        let out = run_indexed(4, (0..32).collect::<Vec<u64>>(), |_, x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<u64>>());
    }
}
