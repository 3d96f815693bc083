//! The resident worker fleet: one pool of threads shared by every
//! campaign the server runs.
//!
//! [`parallel_map`](rats_experiments::parallel_map) spawns scoped threads
//! per call — fine for a batch CLI, wasteful for a long-lived service
//! where every submission would pay spawn/teardown for each cluster
//! batch. The [`Fleet`] keeps its threads alive for the server's lifetime
//! and multiplexes *batches* (one [`ParallelExec::run_indexed`] call each)
//! from any number of concurrent campaigns over them: batches queue FIFO,
//! workers drain the front batch's index space via an atomic cursor, and
//! the submitting thread participates in its own batch so progress is
//! guaranteed even when every fleet thread is busy elsewhere.
//!
//! The contract of [`ParallelExec`] is honoured exactly: every index runs
//! once, `run_indexed` returns only after all of them completed, and a
//! task panic is re-raised on the submitter for the lowest failing index —
//! so results (and failures) are bit-identical to the scoped-thread path.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use rats_experiments::ParallelExec;

/// One queued `run_indexed` call: an index space `0..n` being drained by
/// an atomic cursor, plus completion bookkeeping.
struct Batch {
    /// The task, type-erased to a raw pointer so the batch can sit in the
    /// shared queue without a lifetime. See the safety argument on the
    /// `Send`/`Sync` impls below.
    task: *const (dyn Fn(usize) + Sync),
    /// Index space size.
    n: usize,
    /// Next index to hand out (claims past `n` mean the batch is drained).
    next: AtomicUsize,
    /// Indices not yet *completed* (distinct from claimed).
    remaining: AtomicUsize,
    /// Lowest-indexed captured panic, re-raised by the submitter.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    /// Completion flag + condvar the submitter blocks on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: the raw task pointer is only dereferenced while the submitting
// `run_indexed` frame is alive — that frame blocks on `done_cv` until
// `remaining` hits zero, and `remaining` is decremented only *after* a
// task call returns (or panics), so no worker can touch the pointer after
// `run_indexed` unblocks. The pointee is `Fn(usize) + Sync`, so concurrent
// calls from many workers are sound by construction.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Whether every index has been handed out (not necessarily finished).
    fn drained(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }

    /// Claims and runs indices until the batch is drained. Called by fleet
    /// workers *and* by the submitting thread.
    fn run(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // SAFETY: see the Send/Sync impls — the submitter keeps the
            // task alive until `remaining` reaches zero, which cannot
            // happen before this call completes.
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                let mut slot = self.panic.lock().expect("panic slot never poisoned");
                match &*slot {
                    Some((lowest, _)) if *lowest <= i => {}
                    _ => *slot = Some((i, payload)),
                }
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().expect("done flag never poisoned") = true;
                self.done_cv.notify_all();
            }
        }
    }
}

struct FleetInner {
    /// Batches with indices still to hand out, FIFO.
    queue: Mutex<VecDeque<Arc<Batch>>>,
    /// Signalled when a batch is pushed or shutdown begins.
    available: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-width resident thread pool implementing [`ParallelExec`].
///
/// Concurrent `run_indexed` calls from different threads are safe and
/// expected — that is the multiplexing a multi-campaign server needs. The
/// fleet shuts its threads down on drop.
pub struct Fleet {
    inner: Arc<FleetInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Fleet {
    /// Starts `threads` resident workers (at least one).
    pub fn new(threads: usize) -> Self {
        let inner = Arc::new(FleetInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("fleet-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("fleet thread spawns")
            })
            .collect();
        Fleet { inner, workers }
    }

    /// Resident width of the pool.
    pub fn width(&self) -> usize {
        self.workers.len()
    }
}

fn worker_loop(inner: &FleetInner) {
    loop {
        let batch = {
            let mut queue = inner.queue.lock().expect("fleet queue never poisoned");
            loop {
                // Drop batches whose index space is exhausted — their
                // remaining work is finishing on other threads.
                while queue.front().is_some_and(|b| b.drained()) {
                    queue.pop_front();
                }
                if let Some(front) = queue.front() {
                    break Arc::clone(front);
                }
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .expect("fleet queue never poisoned");
            }
        };
        batch.run();
    }
}

impl ParallelExec for Fleet {
    fn run_indexed(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        // SAFETY: erasing the reference's lifetime so it can live in the
        // queue as a raw pointer. The pointer is never dereferenced after
        // this frame returns — see the `Send`/`Sync` argument on `Batch`.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let batch = Arc::new(Batch {
            task: task as *const (dyn Fn(usize) + Sync),
            n,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut queue = self.inner.queue.lock().expect("fleet queue never poisoned");
            queue.push_back(Arc::clone(&batch));
        }
        self.inner.available.notify_all();
        // The submitter drains its own batch alongside the fleet: progress
        // is guaranteed even when every resident thread is busy with other
        // campaigns' batches.
        batch.run();
        let mut done = batch.done.lock().expect("done flag never poisoned");
        while !*done {
            done = batch.done_cv.wait(done).expect("done flag never poisoned");
        }
        drop(done);
        let panic = batch
            .panic
            .lock()
            .expect("panic slot never poisoned")
            .take();
        if let Some((_, payload)) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it while
        // holding that lock, so the notify below cannot slip in between
        // its check and its wait and leave it asleep forever.
        {
            let _queue = self.inner.queue.lock().expect("fleet queue never poisoned");
            self.inner.shutdown.store(true, Ordering::Relaxed);
        }
        self.inner.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_experiments::parallel_map_pooled;

    #[test]
    fn pooled_results_match_scoped_results() {
        let fleet = Fleet::new(4);
        let items: Vec<usize> = (0..200).collect();
        let scoped = parallel_map_pooled(None, &items, 4, |i, &x| i * 31 + x);
        let pooled = parallel_map_pooled(Some(&fleet), &items, 4, |i, &x| i * 31 + x);
        assert_eq!(scoped, pooled);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let fleet = Fleet::new(2);
        let items: Vec<u32> = vec![];
        assert!(parallel_map_pooled(Some(&fleet), &items, 2, |_, &x| x).is_empty());
    }

    #[test]
    fn panic_reaches_the_submitter() {
        let fleet = Fleet::new(3);
        let items: Vec<usize> = (0..32).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_pooled(Some(&fleet), &items, 3, |_, &x| {
                if x == 5 {
                    panic!("boom on {x}");
                }
                x
            })
        }))
        .expect_err("the task panic must propagate");
        let message = caught
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(message.contains("boom on 5"), "got: {message}");
        // The fleet survives a panicked batch and keeps serving.
        let ok = parallel_map_pooled(Some(&fleet), &items, 3, |_, &x| x * 2);
        assert_eq!(ok, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_batches_from_many_threads_multiplex() {
        let fleet = Arc::new(Fleet::new(4));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let fleet = Arc::clone(&fleet);
                std::thread::spawn(move || {
                    let items: Vec<usize> = (0..100).collect();
                    let out = parallel_map_pooled(Some(&*fleet), &items, 4, |_, &x| x + t);
                    assert_eq!(out, items.iter().map(|x| x + t).collect::<Vec<_>>());
                })
            })
            .collect();
        for h in handles {
            h.join().expect("submitter threads succeed");
        }
    }

    #[test]
    fn width_is_at_least_one() {
        assert_eq!(Fleet::new(0).width(), 1);
    }
}
