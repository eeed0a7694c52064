//! The work-stealing task pool.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use crate::counters::{CounterSnapshot, Counters};

thread_local! {
    /// Set while a pool worker is running tasks: nested `par_map` calls
    /// from inside a task execute inline instead of spawning a second
    /// scope (rayon-style), which both avoids oversubscription and keeps
    /// block partitions independent of nesting depth.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker until dropped, then restores
/// the previous flag, also when a task panics. The calling thread runs as
/// worker 0, so it must get its own flag back.
struct WorkerFlag(bool);

impl WorkerFlag {
    fn enter() -> WorkerFlag {
        WorkerFlag(IN_WORKER.with(|flag| flag.replace(true)))
    }
}

impl Drop for WorkerFlag {
    fn drop(&mut self) {
        IN_WORKER.with(|flag| flag.set(self.0));
    }
}

/// A parallel runtime of `threads` workers with shared [`Counters`].
///
/// The pool is scoped: workers live only for the duration of one
/// [`Runtime::par_map`] call, so borrowed inputs need no `'static`
/// lifetime. The calling thread is one of the workers, so a call spawns
/// `threads - 1` threads. Work distribution is dynamic — items start
/// block-cyclically distributed over per-worker deques and idle workers
/// steal half a deque at a time from the busiest peer — but results are
/// always returned in input order, making the output independent of the
/// thread count.
#[derive(Clone, Debug)]
pub struct Runtime {
    threads: usize,
    counters: Arc<Counters>,
}

impl Runtime {
    /// A runtime with `threads` workers; `0` means
    /// `std::thread::available_parallelism()`.
    pub fn new(threads: usize) -> Runtime {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            threads
        };
        Runtime {
            threads,
            counters: Arc::new(Counters::default()),
        }
    }

    /// A single-threaded runtime (all tasks run inline, in order).
    pub fn serial() -> Runtime {
        Runtime::new(1)
    }

    /// Number of workers this runtime uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// True when called from inside one of this process's pool workers.
    pub fn in_worker() -> bool {
        IN_WORKER.with(|w| w.get())
    }

    /// Map `f` over `items` in parallel; `f` receives `(index, &item)`.
    ///
    /// Results are returned in input order regardless of thread count or
    /// scheduling. Panics in `f` propagate to the caller.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_init(items, || (), |(), i, t| f(i, t))
    }

    /// [`Runtime::par_map`] with per-worker scratch state.
    ///
    /// `init` runs once on each worker (and once for the inline path) to
    /// build a scratch value `S`; `f` receives `(&mut scratch, index,
    /// &item)`. The scratch lives on the worker's own stack — it is
    /// neither `Send` nor shared — which lets tasks reuse expensive
    /// buffers (e.g. an `afp-fpga` mapper) across every item the worker
    /// processes.
    ///
    /// `f` must stay a pure function of `(index, &item)` for outputs to be
    /// independent of the thread count; scratch is for *allocation* reuse,
    /// not for carrying state between items.
    pub fn par_map_init<T, R, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        Counters::add(&self.counters.tasks_executed, n as u64);
        if workers <= 1 || Runtime::in_worker() {
            let mut scratch = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut scratch, i, t))
                .collect();
        }

        // Block-cyclic initial distribution: worker w starts with items
        // w, w+workers, w+2*workers, ... so expensive neighbours (circuit
        // libraries are ordered by construction, i.e. by size) spread out.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            .collect();
        let steals = &self.counters.steals;
        let run_worker = |w: usize| {
            let _flag = WorkerFlag::enter();
            let mut scratch = init();
            let mut local: Vec<(usize, R)> = Vec::with_capacity(n / workers + 1);
            while let Some(i) = next_item(&deques, w, steals) {
                local.push((i, f(&mut scratch, i, &items[i])));
            }
            local
        };

        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let run_worker = &run_worker;
            let handles: Vec<_> = (1..workers)
                .map(|w| scope.spawn(move || run_worker(w)))
                .collect();
            // The caller is worker 0 instead of parking on the joins: one
            // thread fewer to spawn per call. Its panic is caught so every
            // peer is joined before the pool reports it.
            let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_worker(0)));
            let peers: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            std::iter::once(own)
                .chain(peers)
                .map(|local| local.expect("pool worker panicked"))
                .collect()
        });
        for (i, r) in collected.into_iter().flatten() {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every item produced a result"))
            .collect()
    }
}

/// Pop from the own deque front, else steal from the fullest peer.
fn next_item(
    deques: &[Mutex<VecDeque<usize>>],
    worker: usize,
    steals: &AtomicU64,
) -> Option<usize> {
    if let Some(i) = deques[worker].lock().expect("deque poisoned").pop_front() {
        return Some(i);
    }
    // Find the victim with the most remaining work and take the back half
    // of its deque. One lock round is enough: if everyone is empty the
    // pool is draining and this worker can retire (tasks never spawn
    // subtasks — nested par_map runs inline).
    let victim = (0..deques.len())
        .filter(|&v| v != worker)
        .max_by_key(|&v| deques[v].lock().expect("deque poisoned").len())?;
    let mut vq = deques[victim].lock().expect("deque poisoned");
    let take = vq.len().div_ceil(2);
    if take == 0 {
        return None;
    }
    let split = vq.len() - take;
    let mut stolen: VecDeque<usize> = vq.split_off(split);
    drop(vq);
    Counters::add(steals, 1);
    let first = stolen.pop_front();
    if !stolen.is_empty() {
        deques[worker]
            .lock()
            .expect("deque poisoned")
            .append(&mut stolen);
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn results_are_ordered_for_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = Runtime::new(threads).par_map(&items, |_, &x| x * 3 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn unbalanced_work_is_stolen() {
        // Front-loaded heavy items: static contiguous chunking would put
        // all heavy work on worker 0; stealing must spread it.
        let items: Vec<u64> = (0..64).map(|i| if i < 8 { 400_000 } else { 10 }).collect();
        let rt = Runtime::new(4);
        let spin = |n: u64| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            acc
        };
        let out = rt.par_map(&items, |_, &n| spin(n));
        assert_eq!(out.len(), 64);
        let snap = rt.snapshot();
        assert_eq!(snap.tasks_executed, 64);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let rt = Runtime::new(8);
        let empty: Vec<u32> = vec![];
        assert!(rt.par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(rt.par_map(&[7u32], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn nested_par_map_runs_inline() {
        let rt = Runtime::new(4);
        let inner_parallel = AtomicUsize::new(0);
        let items: Vec<usize> = (0..16).collect();
        let out = rt.par_map(&items, |_, &x| {
            assert!(Runtime::in_worker());
            // A nested call must not deadlock and must still be ordered.
            let inner = rt.par_map(&[1usize, 2, 3], |_, &y| x * y);
            if inner == vec![x, 2 * x, 3 * x] {
                inner_parallel.fetch_add(1, Ordering::Relaxed);
            }
            x
        });
        assert_eq!(out, items);
        assert_eq!(inner_parallel.load(Ordering::Relaxed), 16);
        assert!(!Runtime::in_worker());
    }

    #[test]
    fn the_caller_runs_as_worker_zero_and_nests_inline() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        for threads in [2, 4, 8] {
            let rt = Runtime::new(threads);
            // Peers hold their first item until the caller has run one:
            // otherwise peers that start while the caller is still
            // spawning can drain every deque first. Blocked peers hold
            // one item each, so the caller always finds work — unless it
            // never joins as a worker, which the deadline reports.
            let caller_ran = AtomicBool::new(false);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            let ran = rt.par_map(&items, |_, &x| {
                let outer = std::thread::current().id();
                if outer == caller {
                    caller_ran.store(true, Ordering::Release);
                }
                while !caller_ran.load(Ordering::Acquire) {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "threads={threads}: peers waited 60 s and the caller ran no item"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                // A nested call runs inline on whichever thread runs the
                // outer item, the caller included.
                let inner = rt.par_map(&[1usize, 2, 3], |_, &y| {
                    (std::thread::current().id(), x * y)
                });
                assert!(
                    inner.iter().all(|&(id, _)| id == outer),
                    "threads={threads}"
                );
                assert_eq!(
                    inner.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
                    [x, 2 * x, 3 * x]
                );
                outer
            });
            assert!(
                ran.contains(&caller),
                "threads={threads}: the caller ran no item"
            );
            let mut distinct = ran.clone();
            distinct.sort_unstable_by_key(|id| format!("{id:?}"));
            distinct.dedup();
            assert!(distinct.len() <= threads, "threads={threads}");
            assert!(!Runtime::in_worker(), "threads={threads}");
        }
    }

    #[test]
    fn the_worker_flag_is_restored_after_a_panicking_item() {
        for threads in [1, 2, 4] {
            let rt = Runtime::new(threads);
            let items: Vec<u32> = (0..16).collect();
            let outcome = std::panic::catch_unwind(|| {
                rt.par_map(&items, |_, &x| {
                    assert!(x != 0, "boom");
                    x
                })
            });
            assert!(outcome.is_err(), "threads={threads}");
            assert!(!Runtime::in_worker(), "threads={threads}");
            // The pool still works afterwards.
            assert_eq!(rt.par_map(&items, |_, &x| x), items);
        }
    }

    #[test]
    fn counters_count_inline_and_parallel_alike() {
        for threads in [1, 4] {
            let rt = Runtime::new(threads);
            rt.par_map(&[1, 2, 3, 4, 5], |_, &x: &i32| x);
            assert_eq!(rt.snapshot().tasks_executed, 5, "threads={threads}");
        }
    }

    #[test]
    fn par_map_init_reuses_scratch_and_stays_ordered() {
        let items: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for threads in [1, 2, 4, 8] {
            let inits = AtomicUsize::new(0);
            let got = Runtime::new(threads).par_map_init(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::new()
                },
                |scratch, _, &x| {
                    // Scratch is reusable worker-local storage.
                    scratch.clear();
                    scratch.push(x);
                    scratch[0] * 2
                },
            );
            assert_eq!(got, expect, "threads={threads}");
            // One scratch per worker, not per item.
            assert!(inits.load(Ordering::Relaxed) <= threads.max(1));
        }
    }

    #[test]
    fn install_zero_uses_available_parallelism() {
        let rt = Runtime::new(0);
        assert!(rt.threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn worker_panics_propagate() {
        let rt = Runtime::new(2);
        let items: Vec<u32> = (0..8).collect();
        rt.par_map(&items, |_, &x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
