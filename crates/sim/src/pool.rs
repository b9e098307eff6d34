//! The worker pool shared by NAS candidate evaluation and fleet campaigns:
//! `std::thread::scope` workers claim item indices from an atomic counter,
//! and results come back in input order at any worker count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The machine's available parallelism (≥ 1).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a configured worker count: `0` means "use
/// [`available_workers`]", anything else is taken literally.
pub fn effective_workers(configured: usize) -> usize {
    if configured == 0 {
        available_workers()
    } else {
        configured
    }
}

/// A panic caught inside a worker while evaluating one item, reduced to its
/// message so callers can fail one slot without losing the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalPanic {
    /// Index of the item (in the mapped slice / request batch) whose
    /// evaluation panicked.
    pub index: usize,
    /// The panic message, or a placeholder for non-string payloads.
    pub message: String,
}

impl std::fmt::Display for EvalPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "evaluation of item {} panicked: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for EvalPanic {}

/// Extracts a printable message from a caught panic payload (also used by
/// the fleet campaign's per-node quarantine).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`parallel_map`] with per-item panic isolation: a panic inside `f`
/// fails that item's slot with an [`EvalPanic`] instead of unwinding
/// across the pool and killing every in-flight item. The remaining items
/// still run, results stay in input order, and the pool exits cleanly at
/// any worker count.
pub fn try_parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<Result<R, EvalPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run = |i: usize, item: &T| -> Result<R, EvalPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| EvalPanic {
            index: i,
            message: panic_message(payload),
        })
    };
    let workers = effective_workers(workers).min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| run(i, t)).collect();
    }
    // Workers return the `(index, result)` pairs they claimed; merge by index.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return mine;
            };
            mine.push((i, run(i, item)));
        }
    };
    let mut done: Vec<(usize, Result<R, EvalPanic>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        // `run` catches every panic of `f`, so a failed join is re-raised
        // rather than silently dropping items.
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Maps `f` over `items` on up to `workers` scoped threads, returning the
/// results in input order; one worker or ≤ 1 item runs a plain sequential
/// loop. A panic inside `f` lets the other items complete, then the first
/// panic is re-raised on the caller's thread with its original message;
/// [`try_parallel_map`] returns panics as values instead.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    try_parallel_map(workers, items, f)
        .into_iter()
        .map(|result| match result {
            Ok(value) => value,
            Err(panic) => panic!("{panic}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_at_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for workers in [1, 2, 4, 16] {
            let got = parallel_map(workers, &items, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let none: Vec<u32> = parallel_map(4, &[], |_, &x: &u32| x);
        assert!(none.is_empty());
        assert_eq!(parallel_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn effective_workers_resolves_zero() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }

    #[test]
    fn try_parallel_map_isolates_panics_at_any_worker_count() {
        let items: Vec<usize> = (0..16).collect();
        for workers in [1, 2, 4] {
            let got = try_parallel_map(workers, &items, |_, &x| {
                assert!(x % 5 != 3, "poisoned item {x}");
                x * 2
            });
            assert_eq!(got.len(), items.len(), "workers={workers}");
            for (i, result) in got.iter().enumerate() {
                if i % 5 == 3 {
                    match result {
                        Err(p) => {
                            assert_eq!(p.index, i);
                            assert!(p.message.contains("poisoned item"), "{p}");
                        }
                        Ok(v) => panic!("item {i} should have panicked, got {v}"),
                    }
                } else {
                    assert_eq!(*result, Ok(i * 2), "workers={workers}");
                }
            }
        }
    }
}
