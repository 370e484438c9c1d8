//! The one parallel region of extraction: the §3.3 per-phase ordering
//! fan-out (`docs/parallel.md`).
//!
//! [`try_map_indexed`] opens a `crossbeam::thread::scope`, so worker
//! closures borrow the phase inputs directly — no `Arc`s, no
//! `'static` bounds. Workers never touch the recorder (its span stack
//! is thread-local to the pipeline); the caller records the worker
//! count it returns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks ignoring poisoning: a panicking worker resumes its panic on
/// scope join, so observed state after a poison is never used.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fans `f` out over every item on up to `threads` workers with
/// dynamic scheduling. On success the results come back in item order;
/// on failure the error of the lowest-indexed failing item is returned
/// — exactly what a serial left-to-right run would report. Returns the
/// worker count it used alongside: `1` when it ran serially
/// (`threads <= 1` or at most one item).
pub(crate) fn try_map_indexed<T, R, E, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> (usize, Result<Vec<R>, E>)
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return (1, items.iter().enumerate().map(|(i, t)| f(i, t)).collect());
    }
    let workers = threads.min(items.len());
    let next = AtomicUsize::new(0);
    let ok: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let err: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(t) = items.get(i) else { break };
        // An error at index j < i makes every item ≥ i irrelevant (a
        // serial run stops at j); items *below* j must still be tried —
        // they may fail with a smaller index.
        if lock(&err).as_ref().is_some_and(|(j, _)| *j < i) {
            break;
        }
        match f(i, t) {
            Ok(r) => lock(&ok).push((i, r)),
            Err(e) => {
                let mut g = lock(&err);
                if g.as_ref().is_none_or(|(j, _)| i < *j) {
                    *g = Some((i, e));
                }
            }
        }
    };
    crossbeam::thread::scope(|sc| {
        for _ in 1..workers {
            sc.spawn(|_| work());
        }
        work();
    })
    .expect("ordering worker panicked");
    if let Some((_, e)) = err.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return (workers, Err(e));
    }
    let mut v = ok.into_inner().unwrap_or_else(|e| e.into_inner());
    v.sort_unstable_by_key(|&(i, _)| i);
    (workers, Ok(v.into_iter().map(|(_, r)| r).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_map_indexed_returns_lowest_error() {
        let items: Vec<u32> = (0..200).collect();
        for threads in [1, 2, 4, 8] {
            let (_, r) =
                try_map_indexed(
                    threads,
                    &items,
                    |i, &x| if x % 31 == 17 { Err(i) } else { Ok(x * 2) },
                );
            assert_eq!(r.unwrap_err(), 17, "threads={threads}: lowest failing index wins");
            let (_, ok) = try_map_indexed(threads, &items, |_, &x| Ok::<_, ()>(x + 1));
            assert_eq!(ok.unwrap(), (1..201).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn try_map_indexed_reports_the_workers_it_used() {
        let items: Vec<u32> = (0..3).collect();
        let ok = |_: usize, &x: &u32| Ok::<_, ()>(x);
        assert_eq!(try_map_indexed(1, &items, ok).0, 1, "one thread is serial");
        assert_eq!(try_map_indexed(8, &items[..1], ok).0, 1, "one item is serial");
        assert_eq!(try_map_indexed(2, &items, ok).0, 2);
        assert_eq!(try_map_indexed(8, &items, ok).0, 3, "never more workers than items");
    }
}
