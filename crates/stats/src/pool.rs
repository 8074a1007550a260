//! The workspace's one task-order pool: a pure job per index, values
//! back in index order.
//!
//! [`run_indexed`] is OpenMP's `parallel for` with a dynamic schedule
//! of chunk 1: a team of scoped threads takes indices from one shared
//! counter. Which worker runs an index, and when, is free; what the
//! caller gets back is not, because every value is a pure function of
//! its index and lands at that index. Each worker also keeps one
//! scratch value, built once by `init`, that its jobs may reuse. A
//! scratch is working memory only: a job's value must not depend on
//! what earlier jobs left in it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `job(scratch, i)` for every `i` in `0..n` on up to `threads`
/// scoped worker threads and returns the values in index order.
///
/// Each worker builds its scratch with `init` once and passes it to
/// every job it takes. With `threads <= 1` or `n <= 1` the calling
/// thread runs every job in index order on one scratch and no thread
/// starts. A panicking job reaches the caller once every worker has
/// stopped; the other workers finish the indices left.
pub fn run_indexed<S, T, I, F>(n: usize, threads: usize, init: I, job: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        let mut scratch = init();
        return (0..n).map(|i| job(&mut scratch, i)).collect();
    }
    // The counter only hands out indices; values reach the caller
    // through `join`, which orders them after the worker's writes, so
    // `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut scratch = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, job(&mut scratch, i)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n)).map(|_| scope.spawn(work)).collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => {
                    for (i, value) in done {
                        slots[i] = Some(value);
                    }
                }
                // `scope` joins the remaining workers before this
                // reaches the caller.
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index below n is taken once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job whose value is a pure function of its index.
    fn value(i: usize) -> u64 {
        (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
    }

    #[test]
    fn values_equal_the_inline_run_in_index_order() {
        for n in [0, 1, 2, 97] {
            let inline: Vec<u64> = (0..n).map(value).collect();
            for threads in [0, 1, 2, 3, 8] {
                let got = run_indexed(n, threads, || (), |_, i| value(i));
                assert_eq!(got, inline, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn a_growing_scratch_changes_no_value() {
        let inline: Vec<u64> = (0..97).map(value).collect();
        for threads in [1, 2, 3, 8] {
            let got = run_indexed(97, threads, Vec::<usize>::new, |seen, i| {
                seen.push(i);
                value(i)
            });
            assert_eq!(got, inline, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "job 40 fails")]
    fn a_panicking_job_reaches_the_caller() {
        run_indexed(
            97,
            3,
            || (),
            |_, i| {
                if i == 40 {
                    panic!("job 40 fails");
                }
                value(i)
            },
        );
    }
}
