//! Scoped-thread chunked scatter for pure per-item work.
//!
//! No registry access means no rayon; this is the minimal house-style
//! replacement (compare the offline shims in `crates/shims/`): split a
//! job list into at most `threads` contiguous chunks and run each chunk
//! on a scoped `std::thread`. Every job owns its output — disjoint
//! `&mut` slices carved out of a shared arena by the caller — and reads
//! only shared immutable context, so each job is a pure function of
//! (context, job) and the result is byte-identical to the serial loop
//! for any thread count. Parallelism is a pure throughput knob, never a
//! behaviour knob.
//!
//! The route-computation paths in [`crate::topology`] are the intended
//! consumer: per-(layer, access-switch-column) rebuilds are independent
//! and each column is a contiguous slice of the column-major arenas.

/// Resolve a user-facing parallelism knob: `0` = one worker per
/// available core (as the OS reports it — cgroup and affinity limits
/// included), anything else is taken literally. Always ≥ 1.
pub fn resolve(parallelism: usize) -> usize {
    if parallelism == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        parallelism
    }
}

/// Run `f` over every job in order, fanning out to at most `threads`
/// scoped workers, each with its own scratch value from `scratch()`.
///
/// With `threads <= 1` — or fewer than two jobs — this is exactly the
/// serial loop on the calling thread: no thread is spawned, so a
/// parallelism-1 caller keeps the pre-parallel code path and its
/// byte-identity guarantees trivially. Otherwise jobs are split into
/// contiguous chunks, one scoped worker per chunk; workers never share
/// output (each job owns disjoint `&mut` slices) and never see each
/// other's scratch, so scheduling order cannot influence the result.
pub fn scatter<J, S, F, G>(threads: usize, jobs: Vec<J>, scratch: G, f: F)
where
    J: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, J) + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        let mut s = scratch();
        for job in jobs {
            f(&mut s, job);
        }
        return;
    }
    let workers = threads.min(jobs.len());
    let chunk = jobs.len().div_ceil(workers);
    let mut jobs = jobs.into_iter();
    let (f, scratch) = (&f, &scratch);
    std::thread::scope(|scope| loop {
        let batch: Vec<J> = jobs.by_ref().take(chunk).collect();
        if batch.is_empty() {
            break;
        }
        scope.spawn(move || {
            let mut s = scratch();
            for job in batch {
                f(&mut s, job);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_at_least_one() {
        assert!(resolve(0) >= 1);
        assert_eq!(resolve(1), 1);
        assert_eq!(resolve(7), 7);
    }

    /// Any thread count produces the same output as the serial loop,
    /// including thread counts above the job count.
    #[test]
    fn scatter_matches_serial_for_any_thread_count() {
        let n = 103usize;
        let mut expect = vec![0u64; n];
        for (i, slot) in expect.iter_mut().enumerate() {
            *slot = (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD;
        }
        for threads in [1, 2, 3, 4, 8, 200] {
            let mut out = vec![0u64; n];
            let jobs: Vec<(usize, &mut u64)> = out.iter_mut().enumerate().collect();
            scatter(
                threads,
                jobs,
                || (),
                |(), (i, slot)| {
                    *slot = (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD;
                },
            );
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    /// Each worker gets its own scratch: a scratch that accumulates
    /// per-worker state never leaks across jobs of other workers, and
    /// the serial path reuses one scratch across all jobs (the same
    /// contract `ColumnScratch` relies on).
    #[test]
    fn scatter_scratch_is_per_worker() {
        let mut out = vec![0usize; 64];
        let jobs: Vec<&mut usize> = out.iter_mut().collect();
        // Record how many jobs this worker's scratch has seen so far;
        // with 4 workers over 64 jobs each chunk restarts at 1.
        scatter(
            4,
            jobs,
            || 0usize,
            |seen, slot| {
                *seen += 1;
                *slot = *seen;
            },
        );
        let max_chunk = 64usize.div_ceil(4);
        assert!(out.iter().all(|&c| (1..=max_chunk).contains(&c)));
        assert_eq!(out.iter().filter(|&&c| c == 1).count(), 4);
    }
}
