//! A small scoped-thread fork-join executor.
//!
//! The build environment is offline, so instead of `rayon` the engine
//! parallelizes with `std::thread::scope`, in two shapes:
//!
//! * [`fill_chunks`] / [`fill_chunks_min`] — uniform per-element fills. An
//!   output slice is split into one contiguous chunk per worker and each chunk
//!   is filled on its own thread; per-element costs are equal (one table
//!   lookup, one slot band), so the zero-coordination static split balances
//!   and is fastest.
//! * [`steal_fold`] — heterogeneous banded folds. An index range is split into
//!   balanced bands (4 per worker), workers claim bands from one atomic
//!   counter and fold each into its own accumulator, and the accumulators come
//!   back in band order. Sweep and search grids mix analytic-path, loop-path
//!   and lane-batch runs, so a worker that drew cheap bands pulls more work
//!   instead of idling behind the slowest static chunk.

use crate::telemetry::{telemetry, Counter};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Batches smaller than this are filled on the calling thread by default; below
/// this size the cost of spawning threads exceeds per-element lookup work.
/// Coarse-grained batches (e.g. whole simulation runs) should use
/// [`fill_chunks_min`] with a much smaller threshold.
pub const PARALLEL_THRESHOLD: usize = 1 << 13;

/// The number of worker threads used for batch evaluation.
///
/// The `LATSCHED_THREADS` environment variable (a positive integer) overrides
/// the detected parallelism — benches and CI determinism checks use it to pin
/// thread counts reproducibly (`engine-cli --threads N` sets it before the
/// first query). Cached after the first query: `available_parallelism` is a
/// syscall (and on Linux a cgroup walk), and the simulation kernel consults
/// this once per slot on its hot paths.
pub fn worker_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Some(threads) = std::env::var("LATSCHED_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
        {
            return threads;
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Fills `out` by calling `fill(offset, chunk)` for disjoint contiguous chunks, in
/// parallel when the slice is large enough. `offset` is the index of the chunk's
/// first element within `out`; each call must fully initialize its chunk.
pub fn fill_chunks<T, F>(out: &mut [T], fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    fill_chunks_min(out, PARALLEL_THRESHOLD, fill);
}

/// [`fill_chunks`] with an explicit parallelism threshold: slices shorter than
/// `min_parallel` are filled on the calling thread. Use a small threshold for
/// coarse-grained elements (e.g. one whole simulation run per element, as in
/// the sweep engine) where even a handful of elements amortize a thread spawn.
pub fn fill_chunks_min<T, F>(out: &mut [T], min_parallel: usize, fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    if len < min_parallel.max(2) {
        fill(0, out);
        return;
    }
    let threads = worker_threads();
    if threads < 2 {
        fill(0, out);
        return;
    }
    let chunk_len = len.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut offset = 0usize;
        while !rest.is_empty() {
            let take = chunk_len.min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            let fill = &fill;
            scope.spawn(move || fill(offset, chunk));
            offset += take;
            rest = tail;
        }
    });
}

/// Bands per worker in [`steal_fold`]: the oversubscription that gives
/// stealing slack to balance heterogeneous band costs.
const BANDS_PER_WORKER: usize = 4;

/// Folds `0..n` in contiguous bands across the worker pool and returns one
/// result per band, in band order.
///
/// The range splits into `min(4 × workers, n)` balanced bands — band `b`
/// covers `b·n / bands .. (b + 1)·n / bands` — and workers claim band indices
/// from one atomic counter, so a worker that drew cheap bands pulls more
/// instead of idling behind the slowest one. Claim order is
/// nondeterministic, but band boundaries are not: they depend on `n` and the
/// worker count only, and results come back sorted by band, so any in-order
/// merge (concatenating run-ordered bands, merging exact monoid folds) is
/// bit-exact under every interleaving. `n = 0` yields no bands; a single
/// worker folds every band on the calling thread.
pub fn steal_fold<A, F>(n: usize, fold: F) -> Vec<A>
where
    A: Send,
    F: Fn(Range<usize>) -> A + Sync,
{
    let workers = worker_threads();
    steal_fold_in(workers, n, workers * BANDS_PER_WORKER, fold)
}

/// [`steal_fold`] over an explicit worker and band count.
fn steal_fold_in<A, F>(workers: usize, n: usize, bands: usize, fold: F) -> Vec<A>
where
    A: Send,
    F: Fn(Range<usize>) -> A + Sync,
{
    let bands = bands.min(n);
    // `b·n` in 128 bits cannot overflow; the quotient is at most `n`.
    let start = |b: usize| (b as u128 * n as u128 / bands as u128) as usize;
    let band = |b: usize| start(b)..start(b + 1);
    let workers = workers.min(bands);
    if workers < 2 {
        return (0..bands).map(|b| fold(band(b))).collect();
    }
    let next = AtomicUsize::new(0);
    let mut claimed: Vec<(usize, A)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= bands {
                            return done;
                        }
                        // Telemetry-gated, so the claim loop stays a bare
                        // fetch_add when profiling is off.
                        telemetry().count(Counter::StealClaims, 1);
                        done.push((b, fold(band(b))));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    claimed.sort_unstable_by_key(|&(b, _)| b);
    claimed.into_iter().map(|(_, a)| a).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fills_every_element_sequentially_and_in_parallel() {
        // Small: sequential path.
        let mut small = vec![0usize; 100];
        fill_chunks(&mut small, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        assert!(small.iter().enumerate().all(|(i, &v)| v == i));

        // Large: parallel path.
        let mut large = vec![0usize; PARALLEL_THRESHOLD * 3 + 17];
        fill_chunks(&mut large, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        assert!(large.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn explicit_threshold_parallelizes_small_batches() {
        let mut batch = vec![0usize; 24];
        fill_chunks_min(&mut batch, 2, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (offset + i) * 3;
            }
        });
        assert!(batch.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn stolen_bands_match_static_chunks_bit_for_bit() {
        let mix = |i: usize| {
            let x = i as u64;
            x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ x
        };
        let stolen: Vec<u64> =
            steal_fold_in(3, 513, 12, |range| range.map(mix).collect::<Vec<_>>()).concat();
        let mut static_split = vec![0u64; 513];
        fill_chunks_min(&mut static_split, 2, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = mix(offset + i);
            }
        });
        assert_eq!(stolen, static_split);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn bands_cover_every_index_once_in_order(
            workers in 1usize..10,
            n in 0usize..301,
            bands in 1usize..65,
        ) {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let ranges = steal_fold_in(workers, n, bands, |range| {
                for i in range.clone() {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
                range
            });
            let used = bands.min(n);
            prop_assert_eq!(ranges.len(), used);
            let mut next = 0;
            for range in &ranges {
                prop_assert_eq!(range.start, next);
                let len = range.len();
                prop_assert!(len == n / used || len == n / used + 1, "unbalanced band {:?}", range);
                next = range.end;
            }
            prop_assert_eq!(next, n);
            prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }
}
