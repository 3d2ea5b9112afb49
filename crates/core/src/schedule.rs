//! The multi-threaded per-output scheduler.
//!
//! Per-output rectification searches are independent (each owns its BDD
//! manager, SAT solvers, and RNG stream), so [`fan_out`] spreads them
//! over `std::thread::scope` workers. Determinism is preserved by
//! construction: work item `i` always writes result slot `i`, every item's
//! RNG stream is derived from the run seed and the item (not the worker),
//! and the caller merges slots in index order — so results are bit-identical
//! for any worker count; only wall-clock changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// BDD and netlist traversals recurse; give workers a deep stack so a cone
/// that fits on the (8 MiB) main thread also fits on a worker.
const WORKER_STACK: usize = 16 << 20;

/// Runs `f(0..n)` on up to `workers` threads (minimum 1) and returns the
/// results in index order.
///
/// The item index is what seeds the search; which worker ran an item is
/// deliberately not observable. With one worker (or one item) everything
/// runs inline on the calling thread — no spawn overhead, same results.
/// Otherwise `min(workers, n)` scoped threads claim indices from a shared
/// counter; `f` must contain its own panics (the rectification worker does,
/// via `catch_unwind`) — a panic escaping `f` aborts the whole run.
pub(crate) fn fan_out<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1);
    if workers == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);
    let next = AtomicUsize::new(0);
    let threads = workers.min(n);
    let (f, slots_ref, next_ref) = (&f, &slots, &next);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let worker = std::thread::Builder::new()
                .name(format!("syseco-cone-{w}"))
                .stack_size(WORKER_STACK);
            let handle = worker.spawn_scoped(scope, move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                // A panic in another worker must not cascade through
                // lock poisoning: the slot vector is only ever written
                // whole-`Some` under the lock, so its contents stay
                // valid even if a holder died.
                slots_ref.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(result);
            });
            // Spawn failure (resource exhaustion) is not fatal: the work
            // is still drained by whichever workers did start, or by the
            // fallback loop below when none did.
            drop(handle);
        }
    });
    let mut slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
    // If thread spawning failed entirely, finish inline.
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.is_none() {
            *slot = Some(f(i));
        }
    }
    slots.into_iter().map(|s| s.unwrap()).collect()
}

/// Derives the RNG seed of one per-output search from the run seed.
///
/// SplitMix64 over the output index decorrelates the streams; tying the
/// stream to the *output* (not the worker or the completion order) is what
/// makes results independent of `jobs`.
pub(crate) fn per_output_seed(run_seed: u64, impl_index: u32) -> u64 {
    let mut z = run_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(impl_index) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_are_slot_ordered_for_any_width() {
        let inputs: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = inputs.iter().map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = fan_out(workers, inputs.len(), |i| i * i);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn zero_items_and_zero_workers_are_fine() {
        assert!(fan_out(0, 0, |i| i).is_empty());
        assert_eq!(fan_out(0, 3, |i| i * 2), vec![0, 2, 4]);
        assert_eq!(fan_out(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = std::sync::Mutex::new(Vec::new());
        fan_out(7, 100, |i| hits.lock().unwrap().push(i));
        let mut hits = hits.into_inner().unwrap();
        hits.sort_unstable();
        assert_eq!(hits, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn per_output_seeds_are_distinct_and_stable() {
        let seeds: HashSet<u64> = (0..1000).map(|i| per_output_seed(0xEC0, i)).collect();
        assert_eq!(seeds.len(), 1000, "seed streams must not collide");
        assert_eq!(per_output_seed(1, 2), per_output_seed(1, 2));
        assert_ne!(per_output_seed(1, 2), per_output_seed(2, 2));
    }
}
