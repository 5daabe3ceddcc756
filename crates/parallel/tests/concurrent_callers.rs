//! Several OS threads driving parallel loops at once.
//!
//! A pool runs one region at a time; callers from different OS threads
//! queue on the pool's region lock. Every thread here drives both the
//! shared global pool and a scoped pool of its own, so regions collide
//! on the former and overlap freely across the latter, and every result
//! must still be exact.

use std::sync::atomic::{AtomicU64, Ordering};

use egraph_parallel::{parallel_for, parallel_reduce, with_pool, ThreadPool};

const CALLERS: usize = 4;
const ROUNDS: usize = if cfg!(miri) { 2 } else { 50 };
const LEN: usize = if cfg!(miri) { 64 } else { 20_000 };

/// One caller's round: a covering `parallel_for` and a `parallel_reduce`
/// whose answers are known in closed form.
fn round(caller: usize, grain: usize) {
    let hits: Vec<AtomicU64> = (0..LEN).map(|_| AtomicU64::new(0)).collect();
    parallel_for(0..LEN, grain, |r| {
        for i in r {
            hits[i].fetch_add(caller as u64 + 1, Ordering::Relaxed);
        }
    });
    assert!(hits
        .iter()
        .all(|h| h.load(Ordering::Relaxed) == caller as u64 + 1));

    let sum = parallel_reduce(
        0..LEN,
        grain,
        || 0u64,
        |acc, r| acc + r.map(|i| (i * (caller + 1)) as u64).sum::<u64>(),
        |a, b| a + b,
    );
    assert_eq!(sum, (LEN * (LEN - 1) / 2 * (caller + 1)) as u64);
}

#[test]
fn concurrent_callers_on_global_and_scoped_pools_get_exact_results() {
    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            s.spawn(move || {
                let scoped = ThreadPool::new(2 + caller % 3);
                for r in 0..ROUNDS {
                    let grain = 1 + (r * 37 + caller * 101) % 700;
                    round(caller, grain);
                    with_pool(&scoped, || round(caller, grain));
                }
            });
        }
    });
}

#[test]
fn concurrent_callers_share_one_scoped_pool() {
    let shared = ThreadPool::new(3);
    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            let shared = &shared;
            s.spawn(move || {
                for r in 0..ROUNDS {
                    with_pool(shared, || round(caller, 1 + r * 13));
                }
            });
        }
    });
}
