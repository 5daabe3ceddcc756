//! Chunked loops over index ranges and slices, on one ordered-block
//! scheduler.
//!
//! The paper runs every kernel on Cilk (§2), whose parallel loops split
//! their range in halves: each worker sweeps a contiguous index range in
//! ascending order, and an idle worker steals the far half of someone
//! else's range. This scheduler keeps that shape with flat state:
//!
//! * the range is cut into `grain`-sized chunks, and the chunks into one
//!   contiguous block per worker;
//! * a block is a packed `(front, back)` chunk-index word on its own
//!   cache line, so claiming or stealing is a single CAS;
//! * the owner claims chunks from the front, in ascending order;
//! * a worker whose block is empty takes the back half of the fullest
//!   other block and sweeps it front to back as its own block.
//!
//! The ascending sweep matters beyond cache locality: in-place label
//! propagation (WCC push) carries a label along a whole block within
//! one pass, where a queue dealing neighbouring chunks to alternating
//! workers needs one pass per chunk boundary.

use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pool::{broadcast_current, current_num_threads, current_worker_index};

/// Default chunk size for the chunked loops.
///
/// Large enough that the per-chunk CAS is negligible, small enough to
/// balance skewed per-item costs (power-law vertex degrees).
pub const DEFAULT_GRAIN: usize = 4096;

/// Most chunks one loop is cut into: two chunk indices share one word.
const MAX_CHUNKS: usize = u32::MAX as usize;

/// Runs `f` over disjoint sub-ranges covering `range`, in parallel.
///
/// `f` is called with chunks of at most `grain` indices (more only when
/// the range has over `u32::MAX` of them) and never with an empty range.
/// Each worker sees its chunks in ascending order within its block.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let total = AtomicU64::new(0);
/// egraph_parallel::parallel_for(0..1000, 128, |r| {
///     total.fetch_add(r.len() as u64, Ordering::Relaxed);
/// });
/// assert_eq!(total.load(Ordering::Relaxed), 1000);
/// ```
pub fn parallel_for<F>(range: Range<usize>, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let (schedule, parallel) = Schedule::new(range, grain);
    let body = |(), r| f(r);
    if parallel {
        broadcast_current(&|worker| schedule.sweep(worker.index(), (), body));
    } else {
        schedule.sweep(0, (), body);
    }
}

/// Parallel map-reduce over an index range.
///
/// Each worker folds the chunks it claims into a private accumulator
/// created by `identity`; the per-worker accumulators are then combined
/// sequentially with `combine`.
///
/// # Examples
///
/// ```
/// let max = egraph_parallel::parallel_reduce(
///     0..100usize,
///     16,
///     || 0usize,
///     |acc, r| acc.max(r.end - 1),
///     |a, b| a.max(b),
/// );
/// assert_eq!(max, 99);
/// ```
pub fn parallel_reduce<A, Id, Fold, Combine>(
    range: Range<usize>,
    grain: usize,
    identity: Id,
    fold: Fold,
    combine: Combine,
) -> A
where
    A: Send,
    Id: Fn() -> A + Sync,
    Fold: Fn(A, Range<usize>) -> A + Sync,
    Combine: Fn(A, A) -> A,
{
    let (schedule, parallel) = Schedule::new(range, grain);
    // A worker's accumulator is created on its first chunk, so workers
    // that claim nothing contribute nothing to the combine.
    let body = |acc: Option<A>, r| Some(fold(acc.unwrap_or_else(&identity), r));
    if !parallel {
        return schedule.sweep(0, None, body).unwrap_or_else(identity);
    }
    // Fixed per-worker result slots: each worker writes only its own
    // index, so the partial collection needs no lock.
    let mut partials: Vec<Option<A>> = (0..schedule.blocks.len()).map(|_| None).collect();
    {
        let slots = SendPtr(partials.as_mut_ptr());
        broadcast_current(&|worker| {
            let acc = schedule.sweep(worker.index(), None, body);
            // SAFETY: worker ids are dense and unique within the
            // region, and `partials` has one slot per block, i.e. per
            // worker; each slot has exactly one writer, and the borrow
            // of `partials` outlives the blocking region.
            unsafe { *slots.get().add(worker.index()) = acc };
        });
    }
    partials.into_iter().flatten().fold(identity(), combine)
}

/// One loop's chunks, dealt out as one block per worker.
struct Schedule {
    start: usize,
    end: usize,
    grain: usize,
    blocks: Blocks,
}

impl Schedule {
    /// Plans `range` for the calling thread's pool. The flag says
    /// whether the loop is worth a parallel region: a range of at most
    /// one chunk, or a loop nested inside a region, is one block the
    /// caller sweeps inline.
    fn new(range: Range<usize>, grain: usize) -> (Self, bool) {
        let (grain, chunks) = plan(range.end.saturating_sub(range.start), grain);
        let parallel = chunks > 1 && current_worker_index().is_none();
        let workers = if parallel { current_num_threads() } else { 1 };
        let schedule = Self {
            start: range.start,
            end: range.end,
            grain,
            blocks: Blocks::new(chunks, workers, crate::fault::steal_storm()),
        };
        (schedule, parallel)
    }

    /// Folds every chunk worker `me` claims into `acc`: its own block
    /// front to back, then each stolen half front to back, until no
    /// block has work left.
    fn sweep<A>(&self, me: usize, mut acc: A, f: impl Fn(A, Range<usize>) -> A) -> A {
        loop {
            while let Some(chunk) = self.blocks.claim(me) {
                crate::telemetry::on_chunk();
                let start = self.start + chunk as usize * self.grain;
                acc = f(acc, start..self.end.min(start + self.grain));
            }
            if !self.blocks.steal(me) {
                return acc;
            }
            crate::telemetry::on_steal(me);
        }
    }
}

/// Cuts `len` indices into chunks: returns the grain actually used (at
/// least 1, and coarse enough that the chunk count fits in 32 bits)
/// and the number of chunks.
fn plan(len: usize, grain: usize) -> (usize, u32) {
    let grain = grain.max(1).max(len.div_ceil(MAX_CHUNKS));
    (grain, len.div_ceil(grain) as u32)
}

/// Worker blocks of chunk indices. Block `w` holds `front..back` packed
/// into one word (`front` in the high half), padded to its own cache
/// line pair so an owner's claims never share a line with another's.
struct Blocks(Vec<Block>);

#[repr(align(128))]
struct Block(AtomicU64);

fn pack(front: u32, back: u32) -> u64 {
    (u64::from(front) << 32) | u64::from(back)
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

impl Blocks {
    /// Splits chunks `0..chunks` into `workers` contiguous blocks whose
    /// sizes differ by at most one. Under an injected steal storm every
    /// chunk is seeded into worker 0's block instead, so every other
    /// worker has to steal.
    fn new(chunks: u32, workers: usize, storm: bool) -> Self {
        let bound = |w: usize| (u64::from(chunks) * w as u64 / workers as u64) as u32;
        Self(
            (0..workers)
                .map(|w| {
                    let word = match (storm, w) {
                        (false, _) => pack(bound(w), bound(w + 1)),
                        (true, 0) => pack(0, chunks),
                        (true, _) => pack(chunks, chunks),
                    };
                    Block(AtomicU64::new(word))
                })
                .collect(),
        )
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Claims the front chunk of `me`'s block, or `None` when it is
    /// empty.
    fn claim(&self, me: usize) -> Option<u32> {
        let block = &self.0[me].0;
        let mut word = block.load(Ordering::Acquire);
        loop {
            let (front, back) = unpack(word);
            if front >= back {
                return None;
            }
            match block.compare_exchange_weak(
                word,
                pack(front + 1, back),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(front),
                Err(seen) => word = seen,
            }
        }
    }

    /// Takes the back half of the fullest other block and makes it the
    /// block of `me`, whose own block must be empty. Returns `false`
    /// once every other block is empty.
    ///
    /// A block's word is its whole state, so a cut whose CAS finds the
    /// word it read is valid even if the block was emptied and refilled
    /// in between: thieves never cut an empty block, and only its owner
    /// refills it.
    fn steal(&self, me: usize) -> bool {
        loop {
            let mut victim = None;
            let mut most = 0;
            for (w, block) in self.0.iter().enumerate() {
                let word = block.0.load(Ordering::Acquire);
                let (front, back) = unpack(word);
                if w != me && back.saturating_sub(front) > most {
                    most = back - front;
                    victim = Some((w, word));
                }
            }
            let Some((w, word)) = victim else {
                return false;
            };
            let (front, back) = unpack(word);
            let mid = front + (back - front) / 2;
            let cut = self.0[w].0.compare_exchange(
                word,
                pack(front, mid),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            if cut.is_ok() {
                self.0[me].0.store(pack(mid, back), Ordering::Release);
                return true;
            }
        }
    }
}

/// Runs `f(offset, chunk)` over disjoint `grain`-sized chunks of `data`.
pub fn for_each_chunk<T, F>(data: &[T], grain: usize, f: F)
where
    T: Sync,
    F: Fn(usize, &[T]) + Sync,
{
    parallel_for(0..data.len(), grain, |r| f(r.start, &data[r]));
}

/// Runs `f(offset, chunk)` over disjoint mutable chunks of `data`.
///
/// Every element is visited exactly once; chunks handed to different
/// workers never overlap, which is what makes the aliasing below sound.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    let ptr = SendPtr(data.as_mut_ptr());
    parallel_for(0..len, grain, |r| {
        // SAFETY: `parallel_for` hands out disjoint ranges of `0..len`,
        // so each `from_raw_parts_mut` covers elements no other worker
        // touches, and the borrow of `data` outlives the region because
        // `parallel_for` blocks until completion.
        let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
        f(r.start, chunk);
    });
}

/// Builds a `Vec<T>` of length `n` by computing each element in parallel.
///
/// `f(i)` must be pure with respect to the index; elements are written
/// exactly once.
pub fn parallel_init<T, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit<T>` needs no initialization, and the capacity
    // was just reserved.
    unsafe { out.set_len(n) };
    for_each_chunk_mut(&mut out, grain, |offset, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            slot.write(f(offset + i));
        }
    });
    // SAFETY: every slot in `0..n` was written exactly once above, so
    // the vector is fully initialized; `MaybeUninit<T>` and `T` have the
    // same layout.
    unsafe {
        let mut out = std::mem::ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), out.len(), out.capacity())
    }
}

/// Raw pointer wrapper that may cross thread boundaries.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Returns the wrapped pointer (forces whole-struct closure capture).
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced through disjoint chunks (see
// `for_each_chunk_mut`), so concurrent access never aliases.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same reasoning — the wrapper itself exposes no shared access.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let n = 100_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(0..n, 777, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        parallel_for(5..5, 16, |_| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_small_range_runs_inline() {
        let hits = AtomicU64::new(0);
        parallel_for(0..3, 100, |r| {
            assert_eq!(r, 0..3);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reduce_sums_match_sequential() {
        let data: Vec<u64> = (0..50_000).map(|i| i * 3 + 1).collect();
        let expected: u64 = data.iter().sum();
        let got = parallel_reduce(
            0..data.len(),
            1000,
            || 0u64,
            |acc, r| acc + data[r].iter().sum::<u64>(),
            |a, b| a + b,
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let got = parallel_reduce(0..0, 8, || 42u32, |a, _| a + 1, |a, b| a + b);
        assert_eq!(got, 42);
    }

    #[test]
    fn chunk_mut_touches_every_element_once() {
        let mut data = vec![0u32; 12_345];
        for_each_chunk_mut(&mut data, 128, |offset, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x += (offset + i) as u32;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i as u32);
        }
    }

    #[test]
    fn parallel_init_matches_serial() {
        let v = parallel_init(10_000, 64, |i| i as u64 * 2);
        assert_eq!(v.len(), 10_000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64 * 2);
        }
    }

    #[test]
    fn parallel_init_empty() {
        let v: Vec<u8> = parallel_init(0, 64, |_| 0);
        assert!(v.is_empty());
    }

    #[test]
    fn parallel_init_drops_values_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let v = parallel_init(1000, 32, |_| Tracked);
        drop(v);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1000);
    }

    /// Drives `blocks` the way `Schedule::sweep` does, one step at a
    /// time on one thread: at each step `pick` chooses which live
    /// worker moves next. Returns the chunks each worker claimed, in
    /// claim order, and the number of steals each performed.
    fn simulate(blocks: &Blocks, mut pick: impl FnMut() -> usize) -> (Vec<Vec<u32>>, Vec<usize>) {
        let workers = blocks.len();
        let mut claimed = vec![Vec::new(); workers];
        let mut steals = vec![0; workers];
        let mut live: Vec<usize> = (0..workers).collect();
        while !live.is_empty() {
            let i = pick() % live.len();
            let me = live[i];
            if let Some(chunk) = blocks.claim(me) {
                claimed[me].push(chunk);
            } else if blocks.steal(me) {
                steals[me] += 1;
            } else {
                live.swap_remove(i);
            }
        }
        (claimed, steals)
    }

    fn lcg(seed: u64) -> impl FnMut() -> usize {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        }
    }

    #[test]
    fn every_chunk_is_claimed_exactly_once_under_any_interleaving() {
        let seeds = if cfg!(miri) { 2 } else { 64 };
        for seed in 0..seeds {
            for workers in 1..=5 {
                for chunks in [0, 1, 2, 7, 100, 1000] {
                    for storm in [false, true] {
                        let blocks = Blocks::new(chunks, workers, storm);
                        let (claimed, _) = simulate(&blocks, lcg(seed));
                        let mut all: Vec<u32> = claimed.concat();
                        all.sort_unstable();
                        assert_eq!(
                            all,
                            (0..chunks).collect::<Vec<_>>(),
                            "seed {seed}, {workers} workers, {chunks} chunks, storm {storm}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn without_steals_each_worker_sweeps_its_own_block_in_order() {
        let (chunks, workers) = (10, 3);
        let blocks = Blocks::new(chunks, workers, false);
        let swept: Vec<Vec<u32>> = (0..workers)
            .map(|w| std::iter::from_fn(|| blocks.claim(w)).collect())
            .collect();
        // Contiguous blocks in worker order, sizes differing by at most
        // one, each claimed front to back.
        assert_eq!(swept, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8, 9]]);
        assert!((0..workers).all(|w| !blocks.steal(w)));
    }

    #[test]
    fn a_steal_takes_the_back_half_of_the_fullest_block_in_order() {
        let blocks = Blocks::new(12, 3, false);
        // Worker 0 claims one chunk of 0..4; worker 2 drains 8..12.
        assert_eq!(blocks.claim(0), Some(0));
        while blocks.claim(2).is_some() {}
        // Worker 1's block 4..8 is now the fullest (4 chunks vs 3).
        assert!(blocks.steal(2));
        assert_eq!(unpack(blocks.0[1].0.load(Ordering::Relaxed)), (4, 6));
        let stolen: Vec<u32> = std::iter::from_fn(|| blocks.claim(2)).collect();
        assert_eq!(stolen, vec![6, 7]);
        // The owner keeps sweeping its front half, in order.
        let kept: Vec<u32> = std::iter::from_fn(|| blocks.claim(1)).collect();
        assert_eq!(kept, vec![4, 5]);
        // A single remaining chunk can be stolen whole.
        let blocks = Blocks::new(2, 2, false);
        assert_eq!(blocks.claim(1), Some(1));
        assert!(blocks.steal(1));
        assert_eq!(blocks.claim(1), Some(0));
        assert_eq!(blocks.claim(0), None);
    }

    #[test]
    fn a_steal_storm_seeds_every_chunk_into_worker_zero() {
        let blocks = Blocks::new(9, 3, true);
        assert_eq!(blocks.claim(1), None);
        assert_eq!(blocks.claim(2), None);
        let (claimed, steals) = simulate(&blocks, lcg(7));
        assert_eq!(claimed.concat().len(), 9);
        assert!(steals[1] + steals[2] > 0, "thieves must steal: {steals:?}");
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_range_of_more_than_u32_max_chunks_coarsens_the_grain() {
        let len = 1usize << 33;
        let (grain, chunks) = plan(len, 1);
        assert!(grain >= 2);
        assert!(chunks as usize * grain >= len);
        assert!((chunks as usize - 1) * grain < len);
        let schedule = Schedule {
            start: 0,
            end: len,
            grain,
            blocks: Blocks::new(chunks, 2, true),
        };
        // Worker 1 steals the back half of the whole range, then sweeps
        // it; only its first chunk is folded before it stops.
        assert!(schedule.blocks.steal(1));
        let mid = chunks / 2;
        assert_eq!(schedule.blocks.claim(1), Some(mid));
        assert_eq!(
            unpack(schedule.blocks.0[1].0.load(Ordering::Relaxed)),
            (mid + 1, chunks)
        );
        // The last chunk ends exactly at the end of the range.
        let last = (chunks as usize - 1) * grain;
        assert_eq!(schedule.end.min(last + grain), len);
    }

    #[test]
    fn the_grain_stays_at_least_one() {
        assert_eq!(plan(10, 0), (1, 10));
        assert_eq!(plan(0, 0), (1, 0));
        assert_eq!(plan(10, 4), (4, 3));
        let hits = AtomicU64::new(0);
        parallel_for(0..10, 0, |r| {
            assert_eq!(r.len(), 1);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn nested_loops_sweep_inline_in_order() {
        let pool = crate::ThreadPool::new(2);
        crate::with_pool(&pool, || {
            crate::broadcast_current(&|_| {
                let seen = parking_lot::Mutex::new(Vec::new());
                parallel_for(0..100, 10, |r| seen.lock().push(r.start));
                assert_eq!(*seen.lock(), (0..100).step_by(10).collect::<Vec<_>>());
            });
        });
    }
}
