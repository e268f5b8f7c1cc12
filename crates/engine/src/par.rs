//! Deterministic scoped-thread batch runner for Monte-Carlo outer loops.
//!
//! The estimators in this repo (PIB's `Δ̃` paired differences, PAO's
//! retrieval counters, the E5/E7/E11/E15 experiment loops) all consume
//! streams of i.i.d. context draws. This module splits such a stream of
//! `n` samples across `W` worker threads **without changing the result**:
//! the aggregate is bit-for-bit identical for any worker count, including
//! `W = 1`.
//!
//! Three ingredients make that hold:
//!
//! 1. **Counter-based seeding.** No RNG state is shared or threaded
//!    between samples. Sample `i` derives its own generator from
//!    `sample_seed(master_seed, i)` (a SplitMix64-style mix), so the
//!    randomness consumed by sample `i` depends only on `(master_seed, i)`
//!    — never on which worker ran it or what ran before it.
//! 2. **Fixed blocking.** The stream is cut into fixed-size blocks
//!    (`ParConfig::block`). Each block is folded into its own fresh
//!    accumulator. Workers claim whole blocks from a shared atomic
//!    counter, so scheduling only decides *who* computes a block, never
//!    *what* the block computes.
//! 3. **Block-ordered merge.** After the scope barrier the per-block
//!    partials are sorted by block index and merged left-to-right. The
//!    merge sequence is therefore a pure function of `(n, block)` — the
//!    same floating-point additions in the same order, every time.
//!
//! The canonical semantics is "merge of per-block folds in block order";
//! the serial `W = 1` path uses the *same* decomposition rather than one
//! long fold, which is what makes 1-vs-N bit-identical (a single whole-
//! stream fold would associate float additions differently).
//!
//! Built on `std::thread::scope` only — no rayon, no crossbeam (see
//! DESIGN.md's dependency-budget note).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker/block configuration for [`batch_fold`] and [`par_map_indexed`].
#[derive(Debug, Clone, Copy)]
pub struct ParConfig {
    /// Number of worker threads (clamped to ≥ 1). Any value yields the
    /// same aggregates; it only changes wall-clock time.
    pub workers: usize,
    /// Samples per block — the unit of work claiming *and* of partial
    /// aggregation. Part of the result's semantics: changing it changes
    /// how float additions associate (changing `workers` does not).
    pub block: usize,
}

impl ParConfig {
    /// Default block size: big enough to amortise claim traffic, small
    /// enough to load-balance a few thousand samples over 8 workers.
    pub const DEFAULT_BLOCK: usize = 64;

    /// `workers` threads with the default block size.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, block: Self::DEFAULT_BLOCK }
    }

    /// One thread per available core (1 if detection fails).
    pub fn auto() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::with_workers(workers)
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        Self::auto()
    }
}

/// Derives the seed for sample `sample_index` of a batch keyed by
/// `master_seed`. SplitMix64 finalisation of the pair: statistically
/// independent streams for distinct indices, and reproducible from the
/// pair alone — the heart of worker-count invariance.
pub fn sample_seed(master_seed: u64, sample_index: u64) -> u64 {
    let mut z = master_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(sample_index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh generator for sample `sample_index` of batch `master_seed`.
pub fn sample_rng(master_seed: u64, sample_index: u64) -> StdRng {
    StdRng::seed_from_u64(sample_seed(master_seed, sample_index))
}

/// Folds samples `0..n` into an accumulator, in parallel, with
/// worker-count-invariant results.
///
/// * `make` builds a fresh (empty) accumulator — called once per block
///   plus once for the final result.
/// * `step` folds sample `i` into a block's accumulator. All per-sample
///   randomness must come from [`sample_rng`]`(seed, i)` (or be otherwise
///   a pure function of `i`) for the invariance guarantee to hold.
/// * `merge` absorbs the partial for the *next* block in index order into
///   the running result (so order-sensitive merges are well-defined).
///
/// # Panics
/// Propagates panics from worker closures.
pub fn batch_fold<A, Mk, St, Mg>(n: usize, cfg: &ParConfig, make: Mk, step: St, merge: Mg) -> A
where
    A: Send,
    Mk: Fn() -> A + Sync,
    St: Fn(&mut A, usize) + Sync,
    Mg: Fn(&mut A, A),
{
    batch_fold_scratch(n, cfg, &make, || (), |acc, (), i| step(acc, i), merge)
}

/// [`batch_fold`] with a **per-worker scratch**: each worker thread builds
/// one scratch value with `make_scratch` when it starts and carries it
/// across every block it claims; `step` receives it alongside the block
/// accumulator. The serial `W = 1` path uses a single scratch for the
/// whole stream.
///
/// The scratch is for *memoization and buffer reuse only* — per-worker
/// [`CrossContextCache`](crate::cache::CrossContextCache)s, reusable
/// [`RunScratch`](qpl_graph::context::RunScratch)es, preallocated
/// [`Context`](qpl_graph::context::Context) buffers. Which blocks share a
/// scratch depends on scheduling, so worker-count invariance holds **iff
/// `step`'s effect on the accumulator is independent of the scratch's
/// contents** (a warm cache may make a sample faster, never different).
/// Scratch-derived *statistics* (hit rates etc.) are scheduling-dependent
/// by nature; folding them into the accumulator is allowed, but only the
/// scratch-independent components remain worker-count invariant — report
/// and assert cache statistics from a serial (`workers: 1`) run only.
///
/// # Panics
/// Propagates panics from worker closures.
pub fn batch_fold_scratch<A, S, MkA, MkS, St, Mg>(
    n: usize,
    cfg: &ParConfig,
    make: MkA,
    make_scratch: MkS,
    step: St,
    merge: Mg,
) -> A
where
    A: Send,
    MkA: Fn() -> A + Sync,
    MkS: Fn() -> S + Sync,
    St: Fn(&mut A, &mut S, usize) + Sync,
    Mg: Fn(&mut A, A),
{
    let block = cfg.block.max(1);
    let fold_block = |scratch: &mut S, b: usize| {
        let mut acc = make();
        for i in (b * block)..((b + 1) * block).min(n) {
            step(&mut acc, scratch, i);
        }
        (b, acc)
    };
    let n_blocks = n.div_ceil(block);
    let mut partials = run_blocks_scratch(n_blocks, cfg.workers, &make_scratch, &fold_block);
    partials.sort_by_key(|(b, _)| *b);
    let mut out = make();
    for (_, part) in partials {
        merge(&mut out, part);
    }
    out
}

/// Maps `f` over `0..n` in parallel and returns the results **in index
/// order** (`out[i] = f(i)`). Use for experiment outer loops whose trials
/// are independent but whose aggregation is order-sensitive: compute in
/// parallel, aggregate serially in trial order, and the output is
/// identical to the old serial loop.
///
/// # Panics
/// Propagates panics from worker closures.
pub fn par_map_indexed<T, F>(n: usize, cfg: &ParConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let produce = |i: usize| (i, f(i));
    let pairs = run_blocks(n, cfg.workers, &produce);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for (i, v) in pairs {
        out[i] = Some(v);
    }
    out.into_iter().map(|slot| slot.expect("every index produced exactly once")).collect()
}

/// Runs `job(0..n_jobs)` across `workers` scoped threads with atomic
/// claiming, returning the results in completion order (callers that
/// care re-order by the index `job` embeds in its output).
fn run_blocks<T, F>(n_jobs: usize, workers: usize, job: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_blocks_scratch(n_jobs, workers, &|| (), &|(), b| job(b))
}

/// [`run_blocks`] with a per-worker scratch: each thread builds one
/// scratch on entry (so `S` need not be `Send`) and threads it through
/// every job it claims.
fn run_blocks_scratch<S, T, MkS, F>(
    n_jobs: usize,
    workers: usize,
    make_scratch: &MkS,
    job: &F,
) -> Vec<T>
where
    T: Send,
    MkS: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = workers.max(1).min(n_jobs.max(1));
    if workers == 1 {
        let mut scratch = make_scratch();
        return (0..n_jobs).map(|b| job(&mut scratch, b)).collect();
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut scratch = make_scratch();
                    let mut local = Vec::new();
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= n_jobs {
                            break;
                        }
                        local.push(job(&mut scratch, b));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("batch worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    fn fold_sums(n: usize, workers: usize, block: usize) -> (f64, u64) {
        let cfg = ParConfig { workers, block };
        batch_fold(
            n,
            &cfg,
            || (0.0f64, 0u64),
            |acc, i| {
                let mut rng = sample_rng(42, i as u64);
                acc.0 += rng.gen::<f64>();
                acc.1 += 1;
            },
            |acc, part| {
                acc.0 += part.0;
                acc.1 += part.1;
            },
        )
    }

    #[test]
    fn batch_fold_is_worker_count_invariant() {
        let (base_sum, base_count) = fold_sums(1000, 1, 64);
        assert_eq!(base_count, 1000);
        for workers in [2, 3, 4, 8] {
            let (sum, count) = fold_sums(1000, workers, 64);
            assert_eq!(count, 1000);
            assert_eq!(sum.to_bits(), base_sum.to_bits(), "W={workers} diverged from W=1");
        }
    }

    #[test]
    fn batch_fold_scratch_is_worker_count_invariant() {
        use std::collections::HashMap;
        // The scratch memoizes a pure function of the sample's class, so a
        // warm memo changes speed, never results — the contract under which
        // per-worker caches preserve worker-count invariance.
        let run = |workers: usize| {
            let cfg = ParConfig { workers, block: 16 };
            batch_fold_scratch(
                500,
                &cfg,
                || 0.0f64,
                HashMap::<u64, f64>::new,
                |acc, memo, i| {
                    let class = (i % 7) as u64;
                    let v = *memo.entry(class).or_insert_with(|| sample_rng(9, class).gen::<f64>());
                    *acc += v;
                },
                |acc, part| *acc += part,
            )
        };
        let base = run(1);
        for w in [2, 3, 8] {
            assert_eq!(run(w).to_bits(), base.to_bits(), "W={w} diverged from W=1");
        }
    }

    #[test]
    fn batch_fold_handles_ragged_tail_and_empty() {
        let (a, n_a) = fold_sums(130, 1, 64); // 64 + 64 + 2
        let (b, n_b) = fold_sums(130, 4, 64);
        assert_eq!((n_a, a.to_bits()), (n_b, b.to_bits()));
        let (zero, n_zero) = fold_sums(0, 4, 64);
        assert_eq!((zero, n_zero), (0.0, 0));
    }

    #[test]
    fn block_size_is_semantic_worker_count_is_not() {
        // Same samples, different blocking: counts agree and sums agree to
        // rounding, but the association of additions legitimately differs.
        let (a, _) = fold_sums(1000, 1, 64);
        let (b, _) = fold_sums(1000, 1, 128);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn par_map_indexed_preserves_index_order() {
        for workers in [1, 2, 4] {
            let cfg = ParConfig { workers, block: 8 };
            let out = par_map_indexed(100, &cfg, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sample_seed_decorrelates_neighbours() {
        let a = sample_seed(7, 0);
        let b = sample_seed(7, 1);
        let c = sample_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Streams from adjacent indices should not be shifted copies.
        let mut r0 = sample_rng(7, 0);
        let mut r1 = sample_rng(7, 1);
        let s0: Vec<u64> = (0..4).map(|_| r0.next_u64()).collect();
        let s1: Vec<u64> = (0..4).map(|_| r1.next_u64()).collect();
        assert_ne!(s0, s1);
    }
}
