//! Measures the strategy-program compiler and the bit-parallel batch
//! executor against the scalar tree-walk, emitting `BENCH_program.json`.
//!
//! ```text
//! bench_program [--out BENCH_program.json] [--samples N]
//! ```
//!
//! Three execution paths answer the same pre-sampled context stream on
//! the layered-tree workload the tabling experiment (E18) and the
//! parallel harness benchmark draw from:
//!
//! * `scalar tree-walk` — [`cost_into`] walking `Strategy` arc order
//!   with HashMap-free scratch (the seed's hot loop);
//! * `compiled program` — [`program_cost_into`] over the flat
//!   jump-threaded [`StrategyProgram`];
//! * `bit-parallel batch` — [`execute_batch`] over 64-lane
//!   [`ContextBatch`] planes.
//!
//! Total cost sums are asserted bit-identical across all three paths
//! (the lane/index drain order matches the scalar sample order), and a
//! PIB end-to-end section checks the batched learner reaches the same
//! strategy at the same throughput gain. Sampling happens outside the
//! timed region: this benchmark prices the execution loop itself.

use qpl_core::{Pib, PibConfig};
use qpl_engine::par::sample_rng;
use qpl_graph::batch::{execute_batch, BatchRun, ContextBatch, LANES};
use qpl_graph::context::{cost_into, Context, RunScratch};
use qpl_graph::expected::ContextDistribution;
use qpl_graph::program::{program_cost_into, StrategyProgram};
use qpl_graph::Strategy;
use qpl_workload::generator::{random_retrieval_model, random_tree_with_retrievals, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Pre-sampled context stream: scalar contexts plus the same stream
/// packed into 64-lane batches (lane `l` of batch `b` is sample
/// `b * LANES + l`, drawn from the identical per-index RNG).
struct Stream {
    contexts: Vec<Context>,
    batches: Vec<ContextBatch>,
}

fn sample_stream(
    g: &qpl_graph::InferenceGraph,
    model: &dyn ContextDistribution,
    seed: u64,
    n: usize,
) -> Stream {
    let mut contexts = Vec::with_capacity(n);
    let mut ctx = Context::all_open(g);
    for i in 0..n {
        let mut rng = sample_rng(seed, i as u64);
        model.sample_into(&mut rng, &mut ctx);
        contexts.push(ctx.clone()); // building the fixture, not the timed loop
    }
    let mut batches = Vec::with_capacity(n.div_ceil(LANES));
    let mut start = 0usize;
    while start < n {
        let lanes = (n - start).min(LANES);
        let mut rngs: Vec<StdRng> =
            (start..start + lanes).map(|i| sample_rng(seed, i as u64)).collect();
        let mut batch = ContextBatch::new(g.arc_count(), lanes);
        model.sample_batch_into(&mut rngs, &mut batch);
        batches.push(batch);
        start += lanes;
    }
    Stream { contexts, batches }
}

/// One workload shape: (contexts/sec, bit-identical sum) per path.
struct ShapeResult {
    retrievals: usize,
    arcs: usize,
    samples: usize,
    walk_cps: f64,
    reuse_cps: f64,
    program_cps: f64,
    batch_cps: f64,
}

fn bench_shape(seed: u64, retrievals: usize, depth: usize, n: usize) -> ShapeResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = TreeParams { max_depth: depth, max_branch: 4, ..Default::default() };
    let g = random_tree_with_retrievals(&mut rng, &params, retrievals, retrievals * 2);
    let model = random_retrieval_model(&mut rng, &g, (0.05, 0.6));
    let theta = Strategy::left_to_right(&g);
    let prog = StrategyProgram::compile(&g, &theta).expect("depth-first tree compiles");
    let stream = sample_stream(&g, &model, seed.wrapping_mul(31), n);

    // Best-of-`REPS` wall time per variant: the repeats defend against
    // scheduler noise on shared machines, and the minimum is the run
    // least polluted by it.
    const REPS: usize = 5;

    // The tree-walk exactly as the repo's Monte-Carlo harness calls it
    // per sample (`cost` allocates its run scratch every call).
    let mut walk_sum = 0.0f64;
    let mut walk_secs = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut sum = 0.0f64;
        for ctx in &stream.contexts {
            sum += qpl_graph::context::cost(&g, &theta, ctx);
        }
        walk_secs = walk_secs.min(t0.elapsed().as_secs_f64());
        walk_sum = sum;
    }

    let mut scratch = RunScratch::new(&g);
    let mut scalar_sum = 0.0f64;
    let mut scalar_secs = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut sum = 0.0f64;
        for ctx in &stream.contexts {
            sum += cost_into(&g, &theta, ctx, &mut scratch);
        }
        scalar_secs = scalar_secs.min(t0.elapsed().as_secs_f64());
        scalar_sum = sum;
    }

    let mut program_sum = 0.0f64;
    let mut program_secs = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut sum = 0.0f64;
        for ctx in &stream.contexts {
            sum += program_cost_into(&prog, ctx, &mut scratch);
        }
        program_secs = program_secs.min(t0.elapsed().as_secs_f64());
        program_sum = sum;
    }

    let mut run = BatchRun::new();
    let mut batch_sum = 0.0f64;
    let mut batch_secs = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut sum = 0.0f64;
        for batch in &stream.batches {
            execute_batch(&prog, batch, batch.active_mask(), &mut run);
            for lane in 0..batch.lanes() {
                sum += run.cost(lane);
            }
        }
        batch_secs = batch_secs.min(t0.elapsed().as_secs_f64());
        batch_sum = sum;
    }

    assert_eq!(walk_sum.to_bits(), scalar_sum.to_bits(), "scratch reuse changed the walk");
    assert_eq!(
        program_sum.to_bits(),
        scalar_sum.to_bits(),
        "compiled program diverged from the tree-walk"
    );
    assert_eq!(
        batch_sum.to_bits(),
        scalar_sum.to_bits(),
        "batch executor diverged from the tree-walk"
    );
    println!(
        "retrievals={retrievals} arcs={}: walk {:.0}/s, walk+reuse {:.0}/s, program {:.0}/s, \
         batch {:.0}/s (sums bit-identical)",
        g.arc_count(),
        n as f64 / walk_secs,
        n as f64 / scalar_secs,
        n as f64 / program_secs,
        n as f64 / batch_secs,
    );
    ShapeResult {
        retrievals,
        arcs: g.arc_count(),
        samples: n,
        walk_cps: n as f64 / walk_secs,
        reuse_cps: n as f64 / scalar_secs,
        program_cps: n as f64 / program_secs,
        batch_cps: n as f64 / batch_secs,
    }
}

/// PIB end-to-end: scalar `observe` vs `observe_batch` on the same
/// stream; asserts the learned strategy is identical before reporting
/// throughput.
fn bench_pib(seed: u64, n: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = TreeParams { max_depth: 6, max_branch: 4, ..Default::default() };
    let g = random_tree_with_retrievals(&mut rng, &params, 32, 64);
    let model = random_retrieval_model(&mut rng, &g, (0.05, 0.6));
    let theta = Strategy::left_to_right(&g);
    let stream = sample_stream(&g, &model, seed.wrapping_mul(17), n);

    let mut scalar = Pib::new(&g, theta.clone(), PibConfig::new(0.1));
    let t0 = Instant::now();
    for ctx in &stream.contexts {
        scalar.observe_quiet(&g, ctx);
    }
    let scalar_secs = t0.elapsed().as_secs_f64();

    let mut batched = Pib::new(&g, theta, PibConfig::new(0.1));
    let t0 = Instant::now();
    for batch in &stream.batches {
        batched.observe_batch(&g, batch);
    }
    let batch_secs = t0.elapsed().as_secs_f64();

    assert_eq!(
        scalar.strategy().arcs(),
        batched.strategy().arcs(),
        "batched PIB learned a different strategy"
    );
    println!(
        "PIB end-to-end: scalar {:.0}/s, batched {:.0}/s (same final strategy)",
        n as f64 / scalar_secs,
        n as f64 / batch_secs,
    );
    (n as f64 / scalar_secs, n as f64 / batch_secs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(pos) if pos + 1 < args.len() => args[pos + 1].clone(),
        _ => "BENCH_program.json".to_string(),
    };
    let n = match args.iter().position(|a| a == "--samples") {
        Some(pos) if pos + 1 < args.len() => {
            args[pos + 1].parse().expect("--samples takes a count")
        }
        _ => 200_000usize,
    };
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);

    let shapes =
        [bench_shape(21, 32, 6, n), bench_shape(22, 128, 8, n), bench_shape(23, 512, 10, n / 4)];
    let shape_rows: Vec<String> = shapes
        .iter()
        .map(|s| {
            format!(
                "    {{\"retrievals\": {}, \"arcs\": {}, \"samples\": {}, \
                 \"tree_walk_per_sec\": {:.0}, \"walk_reuse_per_sec\": {:.0}, \
                 \"program_per_sec\": {:.0}, \"batch_per_sec\": {:.0}, \
                 \"batch_vs_tree_walk\": {:.2}, \"batch_vs_walk_reuse\": {:.2}}}",
                s.retrievals,
                s.arcs,
                s.samples,
                s.walk_cps,
                s.reuse_cps,
                s.program_cps,
                s.batch_cps,
                s.batch_cps / s.walk_cps,
                s.batch_cps / s.reuse_cps
            )
        })
        .collect();

    let (pib_scalar, pib_batch) = bench_pib(24, n / 2);

    let json = format!(
        "{{\n  \"bench\": \"strategy programs + bit-parallel batch execution\",\n  \
         \"cores\": {cores},\n  \
         \"note\": \"tree_walk is the per-sample loop as the MC harness calls it (scratch \
         allocated per call); walk_reuse hoists the scratch; sums asserted bit-identical \
         across all four paths; sampling excluded from timing; best-of-5 reps per variant\",\n  \
         \"execution_throughput\": [\n{}\n  ],\n  \
         \"pib_end_to_end\": {{\"scalar_per_sec\": {pib_scalar:.0}, \
         \"batched_per_sec\": {pib_batch:.0}, \"speedup\": {:.2}}}\n}}\n",
        shape_rows.join(",\n"),
        pib_batch / pib_scalar
    );
    std::fs::write(&out_path, &json).expect("write BENCH_program.json");
    println!("wrote {out_path} (cores={cores})");
}
