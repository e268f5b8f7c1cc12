//! Property tests for the bit-parallel executor's plane layout: a
//! 64-lane plane, full or partial, must behave exactly like that many
//! independent scalar program runs — bit-identical costs, identical
//! outcomes, identical per-arc event sequences, and identical
//! metrics-observed results.
//!
//! The single-word case doubles as the regression anchor for the
//! original `u64` plane path: the same mask-derived corpus that
//! `batch_props` always ran must keep producing the exact scalar bits it
//! always did.

use proptest::prelude::*;
use qpl_graph::batch::{execute_batch, execute_batch_observed, BatchRun, ContextBatch, LANES};
use qpl_graph::context::{Context, RunScratch};
use qpl_graph::graph::GraphBuilder;
use qpl_graph::program::{execute_program_into, StrategyProgram};
use qpl_graph::{ArcId, ArcOutcome, InferenceGraph, NodeId, Strategy};
use qpl_obs::MemorySink;

/// Deterministically builds a random-ish tree from a shape seed (the
/// same generator `properties.rs` uses).
fn graph_for(seed: u64) -> InferenceGraph {
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }
    fn grow(b: &mut GraphBuilder, node: NodeId, depth: usize, state: &mut u64, label: &mut u32) {
        let branch = depth < 4 && lcg(state) % 100 < 55;
        if !branch {
            let c = 1.0 + (lcg(state) % 4) as f64;
            b.retrieval(node, &format!("D{}", *label), c);
            *label += 1;
            return;
        }
        for _ in 0..1 + (lcg(state) % 3) as usize {
            let c = 1.0 + (lcg(state) % 4) as f64;
            let (_, child) = b.reduction(node, &format!("R{}", *label), c, "goal");
            *label += 1;
            grow(b, child, depth + 1, state, label);
        }
    }
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut b = GraphBuilder::new("root");
    let root = b.root();
    let mut label = 0;
    for _ in 0..1 + (lcg(&mut state) % 3) as usize {
        let c = 1.0 + (lcg(&mut state) % 4) as f64;
        let (_, child) = b.reduction(root, &format!("R{label}"), c, "goal");
        label += 1;
        grow(&mut b, child, 1, &mut state, &mut label);
    }
    b.finish().expect("generated trees are valid")
}

/// Deterministic per-lane context: arc `i` blocked iff bit `i % 64` of
/// `mask` is set (the `batch_props` corpus shape).
fn context_from_mask(g: &InferenceGraph, mask: u64) -> Context {
    let mut i = 0usize;
    Context::from_fn(g, |_| {
        let blocked = (mask >> (i % 64)) & 1 == 1;
        i += 1;
        blocked
    })
}

/// Lane `l`'s context for a plane: the seed mask rotated by lane, so
/// every lane differs and word boundaries carry distinct patterns.
fn lane_context(g: &InferenceGraph, seed_mask: u64, lane: usize) -> Context {
    context_from_mask(g, seed_mask.rotate_left((lane as u32).wrapping_mul(7)))
}

/// Checks one `lanes`-wide plane against `lanes` scalar runs of the
/// same program: cost bits, outcomes, and reconstructed event lists.
fn assert_plane_matches_scalar(
    g: &InferenceGraph,
    p: &StrategyProgram,
    seed_mask: u64,
    lanes: usize,
) {
    let mut batch = ContextBatch::new(g.arc_count(), lanes);
    for lane in 0..lanes {
        batch.set_lane(lane, &lane_context(g, seed_mask, lane));
    }

    let mut run = BatchRun::new();
    let mut sink = MemorySink::new();
    let succeeded = execute_batch_observed(p, &batch, !0, &mut run, &mut sink);
    assert_eq!(sink.counter_total("graph.batch.lanes"), lanes as u64);

    let mut scratch = RunScratch::new(g);
    let mut events: Vec<(ArcId, ArcOutcome)> = Vec::new();
    for lane in 0..lanes {
        let ctx = lane_context(g, seed_mask, lane);
        let scalar_outcome = execute_program_into(p, &ctx, &mut scratch);
        assert_eq!(run.outcome(lane), scalar_outcome, "lane {lane} of {lanes}: outcome");
        assert_eq!(
            run.cost(lane).to_bits(),
            scratch.cost().to_bits(),
            "lane {lane} of {lanes}: cost bits"
        );
        assert_eq!(
            succeeded & (1u64 << lane) != 0,
            scalar_outcome.is_success(),
            "lane {lane} of {lanes}: success mask"
        );
        run.events_into(p, lane, &mut events);
        assert_eq!(events, scratch.events(), "lane {lane} of {lanes}: event sequence");
        for (a, outcome) in scratch.events() {
            assert_eq!(run.outcome_in(lane, *a), Some(*outcome), "lane {lane}: outcome_in");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) A full 64-lane plane and a partial one each equal that many
    /// independent scalar runs, including the observed entry point.
    #[test]
    fn full_and_partial_planes_match_independent_scalar_runs(
        graph_seed in 0u64..32,
        seed_mask in proptest::num::u64::ANY,
        fill in 1usize..=LANES,
    ) {
        let g = graph_for(graph_seed);
        let strategy = Strategy::left_to_right(&g);
        let p = StrategyProgram::compile(&g, &strategy)
            .expect("left-to-right strategies are path-form");
        // The partial plane exercises the tail of the word.
        assert_plane_matches_scalar(&g, &p, seed_mask, LANES);
        assert_plane_matches_scalar(&g, &p, seed_mask, fill);
    }

    /// (b) The plane reproduces the original single-`u64` behavior
    /// bit-for-bit on the `batch_props` corpus: a 64-lane plane driven
    /// by an arbitrary active mask.
    #[test]
    fn width_one_is_bit_identical_to_the_single_word_path(
        graph_seed in 0u64..32,
        seed_mask in proptest::num::u64::ANY,
        active_bits in proptest::num::u64::ANY,
    ) {
        let g = graph_for(graph_seed);
        let strategy = Strategy::left_to_right(&g);
        let p = StrategyProgram::compile(&g, &strategy)
            .expect("left-to-right strategies are path-form");
        let mut batch = ContextBatch::new(g.arc_count(), LANES);
        for lane in 0..LANES {
            batch.set_lane(lane, &lane_context(&g, seed_mask, lane));
        }
        let mut run = BatchRun::new();
        let succeeded = execute_batch(&p, &batch, active_bits, &mut run);
        let mut scratch = RunScratch::new(&g);
        for lane in 0..LANES {
            if active_bits & (1u64 << lane) == 0 {
                prop_assert_eq!(run.cost(lane).to_bits(), 0f64.to_bits(), "inactive lane is idle");
                prop_assert!(succeeded & (1u64 << lane) == 0);
                continue;
            }
            let ctx = lane_context(&g, seed_mask, lane);
            let scalar_outcome = execute_program_into(&p, &ctx, &mut scratch);
            prop_assert_eq!(run.outcome(lane), scalar_outcome);
            prop_assert_eq!(run.cost(lane).to_bits(), scratch.cost().to_bits());
        }
    }
}
