//! Property tests for the dynamic batcher: under arbitrary arrival
//! patterns, queue bounds, and flush deadlines —
//!
//! * every offered request is either served exactly once or shed with
//!   an explicit refusal (never dropped, never double-served, never
//!   split across planes),
//! * every cut plane holds at most 64 lanes, even when a backlog queues
//!   many times that, and
//! * executing the cut planes bit-parallel produces exactly the
//!   per-lane cost (f64 bit pattern) and outcome that scalar execution
//!   of the same context produces.
//!
//! The batcher takes `Instant`s from the caller, so the tests drive it
//! with a synthetic clock — no sleeps, fully deterministic.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::{collection, num};
use qpl_graph::batch::{execute_batch, BatchRun, ContextBatch, LANES};
use qpl_graph::context::{Context, RunScratch};
use qpl_graph::program::{execute_program_into, StrategyProgram};
use qpl_graph::{InferenceGraph, Strategy};
use qpl_serve::batcher::{plane_width_for_depth, Batcher, LaneWeight};
use qpl_workload::generator::{random_tree_with_retrievals, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Req {
    id: usize,
    contexts: Vec<Context>,
}

impl LaneWeight for Req {
    fn lanes(&self) -> usize {
        self.contexts.len()
    }
}

fn graph_for(seed: u64) -> InferenceGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    random_tree_with_retrievals(&mut rng, &TreeParams::default(), 4, 8)
}

/// Deterministic per-lane context from a bit mask (arc `i` blocked iff
/// bit `i % 64` of `mask` is set).
fn context_from_mask(g: &InferenceGraph, mask: u64) -> Context {
    let mut i = 0usize;
    Context::from_fn(g, |_| {
        let blocked = (mask >> (i % 64)) & 1 == 1;
        i += 1;
        blocked
    })
}

/// Cuts one plane, executes it bit-parallel, and checks every lane
/// against scalar execution of the same context. Returns the ids served.
fn serve_plane(
    g: &InferenceGraph,
    p: &StrategyProgram,
    batcher: &mut Batcher<Req>,
    plane_buf: &mut Vec<(Req, Instant)>,
) -> Vec<usize> {
    // Cut the way the serving benchmark's replay does; whatever the
    // queue depth, a plane is one 64-lane word.
    let lanes = batcher.cut_plane(plane_width_for_depth(batcher.lanes_queued()) * LANES, plane_buf);
    assert!(lanes <= LANES, "a plane never exceeds 64 lanes");
    let contexts: Vec<&Context> =
        plane_buf.iter().flat_map(|(req, _)| req.contexts.iter()).collect();
    assert_eq!(contexts.len(), lanes, "jobs are whole: lane sums match the cut");

    if lanes > 0 {
        let mut batch = ContextBatch::new(g.arc_count(), lanes);
        for (lane, ctx) in contexts.iter().enumerate() {
            batch.set_lane(lane, ctx);
        }
        let mut run = BatchRun::new();
        execute_batch(p, &batch, batch.active_mask(), &mut run);
        let mut scratch = RunScratch::new(g);
        for (lane, ctx) in contexts.iter().enumerate() {
            let scalar_outcome = execute_program_into(p, ctx, &mut scratch);
            assert_eq!(
                run.outcome(lane),
                scalar_outcome,
                "lane {lane}: batched outcome equals scalar execution"
            );
            assert_eq!(
                run.cost(lane).to_bits(),
                scratch.cost().to_bits(),
                "lane {lane}: batched cost is bit-identical to scalar execution"
            );
        }
    }
    plane_buf.drain(..).map(|(req, _)| req.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_arrivals_serve_once_or_shed_and_match_scalar(
        graph_seed in 0u64..32,
        jobs in collection::vec((1usize..=3, num::u64::ANY, 0u64..4), 1..48),
        cap in 8usize..96,
        wait_ms in 1u64..8,
        backlog in collection::vec((1usize..=LANES, num::u64::ANY), 0..24),
        backlog_cap in 0usize..1024,
    ) {
        let g = graph_for(graph_seed);
        let strategy = Strategy::left_to_right(&g);
        let p = StrategyProgram::compile(&g, &strategy)
            .expect("left-to-right strategies are path-form");
        let wait = Duration::from_millis(wait_ms);

        let t0 = Instant::now();
        let mut now = t0;
        let mut batcher: Batcher<Req> = Batcher::new(cap + backlog_cap);
        let mut plane_buf = Vec::new();
        let mut fates: BTreeMap<usize, &'static str> = BTreeMap::new();
        let record = |fates: &mut BTreeMap<usize, &'static str>, id: usize, fate| {
            prop_assert!(
                fates.insert(id, fate).is_none(),
                "request {id} got two fates — double-served or double-shed"
            );
            Ok(())
        };

        // A backlog arrives while the executor is busy: no plane is cut
        // until the whole burst is offered, so the queue can hold many
        // planes' worth of lanes.
        let mut backlog_lanes = 0;
        for (id, (w, mask)) in backlog.iter().enumerate() {
            let contexts = (0..*w)
                .map(|lane| context_from_mask(&g, mask.rotate_left(lane as u32 * 7)))
                .collect();
            match batcher.offer(Req { id, contexts }, now) {
                Ok(()) => backlog_lanes += w,
                Err(_) => record(&mut fates, id, "shed")?,
            }
        }
        prop_assert_eq!(batcher.lanes_queued(), backlog_lanes);

        for (i, (w, mask, gap_ms)) in jobs.iter().enumerate() {
            let id = backlog.len() + i;
            now += Duration::from_millis(*gap_ms);
            // The executor cuts every plane that is due before this arrival.
            while batcher.ready(now, wait) {
                for sid in serve_plane(&g, &p, &mut batcher, &mut plane_buf) {
                    record(&mut fates, sid, "served")?;
                }
            }
            let contexts = (0..*w)
                .map(|lane| context_from_mask(&g, mask.rotate_left(lane as u32 * 7)))
                .collect();
            if batcher.offer(Req { id, contexts }, now).is_err() {
                record(&mut fates, id, "shed")?;
            }
        }
        // Drain (what the executor does on shutdown): flush everything.
        while !batcher.is_empty() {
            for sid in serve_plane(&g, &p, &mut batcher, &mut plane_buf) {
                record(&mut fates, sid, "served")?;
            }
        }

        let offered = backlog.len() + jobs.len();
        prop_assert_eq!(
            fates.len(),
            offered,
            "every request has exactly one fate — none dropped"
        );
        let served = fates.values().filter(|f| **f == "served").count();
        let shed = fates.values().filter(|f| **f == "shed").count();
        prop_assert_eq!(served + shed, offered);
        prop_assert_eq!(shed as u64, batcher.shed_count());
        prop_assert_eq!(served as u64, batcher.admitted_count());
    }
}
