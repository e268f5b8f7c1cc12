//! Bit-parallel batched context execution.
//!
//! A [`ContextBatch`] stores up to [`LANES`] (64) sampled contexts in
//! structure-of-arrays form: one `u64` *blocked-bitplane per arc*, bit
//! `l` of plane `a` giving lane `l`'s blocked status for arc `a`.
//! [`execute_batch`] then runs a compiled [`StrategyProgram`] over all
//! lanes at once: each instruction ANDs the alive mask with the
//! traversed-plane of its source's parent arc (the bit-parallel form of
//! the scalar `reached[from]` check), pays its cost to every attempting
//! lane, and splits the attempt mask into traversed/blocked planes with
//! three bitwise ops. Lanes retire from `alive` the moment they succeed.
//!
//! Because lanes diverge, the batch executor cannot jump-thread the way
//! the scalar program does — it visits every instruction — but an
//! instruction whose attempt mask is zero costs two loads and an AND, so
//! the per-lane amortized work is still far below one tree-walk.
//!
//! ## Determinism contract
//!
//! Batch results are bit-identical to `lanes` scalar program runs,
//! lane-for-lane: per-lane cost accumulators add the same `f64`s in the
//! same (instruction) order the scalar executor would, outcomes and
//! reconstructed event sequences ([`BatchRun::events_into`]) match
//! exactly, and [`BatchRun::completion_into`] reproduces
//! [`crate::pessimistic_completion`] in plane form. Combined with the
//! engine's fixed 64-sample blocks (`DEFAULT_BLOCK`), one batch = one
//! block, so batched learners make byte-identical decisions at every
//! worker count.
//!
//! An `active` input mask (a `u64`, bit `l` = lane `l`) supports
//! mid-batch restarts: when a learner climbs to a new strategy halfway
//! through draining a batch, the remaining lanes re-run under the new
//! program with the drained lanes masked out.

use crate::context::{ArcOutcome, Context, RunOutcome};
use crate::error::GraphError;
use crate::graph::{ArcId, ArcKind, InferenceGraph};
use crate::program::{StrategyProgram, NO_INDEX};

/// Number of context lanes in one plane word — the most lanes one batch
/// holds, and the engine's deterministic sampling block size.
pub const LANES: usize = 64;

/// Mask selecting lanes `0..lanes` (all 64 when `lanes ≥ LANES`) — the
/// one place the "shift by 64 overflows" edge is handled.
#[inline]
fn first_lanes(lanes: usize) -> u64 {
    if lanes >= LANES {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// Mask selecting lanes `from..lanes` — the shape of a mid-batch
/// restart, with already-drained lanes masked out.
///
/// # Panics
/// Debug-panics unless `from ≤ lanes ≤ 64`.
pub fn lanes_from(from: usize, lanes: usize) -> u64 {
    debug_assert!(from <= lanes && lanes <= LANES);
    first_lanes(lanes) & !first_lanes(from)
}

/// Rejects a lane count no plane can hold.
fn check_lanes(lanes: usize) -> Result<(), GraphError> {
    if lanes > LANES {
        return Err(GraphError::BatchShape(format!("{lanes} lanes exceed the {LANES} maximum")));
    }
    Ok(())
}

/// Up to [`LANES`] contexts in structure-of-arrays form: one `u64`
/// blocked-bitplane per arc, bit `l` = lane `l`'s status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextBatch {
    planes: Vec<u64>,
    lanes: usize,
}

impl ContextBatch {
    /// An all-open batch of `lanes` contexts over `arc_count` arcs.
    ///
    /// # Panics
    /// Invariant assert: panics if `lanes` exceeds [`LANES`]. Internal
    /// hot paths size batches from [`LANES`] itself; code handling
    /// untrusted lane counts (a serving front door) should use
    /// [`try_new`](Self::try_new).
    pub fn new(arc_count: usize, lanes: usize) -> Self {
        assert!(lanes <= LANES, "at most {LANES} lanes per batch");
        Self { planes: vec![0; arc_count], lanes }
    }

    /// Fallible [`new`](Self::new): rejects `lanes > LANES` with a typed
    /// error instead of panicking.
    ///
    /// # Errors
    /// [`GraphError::BatchShape`] if `lanes` exceeds [`LANES`].
    pub fn try_new(arc_count: usize, lanes: usize) -> Result<Self, GraphError> {
        check_lanes(lanes)?;
        Ok(Self::new(arc_count, lanes))
    }

    /// Clears and resizes this batch in place (buffer-reuse counterpart
    /// of [`new`](Self::new)).
    ///
    /// # Panics
    /// Invariant assert: panics if `lanes` exceeds [`LANES`] (see
    /// [`new`](Self::new); use [`try_reset`](Self::try_reset) on
    /// untrusted input).
    pub fn reset(&mut self, arc_count: usize, lanes: usize) {
        assert!(lanes <= LANES, "at most {LANES} lanes per batch");
        self.planes.clear();
        self.planes.resize(arc_count, 0);
        self.lanes = lanes;
    }

    /// Fallible [`reset`](Self::reset).
    ///
    /// # Errors
    /// [`GraphError::BatchShape`] if `lanes` exceeds [`LANES`]; the
    /// batch is left untouched on error.
    pub fn try_reset(&mut self, arc_count: usize, lanes: usize) -> Result<(), GraphError> {
        check_lanes(lanes)?;
        self.reset(arc_count, lanes);
        Ok(())
    }

    /// Number of arcs each lane covers.
    pub fn arc_count(&self) -> usize {
        self.planes.len()
    }

    /// Number of occupied lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mask with one bit set per occupied lane.
    pub fn active_mask(&self) -> u64 {
        first_lanes(self.lanes)
    }

    /// The blocked-bitplane of `a`.
    pub fn plane(&self, a: ArcId) -> u64 {
        self.planes[a.index()]
    }

    /// Whether `a` is blocked in lane `lane`.
    pub fn is_blocked(&self, lane: usize, a: ArcId) -> bool {
        debug_assert!(lane < self.lanes);
        self.planes[a.index()] & (1u64 << lane) != 0
    }

    /// Sets the blocked status of `a` in lane `lane`.
    pub fn set_blocked(&mut self, lane: usize, a: ArcId, blocked: bool) {
        debug_assert!(lane < self.lanes);
        write_bit(&mut self.planes[a.index()], 1u64 << lane, blocked);
    }

    /// Copies a scalar context into lane `lane`: a branch-free masked
    /// write per arc, through the same bit-write helper
    /// [`set_blocked`](Self::set_blocked) uses.
    ///
    /// # Panics
    /// Invariant assert: panics if the context's arc count differs from
    /// the batch's — both must come from the same graph, which internal
    /// callers guarantee by construction. Use
    /// [`try_set_lane`](Self::try_set_lane) on untrusted input.
    pub fn set_lane(&mut self, lane: usize, ctx: &Context) {
        assert_eq!(ctx.arc_count(), self.planes.len(), "context/batch arc-count mismatch");
        debug_assert!(lane < self.lanes);
        let bit = 1u64 << lane;
        for (plane, &blocked) in self.planes.iter_mut().zip(&ctx.blocked) {
            write_bit(plane, bit, blocked);
        }
    }

    /// Fallible [`set_lane`](Self::set_lane).
    ///
    /// # Errors
    /// [`GraphError::BatchShape`] if `lane` is not an occupied lane or
    /// the context's arc count differs from the batch's.
    pub fn try_set_lane(&mut self, lane: usize, ctx: &Context) -> Result<(), GraphError> {
        if lane >= self.lanes {
            return Err(GraphError::BatchShape(format!(
                "lane {lane} outside the {} occupied lanes",
                self.lanes
            )));
        }
        if ctx.arc_count() != self.arc_count() {
            return Err(GraphError::BatchShape(format!(
                "context covers {} arcs but the batch covers {}",
                ctx.arc_count(),
                self.arc_count()
            )));
        }
        self.set_lane(lane, ctx);
        Ok(())
    }

    /// Copies lane `lane` out into a scalar context (resizing it to fit).
    pub fn extract_lane(&self, lane: usize, out: &mut Context) {
        debug_assert!(lane < self.lanes);
        let bit = 1u64 << lane;
        out.blocked.clear();
        out.blocked.extend(self.planes.iter().map(|p| p & bit != 0));
    }
}

/// Writes one lane's bit into a plane word without branching: clear the
/// bit, then OR it back in iff `blocked`. Micro-asserted equal to the
/// branchy `if blocked { |= } else { &= ! }` form it replaced.
#[inline]
fn write_bit(plane: &mut u64, bit: u64, blocked: bool) {
    let next = (*plane & !bit) | ((blocked as u64).wrapping_neg() & bit);
    debug_assert_eq!(next, if blocked { *plane | bit } else { *plane & !bit });
    *plane = next;
}

/// Result planes of one batched program execution: per-arc attempted /
/// traversed masks, per-lane cost accumulators, and terminal outcomes.
#[derive(Debug, Clone)]
pub struct BatchRun {
    attempted: Vec<u64>,
    traversed: Vec<u64>,
    cost: [f64; LANES],
    success_arc: [u32; LANES],
    succeeded: u64,
    active_in: u64,
}

impl BatchRun {
    /// An empty result buffer, reusable across executions.
    pub fn new() -> Self {
        Self {
            attempted: Vec::new(),
            traversed: Vec::new(),
            cost: [0.0; LANES],
            success_arc: [NO_INDEX; LANES],
            succeeded: 0,
            active_in: 0,
        }
    }

    fn begin(&mut self, arc_count: usize, active: u64) {
        self.attempted.clear();
        self.attempted.resize(arc_count, 0);
        self.traversed.clear();
        self.traversed.resize(arc_count, 0);
        self.cost = [0.0; LANES];
        self.success_arc = [NO_INDEX; LANES];
        self.succeeded = 0;
        self.active_in = active;
    }

    /// The lanes this run actually executed (input mask ∧ occupancy).
    pub fn active_in(&self) -> u64 {
        self.active_in
    }

    /// Mask of lanes whose run succeeded.
    pub fn succeeded_mask(&self) -> u64 {
        self.succeeded
    }

    /// Attempted-plane of `a` (bit `l` = lane `l` paid the arc's cost).
    pub fn attempted_plane(&self, a: ArcId) -> u64 {
        self.attempted[a.index()]
    }

    /// Traversed-plane of `a`.
    pub fn traversed_plane(&self, a: ArcId) -> u64 {
        self.traversed[a.index()]
    }

    /// Lane `lane`'s total run cost.
    pub fn cost(&self, lane: usize) -> f64 {
        self.cost[lane]
    }

    /// Lane `lane`'s terminal outcome.
    pub fn outcome(&self, lane: usize) -> RunOutcome {
        if self.succeeded & (1u64 << lane) != 0 {
            RunOutcome::Succeeded(ArcId(self.success_arc[lane]))
        } else {
            RunOutcome::Exhausted
        }
    }

    /// Reconstructs lane `lane`'s scalar event sequence (identical to
    /// what the scalar executor would have pushed) into `out`.
    pub fn events_into(
        &self,
        p: &StrategyProgram,
        lane: usize,
        out: &mut Vec<(ArcId, ArcOutcome)>,
    ) {
        out.clear();
        for i in p.instrs() {
            if let Some(outcome) = self.outcome_in(lane, ArcId(i.arc)) {
                out.push((ArcId(i.arc), outcome));
            }
        }
    }

    /// Whether lane `lane` attempted `a` during the run, and with what
    /// outcome — the plane-form, O(1) equivalent of a linear search over
    /// the lane's event list.
    pub fn outcome_in(&self, lane: usize, a: ArcId) -> Option<ArcOutcome> {
        let bit = 1u64 << lane;
        if self.attempted[a.index()] & bit == 0 {
            None
        } else if self.traversed[a.index()] & bit != 0 {
            Some(ArcOutcome::Traversed)
        } else {
            Some(ArcOutcome::Blocked)
        }
    }

    /// Writes the pessimistic completion (Section 5.2 / `delta_tilde`'s
    /// input) of every lane into `out` in plane form, matching
    /// [`crate::pessimistic_completion`] lane-for-lane: a retrieval is
    /// blocked unless observed traversed (`!traversed`), a reduction is
    /// open unless observed blocked (`attempted ∧ ¬traversed`). The
    /// formulas cover unattempted arcs automatically. `out` is resized
    /// to a full 64-lane plane.
    pub fn completion_into(&self, g: &InferenceGraph, out: &mut ContextBatch) {
        assert_eq!(g.arc_count(), self.attempted.len(), "run/graph arc-count mismatch");
        out.reset(g.arc_count(), LANES);
        for a in g.arc_ids() {
            let i = a.index();
            out.planes[i] = match g.arc(a).kind {
                ArcKind::Retrieval => !self.traversed[i],
                ArcKind::Reduction => self.attempted[i] & !self.traversed[i],
            };
        }
    }
}

impl Default for BatchRun {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs a compiled program over every lane of `batch` selected by
/// `active`, filling `run`. Returns the mask of lanes that succeeded.
///
/// Per-lane results are bit-identical to scalar
/// [`crate::program::execute_program_into`] runs on the extracted
/// contexts: each lane's cost adds the same instruction costs in the
/// same order (the outer loop is instruction order, matching the scalar
/// program counter), and the attempted/traversed planes encode the same
/// event sequences.
///
/// # Panics
/// Invariant assert: panics if `batch` was built for a different graph
/// than `p`. Both always derive from the same `InferenceGraph` in
/// internal callers; front doors validating untrusted shapes should use
/// [`try_execute_batch`].
pub fn execute_batch(
    p: &StrategyProgram,
    batch: &ContextBatch,
    active: u64,
    run: &mut BatchRun,
) -> u64 {
    assert_eq!(batch.arc_count(), p.arc_count(), "batch built for a different graph");
    run.begin(p.arc_count(), active & batch.active_mask());
    let mut alive = run.active_in;
    for i in p.instrs() {
        // Reach mask: lanes whose source node is reached. The root is
        // always reached; any other node is reached iff its unique
        // parent arc was traversed (tree invariant — same argument that
        // justifies scalar jump-threading). An untouched parent plane is
        // zero, which correctly reads as "not reached".
        let reach =
            if i.parent_arc == NO_INDEX { !0u64 } else { run.traversed[i.parent_arc as usize] };
        let attempt = alive & reach;
        if attempt == 0 {
            continue;
        }
        let trav = attempt & !batch.planes[i.arc as usize];
        run.attempted[i.arc as usize] = attempt;
        run.traversed[i.arc as usize] = trav;
        // Pay the arc cost per attempting lane. Scalar equivalence only
        // needs each lane's own *instruction* order to match, which the
        // outer loop guarantees — lanes are independent accumulators, so
        // the iteration scheme across lanes within one instruction is
        // free. Dense masks take a branch-free select the compiler can
        // vectorize: non-attempting lanes add +0.0, which is exact on
        // these accumulators (they start at +0.0 and finite-sum to -0.0
        // never), so per-lane bits are untouched. Sparse masks keep the
        // bit loop to avoid touching all 64 accumulators.
        if attempt.count_ones() >= 16 {
            let cost_bits = i.cost.to_bits();
            for (lane, c) in run.cost.iter_mut().enumerate() {
                let keep = ((attempt >> lane) & 1).wrapping_neg();
                *c += f64::from_bits(cost_bits & keep);
            }
        } else {
            let mut m = attempt;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                run.cost[lane] += i.cost;
                m &= m - 1;
            }
        }
        if i.success && trav != 0 {
            let mut s = trav;
            while s != 0 {
                let lane = s.trailing_zeros() as usize;
                run.success_arc[lane] = i.arc;
                s &= s - 1;
            }
            run.succeeded |= trav;
            alive &= !trav;
            if alive == 0 {
                break;
            }
        }
    }
    run.succeeded
}

/// Fallible [`execute_batch`]: validates the batch/program arc counts
/// instead of asserting.
///
/// # Errors
/// [`GraphError::BatchShape`] if `batch` was built for a different
/// graph than `p`; `run` is left in its previous state.
pub fn try_execute_batch(
    p: &StrategyProgram,
    batch: &ContextBatch,
    active: u64,
    run: &mut BatchRun,
) -> Result<u64, GraphError> {
    if batch.arc_count() != p.arc_count() {
        return Err(GraphError::BatchShape(format!(
            "batch covers {} arcs but the program covers {}",
            batch.arc_count(),
            p.arc_count()
        )));
    }
    Ok(execute_batch(p, batch, active, run))
}

/// [`execute_batch`] plus `graph.batch.*` telemetry: executions, lanes
/// run, lanes succeeded/exhausted.
pub fn execute_batch_observed(
    p: &StrategyProgram,
    batch: &ContextBatch,
    active: u64,
    run: &mut BatchRun,
    sink: &mut dyn qpl_obs::MetricsSink,
) -> u64 {
    let succeeded = execute_batch(p, batch, active, run);
    sink.counter("graph.batch.executions", 1);
    sink.counter("graph.batch.lanes", u64::from(run.active_in.count_ones()));
    sink.counter("graph.batch.succeeded", u64::from(succeeded.count_ones()));
    sink.counter(
        "graph.batch.exhausted",
        u64::from(run.active_in.count_ones() - succeeded.count_ones()),
    );
    succeeded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{execute_into, RunScratch};
    use crate::pessimistic::pessimistic_completion_into;
    use crate::program::{execute_program_into, StrategyProgram};
    use crate::strategy::Strategy;
    use crate::testgen::{lcg_context, lcg_strategy, lcg_tree};

    fn fill_batch(g: &InferenceGraph, seed: u64, lanes: usize) -> (ContextBatch, Vec<Context>) {
        let mut batch = ContextBatch::new(g.arc_count(), lanes);
        let mut ctxs = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let ctx = lcg_context(g, seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            batch.set_lane(lane, &ctx);
            ctxs.push(ctx);
        }
        (batch, ctxs)
    }

    #[test]
    fn first_lanes_handles_the_word_boundary() {
        assert_eq!(first_lanes(0), 0);
        assert_eq!(first_lanes(1), 1);
        assert_eq!(first_lanes(63), (1u64 << 63) - 1);
        assert_eq!(first_lanes(64), !0);
        assert_eq!(ContextBatch::new(3, 0).active_mask(), 0);
        assert_eq!(ContextBatch::new(3, 64).active_mask(), !0);
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn new_rejects_more_lanes_than_one_word() {
        let _ = ContextBatch::new(3, LANES + 1);
    }

    #[test]
    fn fallible_variants_reject_bad_shapes_without_panicking() {
        let (g, _) = lcg_tree(4);
        assert!(ContextBatch::try_new(g.arc_count(), LANES + 1).is_err());
        let mut batch = ContextBatch::try_new(g.arc_count(), 8).unwrap();
        assert!(batch.try_reset(g.arc_count(), LANES + 3).is_err());
        assert_eq!(batch.lanes(), 8, "failed reset must leave the batch untouched");
        let ctx = lcg_context(&g, 1);
        assert!(batch.try_set_lane(9, &ctx).is_err(), "unoccupied lane");
        let (g2, _) = lcg_tree(900);
        assert_ne!(g2.arc_count(), g.arc_count(), "test needs distinct shapes");
        let foreign = Context::all_open(&g2);
        assert!(batch.try_set_lane(0, &foreign).is_err(), "foreign context");
        batch.try_set_lane(0, &ctx).unwrap();
        assert_eq!(batch.is_blocked(0, ArcId(0)), ctx.is_blocked(ArcId(0)));

        let s = Strategy::left_to_right(&g);
        let p = StrategyProgram::compile(&g, &s).unwrap();
        let mut run = BatchRun::new();
        let foreign_batch = ContextBatch::new(g2.arc_count(), 8);
        assert!(try_execute_batch(&p, &foreign_batch, !0, &mut run).is_err());
        let ok = try_execute_batch(&p, &batch, !0, &mut run).unwrap();
        let mut direct = BatchRun::new();
        assert_eq!(ok, execute_batch(&p, &batch, !0, &mut direct));
    }

    #[test]
    fn lanes_from_selects_the_undrained_suffix() {
        assert_eq!(lanes_from(0, 64), !0u64);
        assert_eq!(lanes_from(0, 5), 0b11111);
        assert_eq!(lanes_from(3, 5), 0b11000);
        assert_eq!(lanes_from(5, 5), 0);
        assert_eq!(lanes_from(64, 64), 0);
        assert_eq!(lanes_from(1, 64), !1u64);
        assert_eq!(lanes_from(63, 64), 1u64 << 63);
    }

    #[test]
    fn lane_roundtrip_preserves_contexts() {
        let (g, _) = lcg_tree(7);
        let (batch, ctxs) = fill_batch(&g, 3, LANES);
        let mut out = Context::all_open(&g);
        for (lane, ctx) in ctxs.iter().enumerate() {
            batch.extract_lane(lane, &mut out);
            assert_eq!(&out, ctx, "lane {lane}");
            for a in g.arc_ids() {
                assert_eq!(batch.is_blocked(lane, a), ctx.is_blocked(a));
            }
        }
    }

    #[test]
    fn batch_matches_scalar_runs_lane_for_lane() {
        let mut events = Vec::new();
        for seed in 0..40u64 {
            let (g, _) = lcg_tree(seed);
            let s = lcg_strategy(&g, seed.wrapping_add(17));
            let p = StrategyProgram::compile(&g, &s).unwrap();
            // Full planes and partial ones (the tail of the word).
            let lanes = [64, 63, 37, 1][(seed % 4) as usize];
            let (batch, ctxs) = fill_batch(&g, seed, lanes);
            let mut run = BatchRun::new();
            execute_batch(&p, &batch, !0, &mut run);
            let mut scratch = RunScratch::new(&g);
            for (lane, ctx) in ctxs.iter().enumerate() {
                let scalar = execute_program_into(&p, ctx, &mut scratch);
                assert_eq!(run.outcome(lane), scalar, "seed {seed} lane {lane}");
                assert_eq!(
                    run.cost(lane).to_bits(),
                    scratch.cost().to_bits(),
                    "seed {seed} lane {lane}"
                );
                run.events_into(&p, lane, &mut events);
                assert_eq!(events.as_slice(), scratch.events(), "seed {seed} lane {lane}");
                for a in g.arc_ids() {
                    assert_eq!(
                        run.outcome_in(lane, a),
                        scratch.events().iter().find(|(x, _)| *x == a).map(|(_, o)| *o)
                    );
                }
            }
        }
    }

    #[test]
    fn batch_matches_interpreter_not_just_program() {
        // Closes the loop against the original interpreter, not only the
        // scalar program executor.
        for seed in 0..20u64 {
            let (g, _) = lcg_tree(seed);
            let s = lcg_strategy(&g, seed);
            let p = StrategyProgram::compile(&g, &s).unwrap();
            let (batch, ctxs) = fill_batch(&g, seed ^ 0xABCD, 64);
            let mut run = BatchRun::new();
            execute_batch(&p, &batch, !0, &mut run);
            let mut scratch = RunScratch::new(&g);
            for (lane, ctx) in ctxs.iter().enumerate() {
                let outcome = execute_into(&g, &s, ctx, &mut scratch);
                assert_eq!(run.outcome(lane), outcome);
                assert_eq!(run.cost(lane).to_bits(), scratch.cost().to_bits());
            }
        }
    }

    #[test]
    fn partial_batches_and_active_masks_respected() {
        let (g, _) = lcg_tree(11);
        let s = Strategy::left_to_right(&g);
        let p = StrategyProgram::compile(&g, &s).unwrap();
        let lanes = 23;
        let (batch, _) = fill_batch(&g, 5, lanes);
        assert_eq!(batch.active_mask(), (1u64 << lanes) - 1);
        let mut run = BatchRun::new();
        // Request more lanes than occupied: clipped to occupancy.
        execute_batch(&p, &batch, !0, &mut run);
        assert_eq!(run.active_in(), (1u64 << lanes) - 1);
        // Restrict to a sub-mask (mid-batch restart shape): masked-out
        // lanes stay untouched — zero cost, exhausted outcome.
        let sub = 0b1010_1010u64;
        let mut sub_run = BatchRun::new();
        execute_batch(&p, &batch, sub, &mut sub_run);
        assert_eq!(sub_run.active_in(), sub);
        for lane in 0..lanes {
            if sub & (1 << lane) != 0 {
                assert_eq!(sub_run.cost(lane).to_bits(), run.cost(lane).to_bits());
                assert_eq!(sub_run.outcome(lane), run.outcome(lane));
            } else {
                assert_eq!(sub_run.cost(lane), 0.0);
                assert_eq!(sub_run.outcome(lane), RunOutcome::Exhausted);
            }
        }
    }

    #[test]
    fn completion_matches_pessimistic_completion_per_lane() {
        let mut completed = ContextBatch::new(0, 0);
        for seed in 0..30u64 {
            let (g, _) = lcg_tree(seed);
            let s = lcg_strategy(&g, seed ^ 0xF00D);
            let p = StrategyProgram::compile(&g, &s).unwrap();
            let lanes = [64, 41][(seed % 2) as usize];
            let (batch, ctxs) = fill_batch(&g, seed, lanes);
            let mut run = BatchRun::new();
            execute_batch(&p, &batch, !0, &mut run);
            run.completion_into(&g, &mut completed);
            let mut scratch = RunScratch::new(&g);
            let mut scalar_completed = Context::all_open(&g);
            let mut lane_completed = Context::all_open(&g);
            for (lane, ctx) in ctxs.iter().enumerate() {
                execute_into(&g, &s, ctx, &mut scratch);
                pessimistic_completion_into(&g, scratch.events(), &mut scalar_completed);
                completed.extract_lane(lane, &mut lane_completed);
                assert_eq!(lane_completed, scalar_completed, "seed {seed} lane {lane}");
            }
        }
    }

    #[test]
    fn observed_variant_emits_batch_counters() {
        let (g, _) = lcg_tree(2);
        let s = Strategy::left_to_right(&g);
        let p = StrategyProgram::compile(&g, &s).unwrap();
        let (batch, _) = fill_batch(&g, 9, 64);
        let mut run = BatchRun::new();
        let mut sink = qpl_obs::MemorySink::new();
        let succeeded = execute_batch_observed(&p, &batch, !0, &mut run, &mut sink);
        assert_eq!(sink.counter_total("graph.batch.executions"), 1);
        assert_eq!(sink.counter_total("graph.batch.lanes"), 64);
        assert_eq!(sink.counter_total("graph.batch.succeeded"), u64::from(succeeded.count_ones()));
        assert_eq!(
            sink.counter_total("graph.batch.succeeded")
                + sink.counter_total("graph.batch.exhausted"),
            64
        );
    }

    proptest::proptest! {
        /// 64-lane batch execution is bit-identical to 64 scalar runs on
        /// random trees × strategies × contexts × active masks.
        #[test]
        fn batch_bitwise_matches_scalar(
            seed in 0u64..2_000,
            strat_seed in 0u64..64,
            ctx_seed in 0u64..1_000,
            active in 0u64..=u64::MAX,
        ) {
            let (g, _) = lcg_tree(seed);
            let s = lcg_strategy(&g, strat_seed);
            let p = StrategyProgram::compile(&g, &s).unwrap();
            let (batch, ctxs) = fill_batch(&g, ctx_seed, LANES);
            let mut run = BatchRun::new();
            execute_batch(&p, &batch, active, &mut run);
            let mut scratch = RunScratch::new(&g);
            let mut events = Vec::new();
            for (lane, ctx) in ctxs.iter().enumerate() {
                if active & (1 << lane) == 0 {
                    proptest::prop_assert_eq!(run.cost(lane), 0.0);
                    continue;
                }
                let scalar = execute_program_into(&p, ctx, &mut scratch);
                proptest::prop_assert_eq!(run.outcome(lane), scalar);
                proptest::prop_assert_eq!(run.cost(lane).to_bits(), scratch.cost().to_bits());
                run.events_into(&p, lane, &mut events);
                proptest::prop_assert_eq!(events.as_slice(), scratch.events());
            }
        }
    }
}
