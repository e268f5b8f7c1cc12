//! PIB — the anytime hill-climbing learner (Section 3.2, Figure 3).
//!
//! PIB generalizes PIB₁ in two ways: it considers a whole *set* of
//! transformations `T(Θ)` simultaneously (splitting the error budget
//! over the `k = |T(Θ)|` candidates, Equation 5), and it tests
//! *sequentially* — after every context — shrinking the per-test budget
//! as `δᵢ = 6δ/(π²·i²)` so the total false-positive probability over the
//! unbounded run stays below `δ` (Theorem 1).
//!
//! The acceptance test is the paper's Equation 6: climb from `Θⱼ` to
//! `Θ' ∈ T(Θⱼ)` as soon as
//!
//! ```text
//! Δ̃[Θⱼ, Θ', S]  ≥  Λ[Θⱼ, Θ'] · sqrt((|S|/2) · ln(i²π²/(6δ)))
//! ```
//!
//! where `i` counts every test performed so far (incremented by
//! `|T(Θⱼ)|` per observed context) and `S` resets after each climb.

use crate::delta::{delta_tilde_with, DeltaScratch};
use crate::transform::{SiblingSwap, TransformationSet};
use qpl_graph::batch::{execute_batch, lanes_from, BatchRun, ContextBatch, LANES};
use qpl_graph::context::{execute_into, Context, RunScratch, Trace};
use qpl_graph::graph::{ArcId, InferenceGraph};
use qpl_graph::program::StrategyProgram;
use qpl_graph::strategy::Strategy;
use qpl_graph::GraphError;
use qpl_obs::{MetricsSink, NoopSink};
use qpl_stats::{PairedDifference, SequentialSchedule};

/// Configuration for a PIB run.
#[derive(Debug, Clone)]
pub struct PibConfig {
    /// Total mistake budget `δ` (Theorem 1).
    pub delta: f64,
    /// Perform the Equation 6 test only every `test_every` contexts
    /// (the paper notes Theorem 1 "continues to hold if we … perform
    /// this test less frequently"). Default 1.
    pub test_every: u64,
}

impl PibConfig {
    /// Standard configuration testing after every context.
    pub fn new(delta: f64) -> Self {
        Self { delta, test_every: 1 }
    }

    /// Test after every `n` contexts instead.
    pub fn with_test_every(mut self, n: u64) -> Self {
        self.test_every = n.max(1);
        self
    }
}

/// One candidate neighbour's accumulator.
#[derive(Debug, Clone)]
struct Candidate {
    swap: SiblingSwap,
    strategy: Strategy,
    acc: PairedDifference,
}

/// Compiled programs for the current strategy and its whole candidate
/// neighbourhood, reused across batches until a climb replaces them.
#[derive(Debug, Clone)]
struct CompiledSet {
    current: StrategyProgram,
    candidates: Vec<StrategyProgram>,
}

/// A record of one hill-climbing step.
#[derive(Debug, Clone)]
pub struct ClimbRecord {
    /// The transformation taken.
    pub swap: SiblingSwap,
    /// Samples observed at the current strategy before climbing.
    pub samples: u64,
    /// Accumulated evidence `Δ̃[Θⱼ, Θ', S]` at the moment of the climb.
    pub evidence: f64,
    /// Global test counter `i` at the climb.
    pub test_index: u64,
}

/// One climb from [`PibState::history`], in plain-data form.
#[derive(Debug, Clone, PartialEq)]
pub struct ClimbState {
    /// First arc of the sibling swap taken.
    pub r1: u32,
    /// Second arc of the sibling swap taken.
    pub r2: u32,
    /// Samples observed at the strategy before climbing.
    pub samples: u64,
    /// Accumulated Equation-6 evidence at the climb.
    pub evidence: f64,
    /// Global test counter `i` at the climb.
    pub test_index: u64,
}

/// One candidate accumulator from [`PibState::candidates`]: the swap's
/// arc pair plus the exact bits of its running Chernoff evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateState {
    /// First arc of the candidate sibling swap.
    pub r1: u32,
    /// Second arc of the candidate sibling swap.
    pub r2: u32,
    /// Running paired-difference sum `Δ̃` (exact bits).
    pub sum: f64,
    /// Samples accumulated in the sum.
    pub count: u64,
}

/// A plain-data export of the learner, sufficient to reconstruct it
/// bit-identically on the same graph via [`Pib::restore`]. This is the
/// durability boundary: everything here is integers, floats, and arc
/// indices — no graph handles, no compiled programs (those are
/// recomputed), no scratch buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct PibState {
    /// Total mistake budget `δ`.
    pub delta: f64,
    /// Test cadence (contexts per Equation-6 test).
    pub test_every: u64,
    /// Arc order of the current strategy.
    pub strategy_arcs: Vec<u32>,
    /// Samples accumulated at the current strategy (`|S|`).
    pub samples_here: u64,
    /// Contexts observed in total.
    pub contexts_seen: u64,
    /// Global test counter `i` — restoring it keeps the Theorem-1
    /// error budget spending exactly where it was.
    pub tests_used: u64,
    /// Climbs taken so far.
    pub history: Vec<ClimbState>,
    /// Per-candidate accumulators at the current strategy.
    pub candidates: Vec<CandidateState>,
}

/// The anytime PIB learner.
#[derive(Debug, Clone)]
pub struct Pib {
    config: PibConfig,
    transforms: TransformationSet,
    current: Strategy,
    candidates: Vec<Candidate>,
    schedule: SequentialSchedule,
    samples_here: u64,
    contexts_seen: u64,
    history: Vec<ClimbRecord>,
    /// Reusable execution + Δ̃ buffers: the per-context path (run the
    /// current strategy, probe every candidate against the pessimistic
    /// completion) allocates nothing after warm-up.
    run_scratch: RunScratch,
    delta_scratch: DeltaScratch,
    /// Batched-path program memo, keyed by `current`'s fingerprint (the
    /// candidate set is a pure function of `current`). `Some((fp, None))`
    /// records that the compiler rejected this neighbourhood, so the
    /// batched path falls straight back to the interpreter.
    compiled: Option<(u64, Option<CompiledSet>)>,
}

impl Pib {
    /// Creates a PIB learner over all sibling swaps of `g`.
    ///
    /// # Panics
    /// Panics if `δ ∉ (0, 1)` (via the schedule).
    pub fn new(g: &InferenceGraph, initial: Strategy, config: PibConfig) -> Self {
        Self::with_transforms(g, initial, TransformationSet::all_sibling_swaps(g), config)
    }

    /// Creates a PIB learner with an explicit transformation vocabulary.
    pub fn with_transforms(
        g: &InferenceGraph,
        initial: Strategy,
        transforms: TransformationSet,
        config: PibConfig,
    ) -> Self {
        let schedule = SequentialSchedule::new(config.delta);
        let mut pib = Self {
            config,
            transforms,
            current: initial,
            candidates: Vec::new(),
            schedule,
            samples_here: 0,
            contexts_seen: 0,
            history: Vec::new(),
            run_scratch: RunScratch::new(g),
            delta_scratch: DeltaScratch::new(g),
            compiled: None,
        };
        pib.rebuild_candidates(g);
        pib
    }

    fn rebuild_candidates(&mut self, g: &InferenceGraph) {
        self.candidates = self
            .transforms
            .neighbors(g, &self.current)
            .into_iter()
            .map(|(swap, strategy)| Candidate {
                swap,
                strategy,
                acc: PairedDifference::new(swap.lambda(g)),
            })
            .collect();
        self.samples_here = 0;
    }

    /// The strategy currently in use — valid to read at *any* time
    /// (PIB is an anytime algorithm).
    pub fn strategy(&self) -> &Strategy {
        &self.current
    }

    /// Strategies climbed through so far.
    pub fn history(&self) -> &[ClimbRecord] {
        &self.history
    }

    /// Contexts observed in total.
    pub fn contexts_seen(&self) -> u64 {
        self.contexts_seen
    }

    /// Samples accumulated at the current strategy (`|S|`).
    pub fn samples_at_current(&self) -> u64 {
        self.samples_here
    }

    /// Global test counter `i`.
    pub fn tests_performed(&self) -> u64 {
        self.schedule.tests_used()
    }

    /// Adopts an externally learned strategy — e.g. one published by a
    /// peer shard in a sharded serving deployment. The strategy becomes
    /// current and the candidate neighbourhood restarts, exactly as
    /// after a local climb; the sequential test schedule keeps
    /// advancing, so the Theorem-1 mistake budget δ continues to hold
    /// across adoptions (the adopted strategy carries its *publisher's*
    /// Equation-6 evidence, not fresh local evidence, and no
    /// [`ClimbRecord`] is appended here). A no-op when `strategy` is
    /// already current (same fingerprint).
    pub fn adopt(&mut self, g: &InferenceGraph, strategy: Strategy) {
        if strategy.fingerprint() == self.current.fingerprint() {
            return;
        }
        self.current = strategy;
        self.compiled = None;
        self.rebuild_candidates(g);
    }

    /// Exports the learner's statistical state for persistence. The
    /// export is pure data (see [`PibState`]); feeding it back through
    /// [`restore`](Self::restore) on the same graph yields a learner
    /// whose future climbs are bit-identical to this one's.
    pub fn export_state(&self) -> PibState {
        PibState {
            delta: self.config.delta,
            test_every: self.config.test_every,
            strategy_arcs: self.current.arcs().iter().map(|a| a.0).collect(),
            samples_here: self.samples_here,
            contexts_seen: self.contexts_seen,
            tests_used: self.schedule.tests_used(),
            history: self
                .history
                .iter()
                .map(|c| ClimbState {
                    r1: c.swap.r1.0,
                    r2: c.swap.r2.0,
                    samples: c.samples,
                    evidence: c.evidence,
                    test_index: c.test_index,
                })
                .collect(),
            candidates: self
                .candidates
                .iter()
                .map(|c| CandidateState {
                    r1: c.swap.r1.0,
                    r2: c.swap.r2.0,
                    sum: c.acc.sum(),
                    count: c.acc.count(),
                })
                .collect(),
        }
    }

    /// Reconstructs a learner from an exported [`PibState`] over the
    /// sibling-swap vocabulary of `g` (the vocabulary [`Pib::new`]
    /// uses). The restored learner's strategy, schedule position,
    /// history, and per-candidate Chernoff evidence match the exporter
    /// bit for bit, so a warm restart continues testing exactly where
    /// the crashed process stopped — no relearning, no δ over-spend.
    ///
    /// # Errors
    /// [`GraphError`] when the state does not fit `g`: unknown arcs, an
    /// invalid strategy order, or candidates missing from the current
    /// strategy's neighbourhood (all symptoms of restoring against a
    /// different graph than the one exported from).
    pub fn restore(g: &InferenceGraph, state: &PibState) -> Result<Self, GraphError> {
        let arc = |raw: u32| -> Result<ArcId, GraphError> {
            if (raw as usize) < g.arc_count() {
                Ok(ArcId(raw))
            } else {
                Err(GraphError::InvalidStrategy(format!(
                    "restored arc {raw} out of range for a graph with {} arcs",
                    g.arc_count()
                )))
            }
        };
        let arcs = state.strategy_arcs.iter().map(|&a| arc(a)).collect::<Result<Vec<_>, _>>()?;
        let strategy = Strategy::from_arcs(g, arcs)?;
        let config = PibConfig { delta: state.delta, test_every: state.test_every.max(1) };
        let mut pib =
            Self::with_transforms(g, strategy, TransformationSet::all_sibling_swaps(g), config);
        pib.schedule = SequentialSchedule::restore(state.delta, state.tests_used);
        pib.samples_here = state.samples_here;
        pib.contexts_seen = state.contexts_seen;
        pib.history = state
            .history
            .iter()
            .map(|c| {
                Ok(ClimbRecord {
                    swap: SiblingSwap::new(g, arc(c.r1)?, arc(c.r2)?)?,
                    samples: c.samples,
                    evidence: c.evidence,
                    test_index: c.test_index,
                })
            })
            .collect::<Result<Vec<_>, GraphError>>()?;
        for cs in &state.candidates {
            let (r1, r2) = (arc(cs.r1)?, arc(cs.r2)?);
            let cand =
                pib.candidates.iter_mut().find(|c| c.swap.r1 == r1 && c.swap.r2 == r2).ok_or_else(
                    || {
                        GraphError::InapplicableTransform(format!(
                            "restored candidate swap ({}, {}) is not in the current \
                         strategy's neighbourhood",
                            cs.r1, cs.r2
                        ))
                    },
                )?;
            cand.acc = PairedDifference::restore(cand.acc.range(), cs.sum, cs.count);
        }
        Ok(pib)
    }

    /// Observes one context: runs the current strategy, updates every
    /// candidate's statistics, and climbs if Equation 6 fires. Returns
    /// the trace of the executed query.
    pub fn observe(&mut self, g: &InferenceGraph, ctx: &Context) -> Trace {
        self.observe_quiet(g, ctx);
        self.run_scratch.to_trace()
    }

    /// [`observe`](Self::observe) with learning-loop telemetry: one
    /// `core.pib.candidate` event per Equation 6 evaluation (Δ̃ sum,
    /// Chernoff threshold, accept/reject verdict) plus context/test/climb
    /// counters. With a [`NoopSink`] this is identical to `observe`.
    pub fn observe_with(
        &mut self,
        g: &InferenceGraph,
        ctx: &Context,
        sink: &mut dyn MetricsSink,
    ) -> Trace {
        self.observe_quiet_with(g, ctx, sink);
        self.run_scratch.to_trace()
    }

    /// [`observe`](Self::observe) without materializing the trace — the
    /// fully allocation-free per-context path. The run's results remain
    /// readable until the next observation.
    pub fn observe_quiet(&mut self, g: &InferenceGraph, ctx: &Context) {
        self.observe_quiet_with(g, ctx, &mut NoopSink);
    }

    /// [`observe_quiet`](Self::observe_quiet) with telemetry (see
    /// [`observe_with`](Self::observe_with)).
    pub fn observe_quiet_with(
        &mut self,
        g: &InferenceGraph,
        ctx: &Context,
        sink: &mut dyn MetricsSink,
    ) {
        execute_into(g, &self.current, ctx, &mut self.run_scratch);
        self.contexts_seen += 1;
        self.samples_here += 1;
        let cost = self.run_scratch.cost();
        sink.counter("core.pib.contexts", 1);
        if sink.enabled() {
            sink.value("core.pib.run_cost", cost);
        }
        for cand in &mut self.candidates {
            cand.acc.record(delta_tilde_with(
                g,
                cost,
                self.run_scratch.events(),
                &cand.strategy,
                &mut self.delta_scratch,
            ));
        }
        if self.contexts_seen.is_multiple_of(self.config.test_every) {
            self.test_and_climb(g, sink);
        }
    }

    /// Observes a whole [`ContextBatch`] through the bit-parallel
    /// executor: statistics, test schedule, and climbs are byte-identical
    /// to calling [`observe_quiet`](Self::observe_quiet) on each lane in
    /// order, but the current strategy and every candidate run as
    /// compiled programs over all lanes at once. A mid-batch climb
    /// recompiles and re-runs the undrained lanes under the new
    /// neighbourhood; strategies the compiler rejects fall back to the
    /// scalar interpreter lane by lane.
    pub fn observe_batch(&mut self, g: &InferenceGraph, batch: &ContextBatch) {
        self.observe_batch_with(g, batch, &mut NoopSink);
    }

    /// [`observe_batch`](Self::observe_batch) with telemetry (see
    /// [`observe_with`](Self::observe_with)). Unlike the scalar paths the
    /// run scratch holds no meaningful results afterwards.
    pub fn observe_batch_with(
        &mut self,
        g: &InferenceGraph,
        batch: &ContextBatch,
        sink: &mut dyn MetricsSink,
    ) {
        let lanes = batch.lanes();
        let mut lane = 0usize;
        let mut run = BatchRun::new();
        let mut cand_run = BatchRun::new();
        let mut completed = ContextBatch::new(0, 0);
        // Candidate-major cost matrix with a LANES stride, refilled after
        // every (re)compilation.
        let mut cand_costs: Vec<f64> = Vec::new();
        while lane < lanes {
            // Memo hit: the neighbourhood only changes on a climb, so
            // most batches reuse the previous batch's programs outright.
            let fp = self.current.fingerprint();
            let set = match self.compiled.take() {
                Some((key, set)) if key == fp => set,
                _ => StrategyProgram::compile(g, &self.current).ok().and_then(|cur| {
                    self.candidates
                        .iter()
                        .map(|c| StrategyProgram::compile(g, &c.strategy).ok())
                        .collect::<Option<Vec<_>>>()
                        .map(|cands| CompiledSet { current: cur, candidates: cands })
                }),
            };
            let Some(set) = set else {
                self.compiled = Some((fp, None));
                // Interpreter fallback: drain the remaining lanes the
                // scalar way (handles every valid strategy).
                let mut ctx = Context::all_open(g);
                while lane < lanes {
                    batch.extract_lane(lane, &mut ctx);
                    self.observe_quiet_with(g, &ctx, sink);
                    lane += 1;
                }
                return;
            };
            let active = lanes_from(lane, lanes);
            execute_batch(&set.current, batch, active, &mut run);
            run.completion_into(g, &mut completed);
            cand_costs.clear();
            for cp in &set.candidates {
                execute_batch(cp, &completed, active, &mut cand_run);
                cand_costs.extend((0..LANES).map(|l| cand_run.cost(l)));
            }
            let climbs_before = self.history.len();
            while lane < lanes {
                let cost = run.cost(lane);
                self.contexts_seen += 1;
                self.samples_here += 1;
                sink.counter("core.pib.contexts", 1);
                if sink.enabled() {
                    sink.value("core.pib.run_cost", cost);
                }
                for (ci, cand) in self.candidates.iter_mut().enumerate() {
                    // Bit-identical to `delta_tilde_with`: the batched
                    // run cost and the candidate's cost against the
                    // pessimistic-completion plane both match their
                    // scalar counterparts exactly.
                    cand.acc.record(cost - cand_costs[ci * LANES + lane]);
                }
                lane += 1;
                if self.contexts_seen.is_multiple_of(self.config.test_every) {
                    self.test_and_climb(g, sink);
                    if self.history.len() > climbs_before {
                        // Programs and cost matrix are stale: recompile
                        // and re-run the undrained suffix.
                        break;
                    }
                }
            }
            // Keyed by the pre-drain fingerprint: after a climb the key
            // mismatches and the next iteration recompiles.
            self.compiled = Some((fp, Some(set)));
        }
    }

    /// Ingests an externally produced trace of the current strategy
    /// (e.g. from the Datalog-backed engine), updating statistics and
    /// possibly climbing.
    pub fn absorb(&mut self, g: &InferenceGraph, trace: &Trace) {
        self.absorb_with(g, trace, &mut NoopSink);
    }

    /// [`absorb`](Self::absorb) with telemetry (see
    /// [`observe_with`](Self::observe_with)).
    pub fn absorb_with(&mut self, g: &InferenceGraph, trace: &Trace, sink: &mut dyn MetricsSink) {
        self.contexts_seen += 1;
        self.samples_here += 1;
        sink.counter("core.pib.contexts", 1);
        if sink.enabled() {
            sink.value("core.pib.run_cost", trace.cost);
        }
        for cand in &mut self.candidates {
            cand.acc.record(delta_tilde_with(
                g,
                trace.cost,
                &trace.events,
                &cand.strategy,
                &mut self.delta_scratch,
            ));
        }
        if self.contexts_seen.is_multiple_of(self.config.test_every) {
            self.test_and_climb(g, sink);
        }
    }

    /// Figure 3's acceptance test: `i ← i + |T(Θⱼ)|`, then climb to the
    /// first candidate satisfying Equation 6.
    fn test_and_climb(&mut self, g: &InferenceGraph, sink: &mut dyn MetricsSink) {
        if self.candidates.is_empty() {
            return;
        }
        let delta_i = self.schedule.advance(self.candidates.len() as u64);
        sink.counter("core.pib.tests", self.candidates.len() as u64);
        if sink.enabled() {
            for (idx, c) in self.candidates.iter().enumerate() {
                let accept = c.acc.certifies_improvement(delta_i);
                sink.event(
                    "core.pib.candidate",
                    &[
                        ("candidate", idx as f64),
                        ("samples", self.samples_here as f64),
                        ("delta_sum", c.acc.sum()),
                        ("threshold", c.acc.threshold(delta_i)),
                        ("accept", f64::from(u8::from(accept))),
                    ],
                );
            }
        }
        let winner = self
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.acc.certifies_improvement(delta_i))
            .max_by(|(_, a), (_, b)| {
                let ra = a.acc.sum() - a.acc.threshold(delta_i);
                let rb = b.acc.sum() - b.acc.threshold(delta_i);
                ra.partial_cmp(&rb).expect("finite statistics")
            })
            .map(|(i, _)| i);
        if let Some(idx) = winner {
            // rebuild_candidates replaces the whole vector, so the winner
            // can be moved out instead of cloning its strategy.
            let cand = self.candidates.swap_remove(idx);
            sink.counter("core.pib.climbs", 1);
            if sink.enabled() {
                sink.event(
                    "core.pib.climb",
                    &[
                        ("samples", self.samples_here as f64),
                        ("evidence", cand.acc.sum()),
                        ("test_index", self.schedule.tests_used() as f64),
                    ],
                );
            }
            self.history.push(ClimbRecord {
                swap: cand.swap,
                samples: self.samples_here,
                evidence: cand.acc.sum(),
                test_index: self.schedule.tests_used(),
            });
            self.current = cand.strategy;
            self.rebuild_candidates(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpl_graph::expected::{ContextDistribution, IndependentModel};
    use qpl_graph::graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn g_a() -> InferenceGraph {
        let mut b = GraphBuilder::new("instructor(κ)");
        let root = b.root();
        let (_, prof) = b.reduction(root, "R_p", 1.0, "prof(κ)");
        b.retrieval(prof, "D_p", 1.0);
        let (_, grad) = b.reduction(root, "R_g", 1.0, "grad(κ)");
        b.retrieval(grad, "D_g", 1.0);
        b.finish().unwrap()
    }

    fn g_b() -> InferenceGraph {
        let mut b = GraphBuilder::new("G(κ)");
        let root = b.root();
        let (_, a) = b.reduction(root, "R_ga", 1.0, "A(κ)");
        b.retrieval(a, "D_a", 1.0);
        let (_, s) = b.reduction(root, "R_gs", 1.0, "S(κ)");
        let (_, bb) = b.reduction(s, "R_sb", 1.0, "B(κ)");
        b.retrieval(bb, "D_b", 1.0);
        let (_, t) = b.reduction(s, "R_st", 1.0, "T(κ)");
        let (_, c) = b.reduction(t, "R_tc", 1.0, "C(κ)");
        b.retrieval(c, "D_c", 1.0);
        let (_, d) = b.reduction(t, "R_td", 1.0, "D(κ)");
        b.retrieval(d, "D_d", 1.0);
        b.finish().unwrap()
    }

    #[test]
    fn climbs_to_better_strategy_on_g_a() {
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.05, 0.8]).unwrap();
        let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..4000 {
            pib.observe(&g, &model.sample(&mut rng));
        }
        assert_eq!(pib.history().len(), 1, "exactly one climb available");
        let c_now = model.expected_cost(&g, pib.strategy());
        let c_init = model.expected_cost(&g, &Strategy::left_to_right(&g));
        assert!(c_now < c_init, "{c_now} < {c_init}");
    }

    #[test]
    fn every_climb_is_an_improvement_on_g_b() {
        // Random-ish probabilities where the left-to-right strategy is
        // far from optimal; every recorded climb must strictly lower the
        // true expected cost (this is Theorem 1 in action — with δ=0.05
        // a mistake is possible but this seed must be mistake-free).
        let g = g_b();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.02, 0.05, 0.1, 0.9]).unwrap();
        let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
        let mut rng = StdRng::seed_from_u64(5);
        let mut costs = vec![model.expected_cost(&g, pib.strategy())];
        let mut climbs_seen = 0;
        for _ in 0..30_000 {
            pib.observe(&g, &model.sample(&mut rng));
            if pib.history().len() > climbs_seen {
                climbs_seen = pib.history().len();
                costs.push(model.expected_cost(&g, pib.strategy()));
            }
        }
        assert!(climbs_seen >= 1, "no climbs happened");
        for w in costs.windows(2) {
            assert!(w[1] < w[0] + 1e-12, "climb raised cost: {costs:?}");
        }
    }

    #[test]
    fn adopt_swaps_strategy_and_restarts_candidates_without_a_climb_record() {
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.5, 0.5]).unwrap();
        let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            pib.observe(&g, &model.sample(&mut rng));
        }
        assert_eq!(pib.samples_at_current(), 10);

        // Adopting the current strategy again is a no-op: no reset.
        pib.adopt(&g, pib.strategy().clone());
        assert_eq!(pib.samples_at_current(), 10);

        // Adopting a different strategy (a neighbour, as a peer shard
        // would publish) restarts the neighbourhood but records no
        // local climb and keeps the global test counter.
        let peer = pib.candidates[0].strategy.clone();
        assert_ne!(peer.fingerprint(), pib.strategy().fingerprint());
        let tests_before = pib.tests_performed();
        pib.adopt(&g, peer.clone());
        assert_eq!(pib.strategy().fingerprint(), peer.fingerprint());
        assert_eq!(pib.samples_at_current(), 0, "candidate statistics restart");
        assert!(pib.history().is_empty(), "adoption is not a local climb");
        assert_eq!(pib.tests_performed(), tests_before, "schedule keeps advancing, never resets");

        // The learner keeps functioning on the adopted strategy.
        for _ in 0..10 {
            pib.observe(&g, &model.sample(&mut rng));
        }
        assert_eq!(pib.samples_at_current(), 10);
    }

    #[test]
    fn anytime_property_strategy_always_valid() {
        let g = g_b();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.3, 0.3, 0.3, 0.3]).unwrap();
        let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.1));
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..500 {
            pib.observe(&g, &model.sample(&mut rng));
            // The current strategy must always be executable.
            let ctx = model.sample(&mut rng);
            let _ = qpl_graph::context::execute(&g, pib.strategy(), &ctx);
        }
    }

    #[test]
    fn statistics_reset_after_climb() {
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.05, 0.9]).unwrap();
        let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.1));
        let mut rng = StdRng::seed_from_u64(7);
        while pib.history().is_empty() {
            pib.observe(&g, &model.sample(&mut rng));
            assert!(pib.contexts_seen() < 10_000, "never climbed");
        }
        assert!(pib.samples_at_current() < pib.contexts_seen());
    }

    #[test]
    fn test_counter_charges_per_candidate() {
        let g = g_b(); // 3 sibling swaps
        let model = IndependentModel::from_retrieval_probs(&g, &[0.5; 4]).unwrap();
        let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.1));
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10 {
            pib.observe(&g, &model.sample(&mut rng));
        }
        assert_eq!(pib.tests_performed(), 30, "10 contexts × 3 candidates");
    }

    #[test]
    fn batched_testing_also_works() {
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.05, 0.9]).unwrap();
        let mut pib =
            Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05).with_test_every(25));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..4000 {
            pib.observe(&g, &model.sample(&mut rng));
        }
        assert_eq!(pib.history().len(), 1);
        // Far fewer tests were charged.
        assert!(pib.tests_performed() < 4000);
    }

    #[test]
    fn no_climb_when_already_optimal() {
        let g = g_a();
        // prof-first already optimal.
        let model = IndependentModel::from_retrieval_probs(&g, &[0.9, 0.05]).unwrap();
        let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..5000 {
            pib.observe(&g, &model.sample(&mut rng));
        }
        assert!(pib.history().is_empty());
    }

    #[test]
    fn theorem1_mistake_rate_bounded() {
        // Equal-cost neighbourhood: any climb is (marginally) a mistake.
        // Over many independent runs the climb frequency must stay ≤ δ.
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.4, 0.4]).unwrap();
        let delta = 0.1;
        let runs = 300;
        let mut mistakes = 0;
        for t in 0..runs {
            let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(delta));
            let mut rng = StdRng::seed_from_u64(5000 + t);
            for _ in 0..400 {
                pib.observe(&g, &model.sample(&mut rng));
                if !pib.history().is_empty() {
                    mistakes += 1;
                    break;
                }
            }
        }
        let rate = mistakes as f64 / runs as f64;
        assert!(rate <= delta, "mistake rate {rate} exceeds δ={delta}");
    }

    #[test]
    fn observed_run_matches_plain_run_and_reports_candidates() {
        // The sink observes, never steers: an instrumented run must take
        // the same climbs at the same contexts as the plain one, and the
        // acceptance events must expose Equation 6's ingredients.
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.05, 0.8]).unwrap();
        let mut plain = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
        let mut observed = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
        let mut sink = qpl_obs::MemorySink::new();
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        for _ in 0..1500 {
            plain.observe(&g, &model.sample(&mut rng_a));
            observed.observe_with(&g, &model.sample(&mut rng_b), &mut sink);
        }
        assert_eq!(plain.history().len(), observed.history().len());
        assert_eq!(plain.strategy().arcs(), observed.strategy().arcs());
        assert_eq!(sink.counter_total("core.pib.contexts"), 1500);
        assert_eq!(sink.counter_total("core.pib.climbs"), observed.history().len() as u64);
        // At least one acceptance event fired, carrying Δ̃ sum + threshold.
        let accepted = sink
            .events_named("core.pib.candidate")
            .find(|e| e.field("accept") == Some(1.0))
            .expect("a candidate was accepted");
        assert!(accepted.field("delta_sum").unwrap() >= accepted.field("threshold").unwrap());
        let rejected = sink
            .events_named("core.pib.candidate")
            .find(|e| e.field("accept") == Some(0.0))
            .expect("some candidate was rejected at some test");
        assert!(rejected.field("threshold").is_some());
    }

    /// Chunks a scalar context stream into batches of up to 64 lanes
    /// (the last one partial), as the engine's fixed-block harness does.
    fn batches_of(g: &InferenceGraph, ctxs: &[Context]) -> Vec<ContextBatch> {
        ctxs.chunks(LANES)
            .map(|chunk| {
                let mut b = ContextBatch::new(g.arc_count(), chunk.len());
                for (lane, ctx) in chunk.iter().enumerate() {
                    b.set_lane(lane, ctx);
                }
                b
            })
            .collect()
    }

    #[test]
    fn batched_observation_matches_scalar_byte_for_byte() {
        // The acceptance bar for the bit-parallel path: same climbs at
        // the same contexts, same accumulated evidence to the bit, at
        // several test cadences (test_every=1 exercises mid-batch
        // climbs + re-runs) and with a partial final batch (1000 = 15×64
        // + 40 lanes).
        let g = g_b();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.02, 0.05, 0.1, 0.9]).unwrap();
        for test_every in [1u64, 7, 25] {
            let mut rng = StdRng::seed_from_u64(5);
            let ctxs: Vec<Context> = (0..1000).map(|_| model.sample(&mut rng)).collect();
            let cfg = PibConfig::new(0.05).with_test_every(test_every);
            let mut scalar = Pib::new(&g, Strategy::left_to_right(&g), cfg.clone());
            let mut batched = Pib::new(&g, Strategy::left_to_right(&g), cfg);
            for ctx in &ctxs {
                scalar.observe_quiet(&g, ctx);
            }
            for batch in batches_of(&g, &ctxs) {
                batched.observe_batch(&g, &batch);
            }
            assert_eq!(scalar.contexts_seen(), batched.contexts_seen());
            assert_eq!(scalar.samples_at_current(), batched.samples_at_current());
            assert_eq!(scalar.tests_performed(), batched.tests_performed());
            assert_eq!(scalar.strategy().arcs(), batched.strategy().arcs());
            assert_eq!(scalar.history().len(), batched.history().len());
            assert!(!scalar.history().is_empty(), "the case must actually climb");
            for (a, b) in scalar.history().iter().zip(batched.history()) {
                assert_eq!(a.swap, b.swap);
                assert_eq!(a.samples, b.samples);
                assert_eq!(a.evidence.to_bits(), b.evidence.to_bits());
                assert_eq!(a.test_index, b.test_index);
            }
            // The in-flight candidate statistics agree bitwise too.
            assert_eq!(scalar.candidates.len(), batched.candidates.len());
            for (a, b) in scalar.candidates.iter().zip(&batched.candidates) {
                assert_eq!(a.swap, b.swap);
                assert_eq!(a.acc.count(), b.acc.count());
                assert_eq!(a.acc.sum().to_bits(), b.acc.sum().to_bits());
            }
        }
    }

    #[test]
    fn batched_observation_matches_scalar_telemetry() {
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.05, 0.8]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let ctxs: Vec<Context> = (0..1500).map(|_| model.sample(&mut rng)).collect();
        let mut scalar = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
        let mut batched = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
        let mut sink_s = qpl_obs::MemorySink::new();
        let mut sink_b = qpl_obs::MemorySink::new();
        for ctx in &ctxs {
            scalar.observe_with(&g, ctx, &mut sink_s);
        }
        for batch in batches_of(&g, &ctxs) {
            batched.observe_batch_with(&g, &batch, &mut sink_b);
        }
        assert_eq!(scalar.strategy().arcs(), batched.strategy().arcs());
        for name in ["core.pib.contexts", "core.pib.tests", "core.pib.climbs"] {
            assert_eq!(sink_s.counter_total(name), sink_b.counter_total(name), "{name}");
        }
        let (s_stats, b_stats) =
            (sink_s.value_stats("core.pib.run_cost"), sink_b.value_stats("core.pib.run_cost"));
        assert_eq!(s_stats, b_stats, "per-lane run costs observed identically");
        assert_eq!(
            sink_s.events_named("core.pib.candidate").count(),
            sink_b.events_named("core.pib.candidate").count()
        );
    }

    #[test]
    fn export_restore_round_trips_and_future_climbs_are_bit_identical() {
        // Freeze a learner mid-stream, resurrect it from the plain-data
        // export, and drive both over the identical remaining stream:
        // every climb, every accumulator bit, every test budget must
        // match — this is the durability contract warm restart rests on.
        let g = g_b();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.02, 0.05, 0.1, 0.9]).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let stream: Vec<Context> = (0..30_000).map(|_| model.sample(&mut rng)).collect();
        let (warmup, rest) = stream.split_at(1_234);

        let mut live = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
        for ctx in warmup {
            live.observe_quiet(&g, ctx);
        }
        let state = live.export_state();
        let mut restored = Pib::restore(&g, &state).expect("state fits the graph");

        // The restored learner equals the live one right away...
        assert_eq!(restored.strategy().arcs(), live.strategy().arcs());
        assert_eq!(restored.contexts_seen(), live.contexts_seen());
        assert_eq!(restored.samples_at_current(), live.samples_at_current());
        assert_eq!(restored.tests_performed(), live.tests_performed());
        assert_eq!(restored.export_state(), state, "export∘restore is the identity");

        // ...and stays bit-identical through the rest of the stream.
        for ctx in rest {
            live.observe_quiet(&g, ctx);
            restored.observe_quiet(&g, ctx);
        }
        assert!(!live.history().is_empty(), "the scenario must climb");
        assert_eq!(live.history().len(), restored.history().len());
        for (a, b) in live.history().iter().zip(restored.history()) {
            assert_eq!(a.swap, b.swap);
            assert_eq!(a.samples, b.samples);
            assert_eq!(a.evidence.to_bits(), b.evidence.to_bits());
            assert_eq!(a.test_index, b.test_index);
        }
        assert_eq!(live.strategy().arcs(), restored.strategy().arcs());
        for (a, b) in live.candidates.iter().zip(&restored.candidates) {
            assert_eq!(a.swap, b.swap);
            assert_eq!(a.acc.sum().to_bits(), b.acc.sum().to_bits());
            assert_eq!(a.acc.count(), b.acc.count());
        }
    }

    #[test]
    fn restore_rejects_state_from_a_different_graph() {
        let g = g_b();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.5; 4]).unwrap();
        let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.1));
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..50 {
            pib.observe_quiet(&g, &model.sample(&mut rng));
        }
        let state = pib.export_state();
        // g_a has fewer arcs: the strategy order cannot fit.
        assert!(Pib::restore(&g_a(), &state).is_err());
    }

    #[test]
    fn multi_climb_trajectory_reaches_good_strategy() {
        // Strongly skewed probabilities: the optimal DFS strategy needs
        // several swaps from left-to-right. PIB should get close.
        let g = g_b();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.01, 0.02, 0.03, 0.95]).unwrap();
        let mut pib = Pib::new(&g, Strategy::left_to_right(&g), PibConfig::new(0.05));
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..60_000 {
            pib.observe(&g, &model.sample(&mut rng));
        }
        assert!(pib.history().len() >= 2, "expected several climbs, got {:?}", pib.history().len());
        // Compare against the best DFS strategy.
        let best = qpl_graph::strategy::enumerate_dfs(&g, 1000)
            .unwrap()
            .into_iter()
            .map(|s| {
                let c = model.expected_cost(&g, &s);
                (s, c)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .unwrap();
        let c_pib = model.expected_cost(&g, pib.strategy());
        assert!(c_pib <= best.1 + 0.5, "PIB ended at {c_pib}, best DFS is {}", best.1);
    }
}
