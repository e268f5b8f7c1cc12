//! PALO — probably approximately locally optimal hill-climbing (\[CG91\],
//! discussed at the end of Section 3.2).
//!
//! "Like PIB, PALO uses a set of possible transformations to hill-climb
//! in a situation where the worth of each strategy can only be estimated
//! by sampling. While PIB will continue collecting samples and
//! potentially moving to new strategies indefinitely, PALO will stop
//! when it reaches an ε-local optimum — i.e., when it reaches a `Θ_m`
//! with the property that ∀Θ ∈ T(Θ_m): C\[Θ\] ≥ C\[Θ_m\] − ε."
//!
//! Unlike PIB, PALO here evaluates the *exact* paired difference
//! `Δ = c(Θ, I) − c(Θ', I)` per sampled context (it replays both
//! strategies on the full context), which gives it two-sided evidence:
//! a lower confidence bound to justify climbing, and an upper confidence
//! bound to certify `D[Θ, Θ'] ≤ ε` for every neighbour and *stop*. This
//! is more intrusive than PIB's trace-only Δ̃ statistics — the price of
//! a termination guarantee.

use crate::delta::{delta_exact_with, DeltaScratch};
use crate::transform::{SiblingSwap, TransformationSet};
use qpl_graph::batch::{execute_batch, lanes_from, BatchRun, ContextBatch, LANES};
use qpl_graph::context::Context;
use qpl_graph::graph::InferenceGraph;
use qpl_graph::program::StrategyProgram;
use qpl_graph::strategy::Strategy;
use qpl_obs::{MetricsSink, NoopSink};
use qpl_stats::{chernoff, SequentialSchedule};

/// Configuration for a PALO run.
#[derive(Debug, Clone, Copy)]
pub struct PaloConfig {
    /// Local-optimality slack `ε`.
    pub epsilon: f64,
    /// Total error budget `δ`.
    pub delta: f64,
}

impl PaloConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics unless `ε > 0` and `δ ∈ (0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        Self { epsilon, delta }
    }
}

#[derive(Debug, Clone)]
struct Candidate {
    swap: SiblingSwap,
    strategy: Strategy,
    lambda: f64,
    sum: f64,
    count: u64,
}

impl Candidate {
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn radius(&self, delta: f64) -> f64 {
        if self.count == 0 {
            f64::INFINITY
        } else {
            chernoff::confidence_radius(self.count, delta, self.lambda)
        }
    }
}

/// The PALO learner: hill-climbs like PIB, stops at an ε-local optimum.
#[derive(Debug, Clone)]
pub struct Palo {
    config: PaloConfig,
    transforms: TransformationSet,
    current: Strategy,
    candidates: Vec<Candidate>,
    schedule: SequentialSchedule,
    climbs: Vec<SiblingSwap>,
    stopped: bool,
    /// Reusable Δ buffers: PALO replays two strategies per candidate per
    /// context, so the scratch keeps that loop allocation-free.
    scratch: DeltaScratch,
}

impl Palo {
    /// Creates a PALO learner over all sibling swaps of `g`.
    pub fn new(g: &InferenceGraph, initial: Strategy, config: PaloConfig) -> Self {
        let transforms = TransformationSet::all_sibling_swaps(g);
        let schedule = SequentialSchedule::new(config.delta);
        let mut palo = Self {
            config,
            transforms,
            current: initial,
            candidates: Vec::new(),
            schedule,
            climbs: Vec::new(),
            stopped: false,
            scratch: DeltaScratch::new(g),
        };
        palo.rebuild(g);
        palo
    }

    fn rebuild(&mut self, g: &InferenceGraph) {
        self.candidates = self
            .transforms
            .neighbors(g, &self.current)
            .into_iter()
            .map(|(swap, strategy)| Candidate {
                swap,
                lambda: swap.lambda(g),
                strategy,
                sum: 0.0,
                count: 0,
            })
            .collect();
        if self.candidates.is_empty() {
            self.stopped = true; // no neighbours: trivially locally optimal
        }
    }

    /// The current strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.current
    }

    /// Whether PALO has certified an ε-local optimum and stopped.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Transformations taken so far.
    pub fn climbs(&self) -> &[SiblingSwap] {
        &self.climbs
    }

    /// Observes one full context (PALO replays every neighbour on it).
    /// Returns `true` if the learner is still running.
    pub fn observe(&mut self, g: &InferenceGraph, ctx: &Context) -> bool {
        self.observe_with(g, ctx, &mut NoopSink)
    }

    /// [`observe`](Self::observe) with learning-loop telemetry: context
    /// and climb counters, a `core.palo.climb` event per step taken
    /// (sample count, mean Δ, the positive LCB that justified it), and
    /// per-neighbour `core.palo.certificate` events when the ε-local
    /// optimum is certified. With a [`NoopSink`] this is identical to
    /// `observe`.
    pub fn observe_with(
        &mut self,
        g: &InferenceGraph,
        ctx: &Context,
        sink: &mut dyn MetricsSink,
    ) -> bool {
        if self.stopped {
            return false;
        }
        sink.counter("core.palo.contexts", 1);
        for cand in &mut self.candidates {
            cand.sum += delta_exact_with(g, &self.current, &cand.strategy, ctx, &mut self.scratch);
            cand.count += 1;
        }
        self.decide(g, sink)
    }

    /// Observes a whole [`ContextBatch`]: the current strategy and every
    /// neighbour run as compiled programs over the raw context planes
    /// (PALO's Δ is *exact*, so candidates see the true contexts, not a
    /// pessimistic completion), then the lanes drain in order through
    /// the same per-context decision as [`observe`](Self::observe) —
    /// byte-identical statistics, climbs, and stopping. A mid-batch
    /// climb recompiles and re-runs the undrained lanes; a mid-batch
    /// stop returns `false` with the remaining lanes unconsumed, exactly
    /// as a scalar driver loop would stop feeding contexts. Returns
    /// `true` while the learner is still running.
    pub fn observe_batch(&mut self, g: &InferenceGraph, batch: &ContextBatch) -> bool {
        self.observe_batch_with(g, batch, &mut NoopSink)
    }

    /// [`observe_batch`](Self::observe_batch) with telemetry (see
    /// [`observe_with`](Self::observe_with)).
    pub fn observe_batch_with(
        &mut self,
        g: &InferenceGraph,
        batch: &ContextBatch,
        sink: &mut dyn MetricsSink,
    ) -> bool {
        let lanes = batch.lanes();
        let mut lane = 0usize;
        let mut run = BatchRun::new();
        let mut cand_run = BatchRun::new();
        let mut cand_costs: Vec<f64> = Vec::new();
        while lane < lanes {
            if self.stopped {
                return false;
            }
            let programs = StrategyProgram::compile(g, &self.current).ok().and_then(|cur| {
                self.candidates
                    .iter()
                    .map(|c| StrategyProgram::compile(g, &c.strategy).ok())
                    .collect::<Option<Vec<_>>>()
                    .map(|cands| (cur, cands))
            });
            let Some((cur_prog, cand_progs)) = programs else {
                // Interpreter fallback for strategies the compiler
                // rejects.
                let mut ctx = Context::all_open(g);
                while lane < lanes {
                    batch.extract_lane(lane, &mut ctx);
                    lane += 1;
                    if !self.observe_with(g, &ctx, sink) {
                        return false;
                    }
                }
                return !self.stopped;
            };
            let active = lanes_from(lane, lanes);
            execute_batch(&cur_prog, batch, active, &mut run);
            cand_costs.clear();
            for cp in &cand_progs {
                execute_batch(cp, batch, active, &mut cand_run);
                cand_costs.extend((0..LANES).map(|l| cand_run.cost(l)));
            }
            let climbs_before = self.climbs.len();
            while lane < lanes {
                sink.counter("core.palo.contexts", 1);
                let cost = run.cost(lane);
                for (ci, cand) in self.candidates.iter_mut().enumerate() {
                    cand.sum += cost - cand_costs[ci * LANES + lane];
                    cand.count += 1;
                }
                lane += 1;
                if !self.decide(g, sink) {
                    return false;
                }
                if self.climbs.len() > climbs_before {
                    // Neighbourhood changed: recompile and re-run the
                    // undrained suffix under the new strategy.
                    break;
                }
            }
        }
        !self.stopped
    }

    /// The per-context climb/stop decision, shared verbatim by the
    /// scalar and batched observation paths.
    fn decide(&mut self, g: &InferenceGraph, sink: &mut dyn MetricsSink) -> bool {
        // Charge one test per candidate (each gets a two-sided look).
        let delta_i = self.schedule.advance(self.candidates.len() as u64);
        let per_side = delta_i / 2.0;

        // Climb if some neighbour's LCB is positive.
        let climber = self
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.mean() - c.radius(per_side) > 0.0)
            .max_by(|(_, a), (_, b)| {
                (a.mean() - a.radius(per_side))
                    .partial_cmp(&(b.mean() - b.radius(per_side)))
                    .expect("finite statistics")
            })
            .map(|(i, _)| i);
        if let Some(idx) = climber {
            // rebuild replaces the whole candidate vector, so the winner
            // can be moved out instead of cloning its strategy.
            let cand = self.candidates.swap_remove(idx);
            sink.counter("core.palo.climbs", 1);
            if sink.enabled() {
                sink.event(
                    "core.palo.climb",
                    &[
                        ("samples", cand.count as f64),
                        ("mean", cand.mean()),
                        ("lcb", cand.mean() - cand.radius(per_side)),
                    ],
                );
            }
            self.climbs.push(cand.swap);
            self.current = cand.strategy;
            self.rebuild(g);
            return !self.stopped;
        }

        // Stop if every neighbour's UCB is below ε.
        let all_within = self
            .candidates
            .iter()
            .all(|c| c.count > 0 && c.mean() + c.radius(per_side) < self.config.epsilon);
        if all_within {
            self.stopped = true;
            sink.counter("core.palo.stopped", 1);
            if sink.enabled() {
                for c in &self.candidates {
                    sink.event(
                        "core.palo.certificate",
                        &[
                            ("samples", c.count as f64),
                            ("mean", c.mean()),
                            ("ucb", c.mean() + c.radius(per_side)),
                            ("epsilon", self.config.epsilon),
                        ],
                    );
                }
            }
        }
        !self.stopped
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
    fn stops_at_epsilon_local_optimum() {
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.05, 0.8]).unwrap();
        let mut palo = Palo::new(&g, Strategy::left_to_right(&g), PaloConfig::new(0.5, 0.05));
        let mut rng = StdRng::seed_from_u64(31);
        let mut steps = 0u32;
        while palo.observe(&g, &model.sample(&mut rng)) {
            steps += 1;
            assert!(steps < 200_000, "PALO failed to terminate");
        }
        assert!(palo.stopped());
        assert_eq!(palo.climbs().len(), 1, "one climb then certify");
        // Final strategy is ε-locally optimal: every neighbour within ε.
        let set = TransformationSet::all_sibling_swaps(&g);
        let c_final = model.expected_cost(&g, palo.strategy());
        for (_, n) in set.neighbors(&g, palo.strategy()) {
            let c_n = model.expected_cost(&g, &n);
            assert!(c_n >= c_final - 0.5 - 1e-9, "neighbour {c_n} beats {c_final} by > ε");
        }
    }

    #[test]
    fn stops_quickly_when_start_is_optimal() {
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.9, 0.05]).unwrap();
        let mut palo = Palo::new(&g, Strategy::left_to_right(&g), PaloConfig::new(1.0, 0.05));
        let mut rng = StdRng::seed_from_u64(32);
        let mut steps = 0u32;
        while palo.observe(&g, &model.sample(&mut rng)) {
            steps += 1;
            assert!(steps < 100_000);
        }
        assert!(palo.climbs().is_empty());
    }

    #[test]
    fn certificate_is_sound_on_g_b() {
        // Whatever PALO certifies must actually be ε-locally optimal.
        let g = g_b();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.1, 0.3, 0.6, 0.2]).unwrap();
        let eps = 0.75;
        let mut palo = Palo::new(&g, Strategy::left_to_right(&g), PaloConfig::new(eps, 0.05));
        let mut rng = StdRng::seed_from_u64(33);
        let mut steps = 0u32;
        while palo.observe(&g, &model.sample(&mut rng)) {
            steps += 1;
            assert!(steps < 500_000, "PALO failed to terminate");
        }
        let set = TransformationSet::all_sibling_swaps(&g);
        let c_final = model.expected_cost(&g, palo.strategy());
        for (_, n) in set.neighbors(&g, palo.strategy()) {
            assert!(model.expected_cost(&g, &n) >= c_final - eps - 1e-9);
        }
    }

    #[test]
    fn tighter_epsilon_takes_more_samples() {
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.5, 0.5]).unwrap();
        let mut samples = Vec::new();
        for eps in [1.0, 0.25] {
            let mut palo = Palo::new(&g, Strategy::left_to_right(&g), PaloConfig::new(eps, 0.05));
            let mut rng = StdRng::seed_from_u64(34);
            let mut n = 0u64;
            while palo.observe(&g, &model.sample(&mut rng)) {
                n += 1;
                assert!(n < 1_000_000);
            }
            samples.push(n);
        }
        assert!(samples[1] > samples[0], "ε=0.25 needs more than ε=1.0: {samples:?}");
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_rejected() {
        PaloConfig::new(0.0, 0.05);
    }

    #[test]
    fn batched_observation_matches_scalar_byte_for_byte() {
        // Same context stream through both paths until PALO stops:
        // identical climbs, identical certificates, identical in-flight
        // sums to the bit. The stream forces at least one climb, so the
        // mid-batch recompile/re-run path is exercised.
        let g = g_b();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.1, 0.3, 0.6, 0.2]).unwrap();
        let cfg = PaloConfig::new(0.75, 0.05);
        let mut scalar = Palo::new(&g, Strategy::left_to_right(&g), cfg);
        let mut batched = Palo::new(&g, Strategy::left_to_right(&g), cfg);
        let mut rng = StdRng::seed_from_u64(33);
        let mut guard = 0u32;
        'outer: loop {
            let chunk: Vec<Context> = (0..LANES).map(|_| model.sample(&mut rng)).collect();
            let mut b = ContextBatch::new(g.arc_count(), chunk.len());
            let mut scalar_running = true;
            for (lane, ctx) in chunk.iter().enumerate() {
                b.set_lane(lane, ctx);
                if scalar_running {
                    scalar_running = scalar.observe(&g, ctx);
                }
            }
            let batched_running = batched.observe_batch(&g, &b);
            assert_eq!(scalar_running, batched_running, "divergent stop");
            assert_eq!(scalar.stopped(), batched.stopped());
            assert_eq!(scalar.climbs(), batched.climbs());
            assert_eq!(scalar.strategy().arcs(), batched.strategy().arcs());
            assert_eq!(scalar.candidates.len(), batched.candidates.len());
            for (a, b) in scalar.candidates.iter().zip(&batched.candidates) {
                assert_eq!(a.swap, b.swap);
                assert_eq!(a.count, b.count);
                assert_eq!(a.sum.to_bits(), b.sum.to_bits());
            }
            if !batched_running {
                break 'outer;
            }
            guard += 1;
            assert!(guard < 10_000, "PALO failed to terminate");
        }
        assert!(!scalar.climbs().is_empty(), "the case must actually climb");
    }
}
