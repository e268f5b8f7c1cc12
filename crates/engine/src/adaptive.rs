//! The adaptive query processor `QP^A` (Section 4.1).
//!
//! A fixed strategy cannot gather statistics for retrievals it never
//! reaches (if `D_p` always succeeds, `Θ₁` never tries `D_g`), so PAO
//! samples through an *adaptive* processor that re-aims its strategy on
//! every context: it always begins with the experiment whose remaining
//! sample counter is largest, following the root path `Π(e)` straight to
//! it (Definition 1: "attempting to reach `e`").
//!
//! Two sampling modes mirror the two theorems:
//!
//! * [`SamplingMode::Retrievals`] (Theorem 2) — targets are the
//!   retrieval arcs, counters from Equation 7's `m(dᵢ)`;
//! * [`SamplingMode::Experiments`] (Theorem 3) — targets are *all*
//!   probabilistic experiments (blockable reductions included), counters
//!   from Equation 8's `m'(eᵢ)`, and "attempted to reach" counts even
//!   runs that got blocked partway down `Π(e)`.

use qpl_graph::batch::{execute_batch, lanes_from, BatchRun, ContextBatch};
use qpl_graph::context::{execute_into, ArcOutcome, Context, RunScratch, Trace};
use qpl_graph::graph::{ArcId, ArcKind, InferenceGraph, NodeId};
use qpl_graph::program::StrategyProgram;
use qpl_graph::strategy::Strategy;
use qpl_stats::BernoulliEstimator;
use std::collections::HashMap;

/// Which arcs the adaptive processor is collecting statistics for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Theorem 2: sample every retrieval arc.
    Retrievals,
    /// Theorem 3: sample an explicit set of experiments (any arcs).
    Experiments,
}

/// Per-target sampling state.
#[derive(Debug, Clone, Copy)]
pub struct AimStat {
    /// The target arc.
    pub arc: ArcId,
    /// Required attempts (`m(dᵢ)` or `m'(eᵢ)`).
    pub needed: u64,
    /// Runs that attempted to reach the target (Definition 1).
    pub attempts: u64,
    /// Runs that actually reached (attempted) the target — `k(eᵢ)`.
    pub reached: u64,
    /// Runs in which the target was open — `n(eᵢ)`.
    pub successes: u64,
}

impl AimStat {
    /// Success-frequency estimate `p̂ = n/k`, defaulting to the paper's
    /// `0.5` when the target was never reached.
    pub fn p_hat(&self) -> f64 {
        BernoulliEstimator::from_counts(self.reached, self.successes).estimate()
    }

    /// Reachability estimate `ρ̂ = k/m` (1.0 when nothing attempted yet,
    /// matching `ρ ≤ 1`).
    pub fn rho_hat(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.reached as f64 / self.attempts as f64
        }
    }

    /// Whether this target has its required attempts.
    pub fn done(&self) -> bool {
        self.attempts >= self.needed
    }
}

/// The adaptive query processor: aims, executes, and keeps counters.
#[derive(Debug, Clone)]
pub struct AdaptiveQp {
    mode: SamplingMode,
    stats: Vec<AimStat>,
    runs: u64,
    /// Aiming strategies are fixed per target; building (and
    /// re-validating) one per observed context would dominate the
    /// sampling loop, so they are memoized here.
    aim_cache: HashMap<ArcId, Strategy>,
    /// Compiled aiming programs, memoized alongside the strategies: the
    /// batched path re-aims (and would otherwise recompile) every time a
    /// target's counter fills mid-batch.
    aim_programs: HashMap<ArcId, StrategyProgram>,
    /// Root paths `Π(e)`, parallel to `stats`, filled on first use:
    /// `absorb_events` consults the path of every unreached target on
    /// every run, and `root_path` allocates a fresh `Vec` per call —
    /// millions of allocations over a PAO sampling phase without this.
    path_cache: Vec<Option<Vec<ArcId>>>,
}

impl AdaptiveQp {
    /// Theorem-2 mode: one counter per retrieval, with the required
    /// sample counts in [`InferenceGraph::retrievals`] order.
    ///
    /// # Panics
    /// Panics if `needed` has the wrong length.
    pub fn for_retrievals(g: &InferenceGraph, needed: &[u64]) -> Self {
        let retrievals: Vec<ArcId> = g.retrievals().collect();
        assert_eq!(retrievals.len(), needed.len(), "one sample count per retrieval");
        Self {
            mode: SamplingMode::Retrievals,
            stats: retrievals
                .iter()
                .zip(needed)
                .map(|(&arc, &n)| AimStat { arc, needed: n, attempts: 0, reached: 0, successes: 0 })
                .collect(),
            runs: 0,
            aim_cache: HashMap::new(),
            aim_programs: HashMap::new(),
            path_cache: vec![None; needed.len()],
        }
    }

    /// Theorem-3 mode: explicit `(experiment, required attempts)` pairs.
    pub fn for_experiments(targets: Vec<(ArcId, u64)>) -> Self {
        let stats: Vec<AimStat> = targets
            .into_iter()
            .map(|(arc, n)| AimStat { arc, needed: n, attempts: 0, reached: 0, successes: 0 })
            .collect();
        let path_cache = vec![None; stats.len()];
        Self {
            mode: SamplingMode::Experiments,
            stats,
            runs: 0,
            aim_cache: HashMap::new(),
            aim_programs: HashMap::new(),
            path_cache,
        }
    }

    /// The sampling mode.
    pub fn mode(&self) -> SamplingMode {
        self.mode
    }

    /// Current per-target statistics.
    pub fn stats(&self) -> &[AimStat] {
        &self.stats
    }

    /// Total contexts processed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Whether every counter is satisfied ("the sampling phase is over
    /// when all counters fall below 0").
    pub fn done(&self) -> bool {
        self.stats.iter().all(AimStat::done)
    }

    /// Emit the processor's memo and sampling state into a
    /// [`MetricsSink`](qpl_obs::MetricsSink): `engine.adaptive.*`
    /// counters for runs processed and memo occupancy (aiming strategies
    /// built, root paths cached), plus one `engine.adaptive.target`
    /// event per target with its allocation (`needed`), progress
    /// (`attempts`/`reached`/`successes`), and the `p_hat`/`rho_hat`
    /// estimates the learner will hand to `Υ_AOT`.
    pub fn emit_to(&self, sink: &mut dyn qpl_obs::MetricsSink) {
        sink.counter("engine.adaptive.runs", self.runs);
        sink.counter("engine.adaptive.aim_strategies_memoized", self.aim_cache.len() as u64);
        sink.counter(
            "engine.adaptive.root_paths_cached",
            self.path_cache.iter().filter(|p| p.is_some()).count() as u64,
        );
        sink.counter(
            "engine.adaptive.targets_done",
            self.stats.iter().filter(|s| s.done()).count() as u64,
        );
        if sink.enabled() {
            for s in &self.stats {
                sink.event(
                    "engine.adaptive.target",
                    &[
                        ("arc", f64::from(s.arc.0)),
                        ("needed", s.needed as f64),
                        ("attempts", s.attempts as f64),
                        ("reached", s.reached as f64),
                        ("successes", s.successes as f64),
                        ("p_hat", s.p_hat()),
                        ("rho_hat", s.rho_hat()),
                    ],
                );
            }
        }
    }

    /// The target the next run should aim at: the one with the largest
    /// remaining counter ("always begin with the retrieval whose current
    /// counter value is largest").
    pub fn next_target(&self) -> Option<ArcId> {
        self.stats.iter().filter(|s| !s.done()).max_by_key(|s| s.needed - s.attempts).map(|s| s.arc)
    }

    /// Builds the aiming strategy for `target`: the first path goes
    /// straight down `Π(target)` to the target (continuing to the
    /// nearest retrieval if the target is a reduction); the remaining
    /// arcs follow in depth-first order.
    pub fn aiming_strategy(g: &InferenceGraph, target: ArcId) -> Strategy {
        let mut first: Vec<ArcId> = g.root_path(target);
        first.push(target);
        // If the target is a reduction, continue to a retrieval so the
        // first segment is a legal path.
        let mut tail = target;
        while g.arc(tail).kind == ArcKind::Reduction {
            let next = g.children(g.arc(tail).to)[0];
            first.push(next);
            tail = next;
        }
        let in_first: Vec<bool> = {
            let mut v = vec![false; g.arc_count()];
            for &a in &first {
                v[a.index()] = true;
            }
            v
        };
        let mut arcs = first.clone();
        fn complete(g: &InferenceGraph, n: NodeId, in_first: &[bool], out: &mut Vec<ArcId>) {
            for &c in g.children(n) {
                if !in_first[c.index()] {
                    out.push(c);
                }
                complete(g, g.arc(c).to, in_first, out);
            }
        }
        complete(g, g.root(), &in_first, &mut arcs);
        // Deduplicate while preserving order (children of first-path arcs
        // were visited by `complete` as well).
        let mut seen = vec![false; g.arc_count()];
        arcs.retain(|a| {
            let new = !seen[a.index()];
            seen[a.index()] = true;
            new
        });
        Strategy::from_arcs(g, arcs).expect("aiming construction yields a valid strategy")
    }

    /// Processes one context: aims at the neediest target, executes, and
    /// updates every target's counters from the trace (Definition 1).
    /// Returns the trace, or `None` if sampling is already complete.
    pub fn observe(&mut self, g: &InferenceGraph, ctx: &Context) -> Option<Trace> {
        let mut scratch = RunScratch::new(g);
        if self.observe_into(g, ctx, &mut scratch) {
            Some(scratch.to_trace())
        } else {
            None
        }
    }

    /// [`observe`](Self::observe) into reusable buffers — the sampling
    /// loops of PAO run this millions of times, so the execution writes
    /// into `scratch` instead of allocating a [`Trace`]. Returns `false`
    /// if sampling is already complete (scratch left untouched).
    pub fn observe_into(
        &mut self,
        g: &InferenceGraph,
        ctx: &Context,
        scratch: &mut RunScratch,
    ) -> bool {
        let Some(target) = self.next_target() else {
            return false;
        };
        let strategy =
            self.aim_cache.entry(target).or_insert_with(|| Self::aiming_strategy(g, target));
        execute_into(g, strategy, ctx, scratch);
        self.absorb_events(g, scratch.events());
        true
    }

    /// Feeds a whole [`ContextBatch`] through the adaptive processor:
    /// the current aiming strategy runs as a compiled program over every
    /// undrained lane at once, then the lanes absorb in order through
    /// the plane-form counter update ([`absorb_batch_lane`]
    /// (Self::absorb_batch_lane)) — byte-identical statistics to feeding
    /// the lanes to [`observe`](Self::observe) one at a time. Whenever a
    /// counter fills and the aim changes mid-batch, the remaining lanes
    /// re-run under the new target's program. Returns the number of
    /// lanes consumed: sampling can complete mid-batch, in which case
    /// the rest of the batch is untouched (exactly as a scalar driver
    /// would stop feeding once `observe` returns `None`).
    pub fn observe_batch(&mut self, g: &InferenceGraph, batch: &ContextBatch) -> u64 {
        let lanes = batch.lanes();
        let mut lane = 0usize;
        let mut consumed = 0u64;
        let mut run = BatchRun::new();
        while lane < lanes {
            let Some(target) = self.next_target() else { break };
            if !self.aim_programs.contains_key(&target) {
                let strategy = self
                    .aim_cache
                    .entry(target)
                    .or_insert_with(|| Self::aiming_strategy(g, target));
                match StrategyProgram::compile(g, strategy) {
                    Ok(p) => {
                        self.aim_programs.insert(target, p);
                    }
                    Err(_) => {
                        // Non-tree graph: no aiming strategy compiles, so
                        // drain everything through the interpreter.
                        let mut ctx = Context::all_open(g);
                        let mut scratch = RunScratch::new(g);
                        while lane < lanes {
                            batch.extract_lane(lane, &mut ctx);
                            if !self.observe_into(g, &ctx, &mut scratch) {
                                break;
                            }
                            lane += 1;
                            consumed += 1;
                        }
                        return consumed;
                    }
                }
            }
            let prog = &self.aim_programs[&target];
            execute_batch(prog, batch, lanes_from(lane, lanes), &mut run);
            while lane < lanes {
                self.absorb_batch_lane(g, &run, lane);
                lane += 1;
                consumed += 1;
                if self.next_target() != Some(target) {
                    // Re-aim: the undrained suffix re-runs under the new
                    // target's program (or sampling is complete).
                    break;
                }
            }
        }
        consumed
    }

    /// Updates counters from an arbitrary trace. For each target `e`:
    /// the run *attempted to reach* `e` iff it either attempted `e`
    /// itself, or followed `Π(e)` until some arc of it came up blocked.
    pub fn absorb(&mut self, g: &InferenceGraph, trace: &Trace) {
        self.absorb_events(g, &trace.events);
    }

    /// [`absorb`](Self::absorb) from the raw event slice — shared by the
    /// owned-trace path and the scratch path.
    pub fn absorb_events(&mut self, g: &InferenceGraph, events: &[(ArcId, ArcOutcome)]) {
        fn outcome_in(events: &[(ArcId, ArcOutcome)], arc: ArcId) -> Option<ArcOutcome> {
            events.iter().find(|&&(a, _)| a == arc).map(|&(_, o)| o)
        }
        self.runs += 1;
        for idx in 0..self.stats.len() {
            let arc = self.stats[idx].arc;
            match outcome_in(events, arc) {
                Some(outcome) => {
                    let stat = &mut self.stats[idx];
                    stat.attempts += 1;
                    stat.reached += 1;
                    if outcome == ArcOutcome::Traversed {
                        stat.successes += 1;
                    }
                }
                None => {
                    // Did the run follow Π(e) maximally and get blocked?
                    let path =
                        self.path_cache[idx].get_or_insert_with(|| g.root_path(arc)).as_slice();
                    let mut blocked_on_path = false;
                    for &b in path {
                        match outcome_in(events, b) {
                            Some(ArcOutcome::Traversed) => continue,
                            Some(ArcOutcome::Blocked) => {
                                blocked_on_path = true;
                                break;
                            }
                            None => break, // run went elsewhere: not an attempt
                        }
                    }
                    if blocked_on_path {
                        self.stats[idx].attempts += 1;
                    }
                }
            }
        }
    }

    /// Updates counters from lane `lane` of a batched run — the
    /// plane-form twin of [`absorb_events`](Self::absorb_events):
    /// [`BatchRun::outcome_in`] answers the same attempted/traversed
    /// queries in O(1) that the scalar path answers by scanning the
    /// event list, so the Definition-1 bookkeeping (including the
    /// blocked-on-`Π(e)` walk) is identical.
    pub fn absorb_batch_lane(&mut self, g: &InferenceGraph, run: &BatchRun, lane: usize) {
        self.runs += 1;
        for idx in 0..self.stats.len() {
            let arc = self.stats[idx].arc;
            match run.outcome_in(lane, arc) {
                Some(outcome) => {
                    let stat = &mut self.stats[idx];
                    stat.attempts += 1;
                    stat.reached += 1;
                    if outcome == ArcOutcome::Traversed {
                        stat.successes += 1;
                    }
                }
                None => {
                    // Did the run follow Π(e) maximally and get blocked?
                    let path =
                        self.path_cache[idx].get_or_insert_with(|| g.root_path(arc)).as_slice();
                    let mut blocked_on_path = false;
                    for &b in path {
                        match run.outcome_in(lane, b) {
                            Some(ArcOutcome::Traversed) => continue,
                            Some(ArcOutcome::Blocked) => {
                                blocked_on_path = true;
                                break;
                            }
                            None => break, // run went elsewhere: not an attempt
                        }
                    }
                    if blocked_on_path {
                        self.stats[idx].attempts += 1;
                    }
                }
            }
        }
    }

    /// The estimated success-probability vector `p̂` for the targets, in
    /// target order (handed to `Υ`).
    pub fn p_hat(&self) -> Vec<f64> {
        self.stats.iter().map(AimStat::p_hat).collect()
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
    fn aiming_strategy_leads_with_target() {
        let g = g_b();
        let dd = g.arc_by_label("D_d").unwrap();
        let s = AdaptiveQp::aiming_strategy(&g, dd);
        let labels: Vec<&str> = s.arcs().iter().map(|&a| g.arc(a).label.as_str()).collect();
        assert_eq!(&labels[..4], ["R_gs", "R_st", "R_td", "D_d"]);
        assert_eq!(labels.len(), 10, "strategy still covers all arcs");
    }

    #[test]
    fn aiming_at_reduction_extends_to_retrieval() {
        let g = g_b();
        let rst = g.arc_by_label("R_st").unwrap();
        let s = AdaptiveQp::aiming_strategy(&g, rst);
        let labels: Vec<&str> = s.arcs().iter().map(|&a| g.arc(a).label.as_str()).collect();
        assert_eq!(&labels[..4], ["R_gs", "R_st", "R_tc", "D_c"]);
    }

    #[test]
    fn fixed_strategy_starves_but_adaptive_does_not() {
        // D_p always succeeds: a fixed prof-first strategy never samples
        // D_g; the adaptive processor still gets its 20 samples.
        let g = g_a();
        let model = IndependentModel::from_retrieval_probs(&g, &[1.0, 0.5]).unwrap();
        let mut qp = AdaptiveQp::for_retrievals(&g, &[30, 20]);
        let mut rng = StdRng::seed_from_u64(0);
        while !qp.done() {
            let ctx = model.sample(&mut rng);
            qp.observe(&g, &ctx);
        }
        let dg_stat = qp.stats().iter().find(|s| g.arc(s.arc).label == "D_g").unwrap();
        assert!(dg_stat.reached >= 20, "adaptive sampling reached D_g {} times", dg_stat.reached);
    }

    #[test]
    fn paper_sample_sharing_example() {
        // Section 4.1: with ⟨m_p, m_g⟩ = ⟨30, 20⟩, if 18 of the 30 D_p
        // probes succeed, 12 D_g samples come for free and only 8 more
        // runs are needed. Simulate a deterministic alternation.
        let g = g_a();
        let mut qp = AdaptiveQp::for_retrievals(&g, &[30, 20]);
        let dp = g.arc_by_label("D_p").unwrap();
        let aim_p = AdaptiveQp::aiming_strategy(&g, dp);
        // 30 contexts aimed at D_p ("QP^A may use Θ₁ for the first 30
        // contexts"); 18 succeed, 12 fail and fall through to D_g.
        for i in 0..30 {
            let ctx = if i < 18 {
                Context::with_blocked(&g, &[])
            } else {
                Context::with_blocked(&g, &[dp])
            };
            let trace = qpl_graph::context::execute(&g, &aim_p, &ctx);
            qp.absorb(&g, &trace);
        }
        let stats = qp.stats();
        let sp = stats.iter().find(|s| g.arc(s.arc).label == "D_p").unwrap();
        let sg = stats.iter().find(|s| g.arc(s.arc).label == "D_g").unwrap();
        assert_eq!(sp.attempts, 30);
        assert_eq!(sp.successes, 18);
        assert_eq!(sg.reached, 12, "free D_g samples from failed D_p probes");
        // Only 20 − 12 = 8 more contexts needed, and PAO aims at D_g now.
        assert_eq!(qp.next_target(), Some(g.arc_by_label("D_g").unwrap()));
        for _ in 0..8 {
            qp.observe(&g, &Context::with_blocked(&g, &[dp]));
        }
        assert!(qp.done());
        assert_eq!(qp.runs(), 38);
    }

    #[test]
    fn p_hat_matches_paper_fractions() {
        // Section 4's worked numbers: D_p succeeds 18 of its 30 trials,
        // D_g 10 of its 20, giving p̂ = ⟨18/30, 10/20⟩. Drive the QP^A
        // with explicit aiming so the counts come out exactly.
        let g = g_a();
        let mut qp = AdaptiveQp::for_retrievals(&g, &[30, 20]);
        let dp = g.arc_by_label("D_p").unwrap();
        let dg = g.arc_by_label("D_g").unwrap();
        let aim_p = AdaptiveQp::aiming_strategy(&g, dp);
        let aim_g = AdaptiveQp::aiming_strategy(&g, dg);
        // Phase 1: 30 runs aimed at D_p; 18 succeed. Of the 12 failures
        // (which fall through to D_g), 6 find D_g open.
        for i in 0..30u32 {
            let mut blocked = Vec::new();
            if i >= 18 {
                blocked.push(dp);
            }
            if !(18..24).contains(&i) {
                blocked.push(dg);
            }
            let trace =
                qpl_graph::context::execute(&g, &aim_p, &Context::with_blocked(&g, &blocked));
            qp.absorb(&g, &trace);
        }
        let sp = *qp.stats().iter().find(|s| s.arc == dp).unwrap();
        assert_eq!((sp.attempts, sp.reached, sp.successes), (30, 30, 18));
        assert!((sp.p_hat() - 0.6).abs() < 1e-12, "p̂_p = 18/30");
        let sg = *qp.stats().iter().find(|s| s.arc == dg).unwrap();
        assert_eq!((sg.reached, sg.successes), (12, 6), "free D_g samples");
        // Phase 2: 8 runs aimed at D_g (stopping at its success so D_p
        // gets no extra trials); 4 of them find D_g open.
        for i in 0..8u32 {
            let blocked = if i < 4 { vec![] } else { vec![dg, dp] };
            let trace =
                qpl_graph::context::execute(&g, &aim_g, &Context::with_blocked(&g, &blocked));
            qp.absorb(&g, &trace);
        }
        let sg = *qp.stats().iter().find(|s| s.arc == dg).unwrap();
        assert_eq!((sg.reached, sg.successes), (20, 10));
        assert!((sg.p_hat() - 0.5).abs() < 1e-12, "p̂_g = 10/20");
        assert!(qp.stats().iter().find(|s| s.arc == dg).unwrap().done());
    }

    #[test]
    fn unreached_target_defaults_to_half() {
        let stat = AimStat { arc: ArcId(0), needed: 10, attempts: 10, reached: 0, successes: 0 };
        assert_eq!(stat.p_hat(), 0.5);
        assert_eq!(stat.rho_hat(), 0.0);
    }

    #[test]
    fn blocked_path_counts_as_attempt_in_experiment_mode() {
        // Target D_c with R_st blockable: a run blocked at R_st counts as
        // an attempt (Definition 1) but not a reach.
        let g = g_b();
        let dc = g.arc_by_label("D_c").unwrap();
        let rst = g.arc_by_label("R_st").unwrap();
        let mut qp = AdaptiveQp::for_experiments(vec![(dc, 5)]);
        let ctx = Context::with_blocked(
            &g,
            &[
                rst,
                g.arc_by_label("D_a").unwrap(),
                g.arc_by_label("D_b").unwrap(),
                g.arc_by_label("D_d").unwrap(),
            ],
        );
        qp.observe(&g, &ctx);
        let s = &qp.stats()[0];
        assert_eq!(s.attempts, 1);
        assert_eq!(s.reached, 0);
        assert_eq!(s.rho_hat(), 0.0);
    }

    #[test]
    fn incidental_attempts_credited_to_other_targets() {
        // Aiming at D_d also observes R_gs/R_st on its path; a sibling
        // target sharing the path prefix gets credited when blocked.
        let g = g_b();
        let dd = g.arc_by_label("D_d").unwrap();
        let dc = g.arc_by_label("D_c").unwrap();
        let mut qp = AdaptiveQp::for_experiments(vec![(dd, 10), (dc, 1)]);
        // All open: run aims at D_d, first path R_gs R_st R_td D_d succeeds.
        // D_c's path (R_gs R_st R_tc) was followed through R_st but R_tc
        // was never attempted and never blocked → no credit for D_c.
        qp.observe(&g, &Context::all_open(&g));
        let sc = qp.stats().iter().find(|s| s.arc == dc).unwrap();
        assert_eq!(sc.attempts, 0);
        // Now R_st blocked: the D_d-aimed run is blocked on D_c's path
        // too → both get an attempt.
        let rst = g.arc_by_label("R_st").unwrap();
        let all_blocked: Vec<ArcId> =
            vec![rst, g.arc_by_label("D_a").unwrap(), g.arc_by_label("D_b").unwrap()];
        qp.observe(&g, &Context::with_blocked(&g, &all_blocked));
        let sc = qp.stats().iter().find(|s| s.arc == dc).unwrap();
        let sd = qp.stats().iter().find(|s| s.arc == dd).unwrap();
        assert_eq!(sc.attempts, 1, "blocked on shared path prefix");
        assert_eq!(sd.attempts, 2);
    }

    #[test]
    fn observe_returns_none_when_done() {
        let g = g_a();
        let mut qp = AdaptiveQp::for_retrievals(&g, &[0, 0]);
        assert!(qp.done());
        assert!(qp.observe(&g, &Context::all_open(&g)).is_none());
    }

    #[test]
    fn emit_to_reports_memo_and_per_target_allocation() {
        let g = g_a();
        let mut qp = AdaptiveQp::for_retrievals(&g, &[30, 20]);
        let dp = g.arc_by_label("D_p").unwrap();
        for i in 0..30 {
            let ctx = if i < 18 {
                Context::with_blocked(&g, &[])
            } else {
                Context::with_blocked(&g, &[dp])
            };
            qp.observe(&g, &ctx);
        }
        let mut sink = qpl_obs::MemorySink::new();
        qp.emit_to(&mut sink);
        assert_eq!(sink.counter_total("engine.adaptive.runs"), 30);
        assert!(sink.counter_total("engine.adaptive.aim_strategies_memoized") >= 1);
        let targets: Vec<_> = sink.events_named("engine.adaptive.target").collect();
        assert_eq!(targets.len(), 2, "one event per target retrieval");
        let dp_event = targets
            .iter()
            .find(|e| e.field("arc") == Some(f64::from(dp.0)))
            .expect("D_p target event");
        assert_eq!(dp_event.field("needed"), Some(30.0));
        let reached = dp_event.field("reached").unwrap();
        let successes = dp_event.field("successes").unwrap();
        assert!(reached > 0.0 && successes <= reached);
        assert_eq!(dp_event.field("p_hat"), Some(successes / reached));
    }

    #[test]
    fn batched_observation_matches_scalar_byte_for_byte() {
        // Identical counter trajectories at every batch boundary, with
        // counters filling (and the aim re-targeting) mid-batch, plus a
        // mid-batch sampling-complete cut on the final batch.
        let g = g_b();
        let model = IndependentModel::from_retrieval_probs(&g, &[0.25, 0.5, 0.75, 0.4]).unwrap();
        let mut scalar = AdaptiveQp::for_retrievals(&g, &[150, 90, 75, 120]);
        let mut batched = AdaptiveQp::for_retrievals(&g, &[150, 90, 75, 120]);
        let mut rng = StdRng::seed_from_u64(99);
        let mut consumed_total = 0u64;
        let mut guard = 0u32;
        while !batched.done() {
            let lanes = qpl_graph::batch::LANES;
            let mut b = qpl_graph::batch::ContextBatch::new(g.arc_count(), lanes);
            let mut ctxs = Vec::with_capacity(lanes);
            for lane in 0..lanes {
                let ctx = model.sample(&mut rng);
                b.set_lane(lane, &ctx);
                ctxs.push(ctx);
            }
            let consumed = batched.observe_batch(&g, &b);
            consumed_total += consumed;
            for ctx in ctxs.iter().take(consumed as usize) {
                assert!(scalar.observe(&g, ctx).is_some());
            }
            assert_eq!(scalar.runs(), batched.runs());
            assert_eq!(scalar.done(), batched.done());
            assert_eq!(scalar.next_target(), batched.next_target());
            for (a, b) in scalar.stats().iter().zip(batched.stats()) {
                assert_eq!(
                    (a.arc, a.attempts, a.reached, a.successes),
                    (b.arc, b.attempts, b.reached, b.successes)
                );
            }
            guard += 1;
            assert!(guard < 10_000, "sampling failed to terminate");
        }
        assert_eq!(consumed_total, batched.runs());
        // Once done, a batch consumes nothing.
        let b = qpl_graph::batch::ContextBatch::new(g.arc_count(), 64);
        assert_eq!(batched.observe_batch(&g, &b), 0);
        assert!(scalar.observe(&g, &Context::all_open(&g)).is_none());
    }

    #[test]
    fn estimates_converge_to_truth() {
        let g = g_b();
        let truth = [0.25, 0.5, 0.75, 0.4];
        let model = IndependentModel::from_retrieval_probs(&g, &truth).unwrap();
        let mut qp = AdaptiveQp::for_retrievals(&g, &[4000, 4000, 4000, 4000]);
        let mut rng = StdRng::seed_from_u64(99);
        while !qp.done() {
            let ctx = model.sample(&mut rng);
            qp.observe(&g, &ctx);
        }
        for (stat, &p) in qp.stats().iter().zip(&truth) {
            assert!(
                (stat.p_hat() - p).abs() < 0.04,
                "{}: p̂={} vs p={p}",
                g.arc(stat.arc).label,
                stat.p_hat()
            );
        }
    }
}
