//! The fixed-strategy query processor `QP = ⟨G, Θ⟩`.
//!
//! [`classify_context`] realizes Note 2: a concrete `⟨query, DB⟩` pair is
//! mapped to its blocked-arc equivalence class by evaluating every arc's
//! binding — a reduction is blocked iff one of its unification guards
//! fails for this query's constants; a retrieval is blocked iff its
//! instantiated pattern matches no stored fact. [`QueryProcessor`] then
//! executes the graph-level strategy in that class and reports the
//! answer, cost, and trace.

use crate::cache::{DependencyFootprint, RunCache};
use qpl_datalog::{Atom, Database, Substitution, Symbol};
use qpl_graph::batch::{execute_batch, BatchRun, ContextBatch, LANES};
use qpl_graph::compile::{instantiate_pattern, ArcBinding, CompiledGraph, Guard};
use qpl_graph::context::{
    execute_partial_into, execute_probe_into, Context, RunOutcome, RunScratch, Trace,
};
use qpl_graph::program::{execute_program_partial_into, StrategyProgram};
use qpl_graph::strategy::Strategy;
use qpl_graph::{ArcId, GraphError, InferenceGraph};

/// The satisficing answer to a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// A derivation was found; for query forms with free positions, the
    /// witnessing ground atom.
    Yes(Atom),
    /// No derivation exists under this graph.
    No,
}

impl QueryAnswer {
    /// Whether the answer is affirmative.
    pub fn is_yes(&self) -> bool {
        matches!(self, QueryAnswer::Yes(_))
    }
}

/// Evaluates the guards of an arc for the given bound constants.
fn guards_hold(guards: &[Guard], constants: &[Symbol]) -> bool {
    guards.iter().all(|g| match *g {
        Guard::ArgEqConst(i, c) => constants[i] == c,
        Guard::ArgEqArg(i, j) => constants[i] == constants[j],
    })
}

/// Note 2: maps `⟨query, DB⟩` to its blocked-arc context class.
///
/// # Errors
/// [`GraphError::InvalidStrategy`] if the query does not match the
/// compiled query form.
pub fn classify_context(
    compiled: &CompiledGraph,
    query: &Atom,
    db: &Database,
) -> Result<Context, GraphError> {
    let mut ctx = Context::all_open(&compiled.graph);
    classify_context_into(compiled, query, db, &mut ctx)?;
    Ok(ctx)
}

/// [`classify_context`] into a caller-owned buffer (resized to fit), so
/// per-query loops reuse one allocation.
///
/// # Errors
/// [`GraphError::InvalidStrategy`] if the query does not match the
/// compiled query form.
pub fn classify_context_into(
    compiled: &CompiledGraph,
    query: &Atom,
    db: &Database,
    out: &mut Context,
) -> Result<(), GraphError> {
    if !compiled.form.matches(query) {
        return Err(GraphError::InvalidStrategy(
            "query does not match compiled form (predicate/arity/binding mismatch)".to_string(),
        ));
    }
    let constants = compiled.form.bound_constants(query);
    out.reset_from_fn(&compiled.graph, |a| arc_blocked(compiled.binding(a), &constants, db));
    Ok(())
}

/// Whether one arc is blocked for the given query constants and database.
fn arc_blocked(binding: &ArcBinding, constants: &[Symbol], db: &Database) -> bool {
    match binding {
        ArcBinding::Reduction { guards, .. } => !guards_hold(guards, constants),
        ArcBinding::Retrieval { predicate, pattern, guards } => {
            if !guards_hold(guards, constants) {
                return true;
            }
            let atom = instantiate_pattern(*predicate, pattern, constants);
            if atom.is_ground() {
                !db.contains_atom(&atom)
            } else {
                db.matches(&atom, &Substitution::new()).is_empty()
            }
        }
    }
}

/// Reusable buffers for the batch entry points
/// ([`QueryProcessor::run_batch_into`]): the context plane, the result
/// planes, a classification staging context, and a scalar scratch for
/// the interpreter fallback. One of these per serving thread makes the
/// whole batch path allocation-free after warm-up.
#[derive(Debug, Clone)]
pub struct BatchScratch {
    batch: ContextBatch,
    run: BatchRun,
    staging: Context,
    scratch: RunScratch,
    /// Per-lane staging contexts for lossy plane assembly
    /// ([`pool_context`](Self::pool_context)), grown on demand.
    pool: Vec<Context>,
}

impl BatchScratch {
    /// Buffers sized for `g`.
    pub fn new(g: &InferenceGraph) -> Self {
        Self {
            batch: ContextBatch::new(g.arc_count(), LANES),
            run: BatchRun::new(),
            staging: Context::all_open(g),
            scratch: RunScratch::new(g),
            pool: Vec::new(),
        }
    }

    /// Lane `lane`'s pool context, growing the pool on demand — for
    /// callers that classify queries one at a time with per-lane error
    /// isolation (a serving shard keeps the lanes that classify and
    /// fails the rest individually, where
    /// [`classify_batch_into`](QueryProcessor::classify_batch_into)
    /// would reject the whole plane). Contents are whatever the caller
    /// last wrote; always classify into it before assembling.
    pub fn pool_context(&mut self, g: &InferenceGraph, lane: usize) -> &mut Context {
        while self.pool.len() <= lane {
            self.pool.push(Context::all_open(g));
        }
        &mut self.pool[lane]
    }

    /// Assembles pool contexts `0..lanes` into the plane (reset to
    /// exactly `lanes` lanes over `arc_count` arcs) — the lossy
    /// counterpart of
    /// [`classify_batch_into`](QueryProcessor::classify_batch_into).
    ///
    /// # Panics
    /// If fewer than `lanes` pool contexts exist.
    pub fn assemble_pool_plane(&mut self, arc_count: usize, lanes: usize) {
        assert!(lanes <= self.pool.len(), "pool holds every assembled lane");
        self.batch.reset(arc_count, lanes);
        for (lane, ctx) in self.pool[..lanes].iter().enumerate() {
            self.batch.set_lane(lane, ctx);
        }
    }

    /// Split borrow for callers that drive
    /// [`run_classified_batch`](QueryProcessor::run_classified_batch)
    /// off one scratch: the assembled plane, the result planes, and the
    /// scalar fallback scratch.
    pub fn plane_parts_mut(&mut self) -> (&ContextBatch, &mut BatchRun, &mut RunScratch) {
        (&self.batch, &mut self.run, &mut self.scratch)
    }

    /// The context plane filled by the most recent
    /// [`run_batch_into`](QueryProcessor::run_batch_into) chunk — the
    /// classified contexts an adaptation loop feeds to
    /// `Pib::observe_batch`.
    pub fn batch(&self) -> &ContextBatch {
        &self.batch
    }

    /// The result planes of the most recent chunk.
    pub fn run(&self) -> &BatchRun {
        &self.run
    }
}

/// Result of processing one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRun {
    /// The satisficing answer.
    pub answer: QueryAnswer,
    /// The graph-level execution trace (arc outcomes and cost).
    pub trace: Trace,
    /// The context class the query fell into.
    pub context: Context,
}

/// A query processor `⟨G, Θ⟩` bound to a compiled graph.
///
/// The processor owns its strategy (PIB mutates it between queries) but
/// borrows the compiled graph, which is immutable and shared.
#[derive(Debug, Clone)]
pub struct QueryProcessor<'g> {
    compiled: &'g CompiledGraph,
    strategy: Strategy,
    /// Jump-threaded fast path, compiled once per strategy. `None` when
    /// the strategy does not lower (relaxed partial sequences, non-tree
    /// graphs) — execution then falls back to the interpreter, with
    /// identical results either way.
    program: Option<StrategyProgram>,
    /// Predicates the compiled graph's retrieval arcs probe, computed
    /// once per processor — the validity scope for `run_cost_cached`'s
    /// memo, so deltas on unrelated predicates keep it warm.
    footprint: DependencyFootprint,
}

impl<'g> QueryProcessor<'g> {
    /// Creates a processor with the given strategy.
    pub fn new(compiled: &'g CompiledGraph, strategy: Strategy) -> Self {
        let program = StrategyProgram::compile(&compiled.graph, &strategy).ok();
        let footprint = DependencyFootprint::of_compiled(compiled);
        Self { compiled, strategy, program, footprint }
    }

    /// Creates a processor with the depth-first left-to-right strategy.
    pub fn left_to_right(compiled: &'g CompiledGraph) -> Self {
        Self::new(compiled, Strategy::left_to_right(&compiled.graph))
    }

    /// The current strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The compiled jump-threaded program backing
    /// [`run_into`](Self::run_into), when the strategy lowers.
    pub fn program(&self) -> Option<&StrategyProgram> {
        self.program.as_ref()
    }

    /// Replaces the strategy (PIB's hill-climbing step) and recompiles
    /// the program fast path.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.program = StrategyProgram::compile(&self.compiled.graph, &strategy).ok();
        self.strategy = strategy;
    }

    /// The compiled graph.
    pub fn compiled(&self) -> &'g CompiledGraph {
        self.compiled
    }

    /// The dependency footprint of the compiled graph: every predicate
    /// its retrieval arcs can probe. Database deltas outside this set
    /// cannot change any answer this processor produces.
    pub fn footprint(&self) -> &DependencyFootprint {
        &self.footprint
    }

    /// Processes one query against `db`.
    ///
    /// # Errors
    /// [`GraphError::InvalidStrategy`] if the query does not match the
    /// compiled form.
    pub fn run(&self, query: &Atom, db: &Database) -> Result<QueryRun, GraphError> {
        let mut scratch = RunScratch::new(&self.compiled.graph);
        let answer = self.run_into(query, db, &mut scratch)?;
        Ok(QueryRun { answer, trace: scratch.to_trace(), context: scratch.partial().clone() })
    }

    /// [`run`](Self::run) into reusable buffers: classifies the context
    /// into the scratch's partial buffer and executes there, so a query
    /// loop holding one [`RunScratch`] allocates nothing per query. The
    /// trace and context remain readable off the scratch.
    ///
    /// # Errors
    /// As for [`run`](Self::run).
    pub fn run_into(
        &self,
        query: &Atom,
        db: &Database,
        scratch: &mut RunScratch,
    ) -> Result<QueryAnswer, GraphError> {
        classify_context_into(self.compiled, query, db, scratch.partial_mut())?;
        let outcome = match &self.program {
            Some(p) => execute_program_partial_into(p, scratch),
            None => execute_partial_into(&self.compiled.graph, &self.strategy, scratch),
        };
        Ok(match outcome {
            RunOutcome::Succeeded(arc) => QueryAnswer::Yes(self.witness(arc, query, db)),
            RunOutcome::Exhausted => QueryAnswer::No,
        })
    }

    /// Processes one query against `db` *lazily*: arc statuses are
    /// evaluated only when the strategy actually attempts the arc, so a
    /// query answered on the first path touches exactly one database
    /// probe — the way a real deployment would run. Produces a trace
    /// identical to [`run`](Self::run) (property-tested), but the
    /// returned [`QueryRun::context`] contains statuses only for
    /// attempted arcs (unattempted arcs read as open).
    ///
    /// # Errors
    /// [`GraphError::InvalidStrategy`] if the query does not match the
    /// compiled form.
    pub fn run_lazy(&self, query: &Atom, db: &Database) -> Result<QueryRun, GraphError> {
        let mut scratch = RunScratch::new(&self.compiled.graph);
        let answer = self.run_lazy_into(query, db, &mut scratch)?;
        Ok(QueryRun { answer, trace: scratch.to_trace(), context: scratch.partial().clone() })
    }

    /// [`run_lazy`](Self::run_lazy) into reusable buffers — the lazy
    /// probing semantics with zero per-query allocation. The trace and
    /// the partial context remain readable off the scratch.
    ///
    /// # Errors
    /// As for [`run_lazy`](Self::run_lazy).
    pub fn run_lazy_into(
        &self,
        query: &Atom,
        db: &Database,
        scratch: &mut RunScratch,
    ) -> Result<QueryAnswer, GraphError> {
        if !self.compiled.form.matches(query) {
            return Err(GraphError::InvalidStrategy(
                "query does not match compiled form (predicate/arity/binding mismatch)".to_string(),
            ));
        }
        let constants = self.compiled.form.bound_constants(query);
        let outcome = execute_probe_into(&self.compiled.graph, &self.strategy, scratch, |a| {
            arc_blocked(self.compiled.binding(a), &constants, db)
        });
        Ok(match outcome {
            RunOutcome::Succeeded(arc) => QueryAnswer::Yes(self.witness(arc, query, db)),
            RunOutcome::Exhausted => QueryAnswer::No,
        })
    }

    /// [`run_into`](Self::run_into) with telemetry: wraps the run in an
    /// `engine.qp.run` wall-clock span and emits the finished trace's
    /// `graph.run.*` counters plus an `engine.qp.queries` /
    /// `engine.qp.yes_answers` tally. With a
    /// [`NoopSink`](qpl_obs::NoopSink) this is `run_into` plus a few
    /// dead branches — no clock reads, no allocation.
    ///
    /// # Errors
    /// As for [`run`](Self::run).
    pub fn run_into_observed(
        &self,
        query: &Atom,
        db: &Database,
        scratch: &mut RunScratch,
        sink: &mut dyn qpl_obs::MetricsSink,
    ) -> Result<QueryAnswer, GraphError> {
        let timer = qpl_obs::SpanTimer::start(sink, "engine.qp.run");
        let answer = self.run_into(query, db, scratch)?;
        timer.finish(sink);
        sink.counter("engine.qp.queries", 1);
        if answer.is_yes() {
            sink.counter("engine.qp.yes_answers", 1);
        }
        if sink.enabled() {
            scratch.to_trace().emit_to(sink);
        }
        Ok(answer)
    }

    /// [`run_cost_cached`](Self::run_cost_cached) with telemetry: the
    /// same memoized run wrapped in an `engine.qp.run_cached` span, with
    /// `engine.qp.queries` tallied; cache hit/miss counters live on the
    /// [`RunCache`] itself (emit them once per phase via
    /// [`RunCache::emit_to`]).
    ///
    /// # Errors
    /// As for [`run`](Self::run).
    pub fn run_cost_cached_observed(
        &self,
        query: &Atom,
        db: &Database,
        cache: &mut RunCache,
        scratch: &mut RunScratch,
        sink: &mut dyn qpl_obs::MetricsSink,
    ) -> Result<(QueryAnswer, f64), GraphError> {
        let timer = qpl_obs::SpanTimer::start(sink, "engine.qp.run_cached");
        let result = self.run_cost_cached(query, db, cache, scratch)?;
        timer.finish(sink);
        sink.counter("engine.qp.queries", 1);
        if sink.enabled() {
            sink.value("engine.qp.cost", result.1);
        }
        Ok(result)
    }

    /// [`run_into`](Self::run_into) memoized through a [`RunCache`]:
    /// returns the `(answer, cost)` pair for `query`, reusing a prior
    /// run when the same bound constants were already processed under
    /// the current ⟨database instance, footprint generation, strategy⟩
    /// triple. Validity is scoped to the processor's
    /// [`footprint`](Self::footprint): a delta on a predicate no
    /// retrieval arc probes leaves the memo warm, while footprint
    /// deltas, [`set_strategy`](Self::set_strategy) calls, or switching
    /// `Database` instances all self-invalidate — so interleaving
    /// database updates stays correct and only repeated identical runs
    /// get cheaper.
    ///
    /// On a cache miss the scratch holds the run's trace and partial
    /// context as usual; on a hit the scratch is untouched and the cost
    /// comes from the memo.
    ///
    /// # Errors
    /// As for [`run`](Self::run).
    pub fn run_cost_cached(
        &self,
        query: &Atom,
        db: &Database,
        cache: &mut RunCache,
        scratch: &mut RunScratch,
    ) -> Result<(QueryAnswer, f64), GraphError> {
        if !self.compiled.form.matches(query) {
            return Err(GraphError::InvalidStrategy(
                "query does not match compiled form (predicate/arity/binding mismatch)".to_string(),
            ));
        }
        let key = self.compiled.form.bound_constants(query);
        // The fingerprint is cached on the strategy, so revalidation no
        // longer re-hashes the arc vector on every cached run.
        cache.revalidate_scoped(db, &self.footprint, self.strategy.fingerprint());
        if let Some((answer, cost)) = cache.get(&key) {
            // Intentional clone: the memoized answer stays owned by the
            // cache; handing out a borrow would pin the cache for the
            // caller's whole use of the result.
            return Ok((answer.clone(), *cost));
        }
        let answer = self.run_into(query, db, scratch)?;
        let cost = scratch.cost();
        // Intentional clone: one per cache *miss* (amortized away by the
        // hits the memo exists for).
        cache.insert(key, answer.clone(), cost);
        Ok((answer, cost))
    }

    /// Classifies up to [`LANES`] queries into one [`ContextBatch`]
    /// plane, lane `l` holding query `l`'s Note-2 context. `staging` is
    /// a reusable scalar buffer. The batch is resized to exactly
    /// `queries.len()` lanes.
    ///
    /// # Errors
    /// [`GraphError::BatchShape`] if more than [`LANES`] queries are
    /// given; [`GraphError::InvalidStrategy`] if any query does not
    /// match the compiled form (the batch is left partially filled —
    /// callers wanting per-query error isolation should classify with
    /// [`classify_context_into`] themselves).
    pub fn classify_batch_into(
        &self,
        queries: &[Atom],
        db: &Database,
        batch: &mut ContextBatch,
        staging: &mut Context,
    ) -> Result<(), GraphError> {
        if queries.len() > LANES {
            return Err(GraphError::BatchShape(format!(
                "{} queries exceed the {LANES}-lane plane",
                queries.len()
            )));
        }
        batch.reset(self.compiled.graph.arc_count(), queries.len());
        for (lane, query) in queries.iter().enumerate() {
            classify_context_into(self.compiled, query, db, staging)?;
            batch.set_lane(lane, staging);
        }
        Ok(())
    }

    /// Executes one already-classified plane and appends each lane's
    /// `(answer, cost)` to `out`, in lane order. `queries` must be the
    /// same slice the plane was classified from (lane `l` ↔ query `l`);
    /// it is consulted only to reconstruct witnesses.
    ///
    /// Results are bit-identical to [`run_into`](Self::run_into) on each
    /// query separately: the program path inherits the batch executor's
    /// determinism contract, and the fallback path (a strategy that does
    /// not lower) runs the interpreter per lane.
    ///
    /// # Errors
    /// [`GraphError::BatchShape`] if `queries` and the plane disagree on
    /// lane count or the plane was built for a different graph.
    pub fn run_classified_batch(
        &self,
        queries: &[Atom],
        db: &Database,
        batch: &ContextBatch,
        run: &mut BatchRun,
        scratch: &mut RunScratch,
        out: &mut Vec<(QueryAnswer, f64)>,
    ) -> Result<(), GraphError> {
        if queries.len() != batch.lanes() {
            return Err(GraphError::BatchShape(format!(
                "{} queries for a {}-lane plane",
                queries.len(),
                batch.lanes()
            )));
        }
        if batch.arc_count() != self.compiled.graph.arc_count() {
            return Err(GraphError::BatchShape(format!(
                "plane covers {} arcs but the graph covers {}",
                batch.arc_count(),
                self.compiled.graph.arc_count()
            )));
        }
        match &self.program {
            Some(p) => {
                execute_batch(p, batch, batch.active_mask(), run);
                for (lane, query) in queries.iter().enumerate() {
                    let answer = match run.outcome(lane) {
                        RunOutcome::Succeeded(arc) => {
                            QueryAnswer::Yes(self.witness(arc, query, db))
                        }
                        RunOutcome::Exhausted => QueryAnswer::No,
                    };
                    out.push((answer, run.cost(lane)));
                }
            }
            None => {
                for (lane, query) in queries.iter().enumerate() {
                    batch.extract_lane(lane, scratch.partial_mut());
                    let outcome =
                        execute_partial_into(&self.compiled.graph, &self.strategy, scratch);
                    let answer = match outcome {
                        RunOutcome::Succeeded(arc) => {
                            QueryAnswer::Yes(self.witness(arc, query, db))
                        }
                        RunOutcome::Exhausted => QueryAnswer::No,
                    };
                    out.push((answer, scratch.cost()));
                }
            }
        }
        Ok(())
    }

    /// Processes any number of queries through the bit-parallel batch
    /// path, [`LANES`] at a time: classify a chunk into `s.batch`,
    /// execute the plane, append each `(answer, cost)` to `out` in
    /// query order. `out` is cleared first. After return, `s` holds the
    /// *last* chunk's plane and result planes.
    ///
    /// # Errors
    /// As for [`classify_batch_into`](Self::classify_batch_into); `out`
    /// keeps the chunks completed before the failing one.
    pub fn run_batch_into(
        &self,
        queries: &[Atom],
        db: &Database,
        s: &mut BatchScratch,
        out: &mut Vec<(QueryAnswer, f64)>,
    ) -> Result<(), GraphError> {
        out.clear();
        for chunk in queries.chunks(LANES) {
            self.classify_batch_into(chunk, db, &mut s.batch, &mut s.staging)?;
            self.run_classified_batch(chunk, db, &s.batch, &mut s.run, &mut s.scratch, out)?;
        }
        Ok(())
    }

    /// Reconstructs the witnessing ground atom for a successful
    /// retrieval arc of `query`'s run — public so serving layers that
    /// execute through the raw batch planes can turn a
    /// [`RunOutcome::Succeeded`] arc back into an answer atom.
    ///
    /// # Panics
    /// Invariant assert: `arc` must be a retrieval arc that actually
    /// succeeded for `query` under `db` (i.e. came out of a run on the
    /// matching context). Passing an arbitrary arc may panic.
    pub fn witness(&self, arc: ArcId, query: &Atom, db: &Database) -> Atom {
        let constants = self.compiled.form.bound_constants(query);
        match self.compiled.binding(arc) {
            ArcBinding::Retrieval { predicate, pattern, .. } => {
                let atom = instantiate_pattern(*predicate, pattern, &constants);
                if atom.is_ground() {
                    atom
                } else {
                    let sub = db
                        .matches(&atom, &Substitution::new())
                        .into_iter()
                        .next()
                        .expect("retrieval succeeded, so a match exists");
                    sub.apply(&atom)
                }
            }
            ArcBinding::Reduction { .. } => {
                unreachable!("success nodes are reached via retrieval arcs")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpl_datalog::parser::{parse_program, parse_query, parse_query_form};
    use qpl_datalog::topdown::TopDown;
    use qpl_datalog::SymbolTable;
    use qpl_graph::compile::{compile, CompileOptions};

    const FIGURE1: &str = "instructor(X) :- prof(X).\n\
                           instructor(X) :- grad(X).\n\
                           prof(russ). grad(manolis).";

    fn setup(kb: &str, form: &str) -> (SymbolTable, CompiledGraph, Database) {
        let mut t = SymbolTable::new();
        let p = parse_program(kb, &mut t).unwrap();
        let qf = parse_query_form(form, &mut t).unwrap();
        let cg = compile(&p.rules, &qf, &t, &CompileOptions::default()).unwrap();
        (t, cg, p.facts)
    }

    #[test]
    fn figure1_answers_and_costs() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let qp = QueryProcessor::left_to_right(&cg);

        // instructor(russ): prof-first finds it on the first path, cost 2.
        let run = qp.run(&parse_query("instructor(russ)", &mut t).unwrap(), &db).unwrap();
        assert!(run.answer.is_yes());
        assert_eq!(run.trace.cost, 2.0);

        // instructor(manolis): prof fails first, cost 4 (the paper's c(Θ₁,I₁)).
        let run = qp.run(&parse_query("instructor(manolis)", &mut t).unwrap(), &db).unwrap();
        assert!(run.answer.is_yes());
        assert_eq!(run.trace.cost, 4.0);

        // instructor(fred): both fail, answer no, cost 4.
        let run = qp.run(&parse_query("instructor(fred)", &mut t).unwrap(), &db).unwrap();
        assert_eq!(run.answer, QueryAnswer::No);
        assert_eq!(run.trace.cost, 4.0);
    }

    #[test]
    fn alternative_strategy_changes_cost_not_answer() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let g = &cg.graph;
        // Build grad-first: reverse the root's child order.
        let mut orders: Vec<Vec<ArcId>> = g.node_ids().map(|n| g.children(n).to_vec()).collect();
        orders[g.root().index()].reverse();
        let grad_first = Strategy::dfs_from_orders(g, &orders).unwrap();
        let qp = QueryProcessor::new(&cg, grad_first);

        let run = qp.run(&parse_query("instructor(manolis)", &mut t).unwrap(), &db).unwrap();
        assert!(run.answer.is_yes());
        assert_eq!(run.trace.cost, 2.0, "the paper's c(Θ₂, I₁) = 2");

        let run = qp.run(&parse_query("instructor(russ)", &mut t).unwrap(), &db).unwrap();
        assert!(run.answer.is_yes());
        assert_eq!(run.trace.cost, 4.0, "the paper's c(Θ₂, I₂) = 4");
    }

    #[test]
    fn witness_has_bindings_for_free_positions() {
        let kb = "reaches(X, Y) :- direct(X, Y). direct(hub, spoke1). direct(hub, spoke2).";
        let (mut t, cg, db) = setup(kb, "reaches(b,f)");
        let qp = QueryProcessor::left_to_right(&cg);
        let run = qp.run(&parse_query("reaches(hub, Z)", &mut t).unwrap(), &db).unwrap();
        match run.answer {
            QueryAnswer::Yes(atom) => {
                assert!(atom.is_ground());
                let s = atom.display(&t).to_string();
                assert!(s == "direct(hub, spoke1)" || s == "direct(hub, spoke2)", "{s}");
            }
            QueryAnswer::No => panic!("expected a witness"),
        }
    }

    #[test]
    fn guarded_rule_blocks_other_constants() {
        let kb = "instructor(X) :- grad(X).\n\
                  grad(X) :- enrolled(X).\n\
                  grad(fred) :- admitted(fred, Y).\n\
                  enrolled(manolis). admitted(fred, toronto).";
        let (mut t, cg, db) = setup(kb, "instructor(b)");
        // For a non-fred query, the guarded reduction must be blocked.
        let ctx = classify_context(&cg, &parse_query("instructor(manolis)", &mut t).unwrap(), &db)
            .unwrap();
        let guarded_arc = cg
            .graph
            .arc_ids()
            .find(|&a| matches!(cg.binding(a), ArcBinding::Reduction { guards, .. } if !guards.is_empty()))
            .unwrap();
        assert!(ctx.is_blocked(guarded_arc));
        // For fred, it is open and the admitted(fred, _) retrieval succeeds.
        let qp = QueryProcessor::left_to_right(&cg);
        let run = qp.run(&parse_query("instructor(fred)", &mut t).unwrap(), &db).unwrap();
        assert!(run.answer.is_yes());
    }

    #[test]
    fn mismatched_query_rejected() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let qp = QueryProcessor::left_to_right(&cg);
        let err = qp.run(&parse_query("prof(russ)", &mut t).unwrap(), &db);
        assert!(err.is_err());
        let err = qp.run(&parse_query("instructor(X)", &mut t).unwrap(), &db);
        assert!(err.is_err(), "free variable where the form demands bound");
    }

    #[test]
    fn agreement_with_sld_oracle_on_figure1() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let mut prog_table = SymbolTable::new();
        let p = parse_program(FIGURE1, &mut prog_table).unwrap();
        let qp = QueryProcessor::left_to_right(&cg);
        for name in ["russ", "manolis", "fred", "ghost"] {
            let q = parse_query(&format!("instructor({name})"), &mut t).unwrap();
            let graph_answer = qp.run(&q, &db).unwrap().answer.is_yes();
            let q2 = parse_query(&format!("instructor({name})"), &mut prog_table).unwrap();
            let oracle = TopDown::new(&p.rules, &p.facts).provable(&q2).unwrap();
            assert_eq!(graph_answer, oracle, "disagreement on {name}");
        }
    }

    #[test]
    fn agreement_with_sld_oracle_on_layered_kb() {
        // Deeper chain with a guarded constant rule and a free-position
        // retrieval.
        let kb = "top(X) :- mid(X).\n\
                  top(X) :- alt(X).\n\
                  mid(X) :- base(X).\n\
                  mid(zed) :- special(zed, W).\n\
                  base(a). base(b). alt(c). special(zed, k1).";
        let (mut t, cg, db) = setup(kb, "top(b)");
        let mut pt = SymbolTable::new();
        let p = parse_program(kb, &mut pt).unwrap();
        let qp = QueryProcessor::left_to_right(&cg);
        for name in ["a", "b", "c", "zed", "nobody"] {
            let q = parse_query(&format!("top({name})"), &mut t).unwrap();
            let got = qp.run(&q, &db).unwrap().answer.is_yes();
            let q2 = parse_query(&format!("top({name})"), &mut pt).unwrap();
            let want = TopDown::new(&p.rules, &p.facts).provable(&q2).unwrap();
            assert_eq!(got, want, "disagreement on {name}");
        }
    }

    #[test]
    fn every_strategy_gives_same_answer() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let strategies = qpl_graph::strategy::enumerate_all(&cg.graph, 100).unwrap();
        for name in ["russ", "manolis", "fred"] {
            let q = parse_query(&format!("instructor({name})"), &mut t).unwrap();
            let answers: Vec<bool> = strategies
                .iter()
                .map(|s| QueryProcessor::new(&cg, s.clone()).run(&q, &db).unwrap().answer.is_yes())
                .collect();
            assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "strategies disagree on {name}: {answers:?}"
            );
        }
    }

    #[test]
    fn repeated_head_variable_answers_match_oracle() {
        // Regression for the Free-then-QueryArg merge in the compiler:
        // p(Y, c) must be NO when q(c) is absent, even though q(a) holds.
        let kb = "p(X, X) :- q(X). q(a).";
        let (mut t, cg, db) = setup(kb, "p(f,b)");
        let mut pt = SymbolTable::new();
        let prog = parse_program(kb, &mut pt).unwrap();
        let qp = QueryProcessor::left_to_right(&cg);
        for (name, want) in [("a", true), ("c", false)] {
            let q = parse_query(&format!("p(Y, {name})"), &mut t).unwrap();
            let got = qp.run(&q, &db).unwrap().answer.is_yes();
            assert_eq!(got, want, "engine answer for p(Y, {name})");
            let q2 = parse_query(&format!("p(Y, {name})"), &mut pt).unwrap();
            let oracle = TopDown::new(&prog.rules, &prog.facts).provable(&q2).unwrap();
            assert_eq!(got, oracle, "oracle agreement for {name}");
        }
    }

    #[test]
    fn lazy_run_matches_eager_run() {
        // Identical traces (events, cost, outcome) and answers on every
        // Figure-1 query, for every enumerable strategy.
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let strategies = qpl_graph::strategy::enumerate_all(&cg.graph, 100).unwrap();
        for name in ["russ", "manolis", "fred"] {
            let q = parse_query(&format!("instructor({name})"), &mut t).unwrap();
            for s in &strategies {
                let qp = QueryProcessor::new(&cg, s.clone());
                let eager = qp.run(&q, &db).unwrap();
                let lazy = qp.run_lazy(&q, &db).unwrap();
                assert_eq!(eager.trace, lazy.trace, "{name} via {}", s.display(&cg.graph));
                assert_eq!(eager.answer, lazy.answer);
            }
        }
    }

    #[test]
    fn lazy_run_touches_only_attempted_arcs() {
        // instructor(russ) with prof-first: success on the first path —
        // the lazy context must not have probed the grad retrieval (it
        // reads as open regardless of the database).
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let qp = QueryProcessor::left_to_right(&cg);
        let q = parse_query("instructor(russ)", &mut t).unwrap();
        let lazy = qp.run_lazy(&q, &db).unwrap();
        assert_eq!(lazy.trace.events.len(), 2);
        let grad_retrieval =
            cg.graph.retrievals().find(|&a| cg.graph.arc(a).label.contains("grad")).unwrap();
        assert!(!lazy.context.is_blocked(grad_retrieval), "never probed → left open");
        // The eager run, by contrast, classifies everything: grad(russ)
        // is absent so the arc is blocked there.
        let eager = qp.run(&q, &db).unwrap();
        assert!(eager.context.is_blocked(grad_retrieval));
    }

    #[test]
    fn observed_run_is_identical_to_plain_run() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let qp = QueryProcessor::left_to_right(&cg);
        let mut sink = qpl_obs::MemorySink::new();
        for name in ["russ", "manolis", "fred"] {
            let q = parse_query(&format!("instructor({name})"), &mut t).unwrap();
            let mut s1 = RunScratch::new(&cg.graph);
            let mut s2 = RunScratch::new(&cg.graph);
            let plain = qp.run_into(&q, &db, &mut s1).unwrap();
            let observed = qp.run_into_observed(&q, &db, &mut s2, &mut sink).unwrap();
            assert_eq!(plain, observed, "telemetry must not change answers");
            assert_eq!(s1.to_trace(), s2.to_trace(), "telemetry must not change traces");
        }
        assert_eq!(sink.counter_total("engine.qp.queries"), 3);
        assert_eq!(sink.counter_total("engine.qp.yes_answers"), 2);
        assert_eq!(sink.span_stats("engine.qp.run").unwrap().count, 3);
        // russ: 2 arcs; manolis: 4; fred: 4.
        assert_eq!(sink.counter_total("graph.run.arcs_attempted"), 10);
        assert_eq!(sink.counter_total("graph.run.succeeded"), 2);
        assert_eq!(sink.counter_total("graph.run.exhausted"), 1);
    }

    #[test]
    fn observed_cached_run_reports_costs() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let qp = QueryProcessor::left_to_right(&cg);
        let mut cache = RunCache::new();
        let mut scratch = RunScratch::new(&cg.graph);
        let mut sink = qpl_obs::MemorySink::new();
        let q = parse_query("instructor(manolis)", &mut t).unwrap();
        for _ in 0..3 {
            let (answer, cost) =
                qp.run_cost_cached_observed(&q, &db, &mut cache, &mut scratch, &mut sink).unwrap();
            assert!(answer.is_yes());
            assert_eq!(cost, 4.0);
        }
        cache.emit_to(&mut sink);
        assert_eq!(sink.counter_total("engine.qp.queries"), 3);
        assert_eq!(sink.value_stats("engine.qp.cost").unwrap().sum, 12.0);
        assert_eq!(sink.counter_total("engine.run_cache.hits"), 2);
        assert_eq!(sink.counter_total("engine.run_cache.misses"), 1);
    }

    #[test]
    fn batch_path_is_bit_identical_to_scalar_runs() {
        // Every enumerable Figure-1 strategy, program path and
        // interpreter fallback alike: answers equal, costs equal to the
        // bit, witnesses equal.
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let names = ["russ", "manolis", "fred", "ghost"];
        let queries: Vec<Atom> = names
            .iter()
            .map(|n| parse_query(&format!("instructor({n})"), &mut t).unwrap())
            .collect();
        let mut strategies = qpl_graph::strategy::enumerate_all(&cg.graph, 100).unwrap();
        // A relaxed, non-path-form sequence the program compiler
        // rejects: both reductions up front. It still executes under the
        // interpreter, so it pins the fallback arm of the batch path.
        let arcs: Vec<ArcId> = cg.graph.arc_ids().collect();
        strategies.push(
            Strategy::from_arcs_relaxed(&cg.graph, vec![arcs[0], arcs[2], arcs[1], arcs[3]])
                .unwrap(),
        );
        let mut saw_fallback = false;
        for s in &strategies {
            let qp = QueryProcessor::new(&cg, s.clone());
            saw_fallback |= qp.program().is_none();
            let mut bs = BatchScratch::new(&cg.graph);
            let mut out = Vec::new();
            qp.run_batch_into(&queries, &db, &mut bs, &mut out).unwrap();
            assert_eq!(out.len(), queries.len());
            let mut scratch = RunScratch::new(&cg.graph);
            for (q, (answer, cost)) in queries.iter().zip(&out) {
                let scalar = qp.run_into(q, &db, &mut scratch).unwrap();
                assert_eq!(answer, &scalar, "{} via {}", q.display(&t), s.display(&cg.graph));
                assert_eq!(
                    cost.to_bits(),
                    scratch.cost().to_bits(),
                    "{} via {}",
                    q.display(&t),
                    s.display(&cg.graph)
                );
            }
        }
        assert!(saw_fallback, "no strategy exercised the interpreter fallback");
    }

    #[test]
    fn run_batch_into_chunks_past_one_plane() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let qp = QueryProcessor::left_to_right(&cg);
        let base = ["russ", "manolis", "fred"];
        let queries: Vec<Atom> = (0..150)
            .map(|i| parse_query(&format!("instructor({})", base[i % 3]), &mut t).unwrap())
            .collect();
        let mut bs = BatchScratch::new(&cg.graph);
        let mut out = Vec::new();
        qp.run_batch_into(&queries, &db, &mut bs, &mut out).unwrap();
        assert_eq!(out.len(), 150);
        // Last chunk: 150 = 64 + 64 + 22 lanes.
        assert_eq!(bs.batch().lanes(), 22);
        let mut scratch = RunScratch::new(&cg.graph);
        for (q, (answer, cost)) in queries.iter().zip(&out) {
            let scalar = qp.run_into(q, &db, &mut scratch).unwrap();
            assert_eq!(answer, &scalar);
            assert_eq!(cost.to_bits(), scratch.cost().to_bits());
        }
    }

    #[test]
    fn pool_assembly_matches_whole_plane_classification() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let qp = QueryProcessor::left_to_right(&cg);
        let base = ["russ", "manolis", "fred", "ben"];
        let queries: Vec<Atom> = (0..7)
            .map(|i| parse_query(&format!("instructor({})", base[i % 4]), &mut t).unwrap())
            .collect();

        // Reference: the all-or-nothing whole-plane path.
        let mut whole = BatchScratch::new(&cg.graph);
        let mut expected = Vec::new();
        qp.classify_batch_into(&queries, &db, &mut whole.batch, &mut whole.staging).unwrap();
        qp.run_classified_batch(
            &queries,
            &db,
            &whole.batch,
            &mut whole.run,
            &mut whole.scratch,
            &mut expected,
        )
        .unwrap();

        // Lane-at-a-time pool assembly (the serving shard's path).
        let mut s = BatchScratch::new(&cg.graph);
        for (lane, q) in queries.iter().enumerate() {
            classify_context_into(&cg, q, &db, s.pool_context(&cg.graph, lane)).unwrap();
        }
        s.assemble_pool_plane(cg.graph.arc_count(), queries.len());
        let mut out = Vec::new();
        let (batch, run, scratch) = s.plane_parts_mut();
        qp.run_classified_batch(&queries, &db, batch, run, scratch, &mut out).unwrap();

        assert_eq!(out.len(), expected.len());
        for ((a, c), (ea, ec)) in out.iter().zip(&expected) {
            assert_eq!(a, ea);
            assert_eq!(c.to_bits(), ec.to_bits(), "pool path is bit-identical");
        }
        // The assembled plane is what an adaptation loop would observe.
        assert_eq!(s.batch().lanes(), queries.len());
    }

    #[test]
    fn batch_shape_errors_are_typed() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let qp = QueryProcessor::left_to_right(&cg);
        let q = parse_query("instructor(russ)", &mut t).unwrap();
        let queries = vec![q; LANES + 1];
        let mut batch = qpl_graph::batch::ContextBatch::new(cg.graph.arc_count(), 1);
        let mut staging = Context::all_open(&cg.graph);
        assert!(matches!(
            qp.classify_batch_into(&queries, &db, &mut batch, &mut staging),
            Err(GraphError::BatchShape(_))
        ));
        // Lane-count mismatch between queries and plane.
        qp.classify_batch_into(&queries[..3], &db, &mut batch, &mut staging).unwrap();
        let mut run = qpl_graph::batch::BatchRun::new();
        let mut scratch = RunScratch::new(&cg.graph);
        let mut out = Vec::new();
        assert!(matches!(
            qp.run_classified_batch(&queries[..2], &db, &batch, &mut run, &mut scratch, &mut out),
            Err(GraphError::BatchShape(_))
        ));
    }

    #[test]
    fn set_strategy_swaps_behavior() {
        let (mut t, cg, db) = setup(FIGURE1, "instructor(b)");
        let mut qp = QueryProcessor::left_to_right(&cg);
        let q = parse_query("instructor(manolis)", &mut t).unwrap();
        assert_eq!(qp.run(&q, &db).unwrap().trace.cost, 4.0);
        let g = &cg.graph;
        let mut orders: Vec<Vec<ArcId>> = g.node_ids().map(|n| g.children(n).to_vec()).collect();
        orders[g.root().index()].reverse();
        qp.set_strategy(Strategy::dfs_from_orders(g, &orders).unwrap());
        assert_eq!(qp.run(&q, &db).unwrap().trace.cost, 2.0);
    }
}
