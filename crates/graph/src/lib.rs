//! # qpl-graph — inference graphs, strategies, contexts, and costs
//!
//! The cost model of Greiner (PODS'92), Section 2: an inference graph
//! `G = ⟨N, A, S, f⟩` describes how a query reduces through rules to
//! attempted database retrievals; a *strategy* `Θ` orders the arcs; a
//! *context* `I` determines which arcs are blocked; and the expected cost
//! `C[Θ] = E_I[c(Θ, I)]` is what the learning algorithms in `qpl-core`
//! minimize.
//!
//! * [`graph`] — the graph arena, the derived cost functions `f*`, `F¬`,
//!   `Π(e)` (Note 5), and tree-shape (`AOT`) classification.
//! * [`strategy`] — path-form strategies (Note 3), depth-first
//!   construction, exhaustive enumeration.
//! * [`context`] — blocked-arc context classes (Note 2) and the
//!   satisficing execution semantics `c(Θ, I)` with full traces.
//! * [`expected`] — finite and independent-arc context distributions with
//!   *exact* expected-cost computation.
//! * [`incremental`] — cached per-node cost state for depth-first
//!   strategies with O(depth · branching) sibling-swap candidate
//!   evaluation (the inner loop of hill-climbing over `T(Θ)`).
//! * [`pessimistic`] — the "assume unexplored arcs are blocked"
//!   completion underlying PIB's `Δ̃` under-estimates.
//! * [`program`] — strategies compiled to flat jump-threaded instruction
//!   arrays: single-context execution as pure index arithmetic.
//! * [`batch`] — bit-parallel execution of a compiled program over 64
//!   contexts at once (one blocked-bitplane per arc).
//! * [`compile`] — compilation of a Datalog rule base + query form into
//!   an inference graph, with the per-arc bindings the engine needs to
//!   decide blocked-status against a real database.
//! * [`hypergraph`] — the Note 4 extension to conjunctive rule bodies
//!   (and-or trees), with [`andor_compile`] turning conjunctive Datalog
//!   rules into bound and-or graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod andor_compile;
pub mod batch;
pub mod compile;
pub mod context;
pub mod error;
pub mod expected;
pub mod graph;
pub mod hypergraph;
pub mod incremental;
pub mod pessimistic;
pub mod program;
pub mod strategy;
#[cfg(test)]
pub(crate) mod testgen;

pub use batch::{
    execute_batch, execute_batch_observed, lanes_from, try_execute_batch, BatchRun, ContextBatch,
    LANES,
};
pub use context::{ArcOutcome, Context, RunOutcome, RunScratch, Trace};
pub use error::GraphError;
pub use expected::{ContextDistribution, FiniteDistribution, IndependentModel};
pub use graph::{ArcData, ArcId, ArcKind, GraphBuilder, InferenceGraph, NodeData, NodeId};
pub use incremental::CostEvaluator;
pub use pessimistic::pessimistic_completion;
pub use program::{
    execute_program_into, execute_program_partial_into, program_cost_into, Instr, StrategyProgram,
    NO_INDEX,
};
pub use strategy::Strategy;
