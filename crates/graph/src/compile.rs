//! Compiling a Datalog rule base + query form into an inference graph.
//!
//! The paper treats the inference graph as given; building it from the
//! rule base is the mechanical step this module supplies. For a query
//! form `q^α` the compiler unfolds the (non-recursive) rule base into a
//! tree of adorned subgoals:
//!
//! * each node is a goal *pattern* over the query's bound constants
//!   ([`PatternTerm`]: a reference to a bound query argument, a fixed
//!   constant from a rule, a free position, or a free variable shared
//!   by several positions);
//! * each rule whose head can unify with a node's pattern contributes a
//!   **reduction arc**, carrying the *guards* under which the
//!   unification actually succeeds at run time (e.g. the paper's
//!   `grad(fred) :- admitted(fred, X)` rule yields a guard "query
//!   argument 0 = fred" — the arc is blocked for every other constant);
//! * each node whose predicate is extensional contributes a **retrieval
//!   arc**, carrying the pattern the engine will probe against the
//!   database.
//!
//! The result pairs the structural [`InferenceGraph`] with per-arc
//! [`ArcBinding`]s; `qpl-engine` uses the bindings to turn a concrete
//! `⟨query, Database⟩` context into blocked-arc statuses (Note 2).

use crate::error::GraphError;
use crate::graph::{ArcId, GraphBuilder, InferenceGraph, NodeId};
use qpl_datalog::{Atom, QueryForm, RuleBase, RuleId, Symbol, SymbolTable, Term, Var};
use std::collections::HashMap;

/// One position of a goal pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternTerm {
    /// The `i`-th *bound* argument of the incoming query.
    QueryArg(usize),
    /// A fixed constant introduced by some rule.
    Const(Symbol),
    /// An unconstrained position (existential) that no other position
    /// of the pattern shares.
    Free,
    /// An existential variable that occurs at several positions of the
    /// pattern: every `Local(k)` with the same `k` names one value, so
    /// `e(X, X)` is `[Local(0), Local(0)]` and never probes as `e(_, _)`.
    Local(u32),
}

/// Instantiates a goal pattern with the query's bound constants: each
/// `Local(k)` becomes one variable shared by all its positions, and each
/// `Free` position a variable of its own.
pub fn instantiate_pattern(
    predicate: Symbol,
    pattern: &[PatternTerm],
    constants: &[Symbol],
) -> Atom {
    let mut fresh = local_count(pattern);
    let args = pattern
        .iter()
        .map(|p| match *p {
            PatternTerm::QueryArg(i) => Term::Const(constants[i]),
            PatternTerm::Const(c) => Term::Const(c),
            PatternTerm::Local(k) => Term::Var(Var(k)),
            PatternTerm::Free => {
                fresh += 1;
                Term::Var(Var(fresh - 1))
            }
        })
        .collect();
    Atom::new(predicate, args)
}

/// One past the largest `Local` identity in `pattern` (0 if none).
fn local_count(pattern: &[PatternTerm]) -> u32 {
    pattern
        .iter()
        .filter_map(|p| match p {
            PatternTerm::Local(k) => Some(k + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// A runtime condition on the incoming query's bound constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Guard {
    /// Bound argument `i` must equal the constant.
    ArgEqConst(usize, Symbol),
    /// Bound arguments `i` and `j` must be equal.
    ArgEqArg(usize, usize),
}

/// How the engine decides an arc's blocked status in a context.
#[derive(Debug, Clone, PartialEq)]
pub enum ArcBinding {
    /// Rule reduction: blocked iff any guard fails.
    Reduction {
        /// The applied rule.
        rule: RuleId,
        /// Conditions on the query's bound constants.
        guards: Vec<Guard>,
    },
    /// Database retrieval: blocked iff no fact matches the instantiated
    /// pattern (after checking the same guards).
    Retrieval {
        /// Probed predicate.
        predicate: Symbol,
        /// Argument pattern to instantiate with the query's constants.
        pattern: Vec<PatternTerm>,
        /// Conditions inherited from the reductions above.
        guards: Vec<Guard>,
    },
}

/// A compiled inference graph: structure plus per-arc runtime bindings.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    /// The structural graph (costs, tree shape, strategies).
    pub graph: InferenceGraph,
    /// Binding for each arc, indexed by [`ArcId`].
    pub bindings: Vec<ArcBinding>,
    /// The query form the graph answers.
    pub form: QueryForm,
}

impl CompiledGraph {
    /// The binding of `a`.
    pub fn binding(&self, a: ArcId) -> &ArcBinding {
        &self.bindings[a.index()]
    }
}

/// Cost assigner signature: `(is_retrieval, predicate name) → f(a)`.
pub type CostAssigner<'a> = Box<dyn Fn(bool, &str) -> f64 + 'a>;

/// Compilation options.
pub struct CompileOptions<'a> {
    /// Predicates that should receive retrieval arcs even though rules
    /// also define them (a predicate can be both stored and derived).
    pub also_retrieve: Vec<Symbol>,
    /// Maximum unfolding depth (defense in depth on top of the
    /// recursion check).
    pub max_depth: usize,
    /// Cost assigner: `(is_retrieval, predicate name) → f(a) > 0`.
    pub cost: CostAssigner<'a>,
}

impl Default for CompileOptions<'_> {
    fn default() -> Self {
        Self { also_retrieve: Vec::new(), max_depth: 64, cost: Box::new(|_, _| 1.0) }
    }
}

/// Compiles `rules` for `form` into an inference graph with bindings.
///
/// # Errors
/// [`GraphError::Compile`] if the rule base is recursive, a rule body is
/// conjunctive (use the [`hypergraph`](crate::hypergraph) compiler), the
/// unfolding exceeds `max_depth`, or the tree has a dead subtree (a goal
/// with neither rules nor a retrieval).
pub fn compile(
    rules: &RuleBase,
    form: &QueryForm,
    table: &SymbolTable,
    options: &CompileOptions<'_>,
) -> Result<CompiledGraph, GraphError> {
    if rules.is_recursive() {
        return Err(GraphError::Compile("rule base is recursive".into()));
    }
    // The root pattern: bound positions become QueryArg(k) in order.
    let mut root_pattern = Vec::with_capacity(form.adornment.arity());
    let mut k = 0usize;
    for b in &form.adornment.0 {
        match b {
            qpl_datalog::Binding::Bound => {
                root_pattern.push(PatternTerm::QueryArg(k));
                k += 1;
            }
            qpl_datalog::Binding::Free => root_pattern.push(PatternTerm::Free),
        }
    }

    let mut builder = GraphBuilder::new(&pattern_label(form.predicate, &root_pattern, table));
    let root = builder.root();
    let mut bindings: Vec<ArcBinding> = Vec::new();
    expand(
        rules,
        table,
        options,
        &mut builder,
        &mut bindings,
        root,
        form.predicate,
        &root_pattern,
        &[],
        0,
    )?;
    let graph = builder.finish().map_err(|e| match e {
        GraphError::DeadLeaf(m) => GraphError::Compile(format!(
            "dead subtree: {m} (no rule applies and the predicate is intensional-only)"
        )),
        other => other,
    })?;
    debug_assert_eq!(bindings.len(), graph.arc_count());
    Ok(CompiledGraph { graph, bindings, form: form.clone() })
}

/// Recursively expands one goal node.
#[allow(clippy::too_many_arguments)]
fn expand(
    rules: &RuleBase,
    table: &SymbolTable,
    options: &CompileOptions<'_>,
    builder: &mut GraphBuilder,
    bindings: &mut Vec<ArcBinding>,
    node: NodeId,
    predicate: Symbol,
    pattern: &[PatternTerm],
    inherited_guards: &[Guard],
    depth: usize,
) -> Result<(), GraphError> {
    if depth > options.max_depth {
        return Err(GraphError::Compile(format!("unfolding exceeded depth {}", options.max_depth)));
    }
    let pred_name = table.name(predicate);
    let is_intensional = rules.rules_for(predicate).next().is_some();
    let wants_retrieval = !is_intensional || options.also_retrieve.contains(&predicate);

    if wants_retrieval {
        let label = format!("D[{}]", pattern_label(predicate, pattern, table));
        let cost = (options.cost)(true, pred_name);
        let arc = builder.retrieval(node, &label, cost);
        push_binding(
            bindings,
            arc,
            ArcBinding::Retrieval {
                predicate,
                pattern: pattern.to_vec(),
                guards: inherited_guards.to_vec(),
            },
        );
    }

    for (rule_id, rule) in rules.rules_for(predicate) {
        if rule.body.len() != 1 {
            return Err(GraphError::Compile(format!(
                "rule {} has a conjunctive body ({} literals); the simple-graph compiler \
                 handles disjunctive rules only — see the hypergraph module",
                rule.display(table),
                rule.body.len()
            )));
        }
        // Unify the rule head with the node pattern.
        let Some((var_map, mut guards)) = match_head(&rule.head.args, pattern) else {
            continue; // statically blocked: constants clash outright
        };
        // Child pattern = body atom under the variable map.
        let body = &rule.body[0];
        let child_pattern = body_pattern(&body.args, &var_map);
        let mut all_guards = inherited_guards.to_vec();
        all_guards.append(&mut guards);
        all_guards.sort_by_key(guard_key);
        all_guards.dedup();

        let label = format!("R{}[{}]", rule_id.0, pattern_label(predicate, pattern, table));
        let cost = (options.cost)(false, pred_name);
        let (arc, child) = builder.reduction(
            node,
            &label,
            cost,
            &pattern_label(body.predicate, &child_pattern, table),
        );
        push_binding(
            bindings,
            arc,
            ArcBinding::Reduction { rule: rule_id, guards: all_guards.clone() },
        );
        expand(
            rules,
            table,
            options,
            builder,
            bindings,
            child,
            body.predicate,
            &child_pattern,
            &all_guards,
            depth + 1,
        )?;
    }
    Ok(())
}

fn guard_key(g: &Guard) -> (usize, usize, u32) {
    match *g {
        Guard::ArgEqConst(i, s) => (0, i, s.index() as u32),
        Guard::ArgEqArg(i, j) => (1, i, j as u32),
    }
}

fn push_binding(bindings: &mut Vec<ArcBinding>, arc: ArcId, b: ArcBinding) {
    debug_assert_eq!(bindings.len(), arc.index());
    bindings.push(b);
}

/// Unifies rule-head arguments against a node pattern, producing the
/// rule-variable map and runtime guards; `None` when constants clash
/// statically.
///
/// Unconstrained values in the map are always `Local`s: each `Free`
/// position of the pattern gets an identity of its own, and positions
/// that the head equates (a repeated head variable) or binds (a head
/// constant or bound term) are resolved through every occurrence of the
/// identity, so two head variables that name one value map to the same
/// term.
pub(crate) fn match_head(
    head_args: &[Term],
    pattern: &[PatternTerm],
) -> Option<(HashMap<Var, PatternTerm>, Vec<Guard>)> {
    if head_args.len() != pattern.len() {
        return None;
    }
    let mut next = local_count(pattern);
    let mut locals: HashMap<u32, PatternTerm> = HashMap::new();
    let mut var_map: HashMap<Var, PatternTerm> = HashMap::new();
    let mut guards = Vec::new();
    for (t, &p) in head_args.iter().zip(pattern) {
        let p = if p == PatternTerm::Free {
            next += 1;
            PatternTerm::Local(next - 1)
        } else {
            resolve(&locals, p)
        };
        match *t {
            Term::Const(c) => {
                unify(PatternTerm::Const(c), p, &mut locals, &mut guards)?;
            }
            Term::Var(v) => {
                let bound = match var_map.get(&v) {
                    None => p,
                    Some(&prev) => unify(resolve(&locals, prev), p, &mut locals, &mut guards)?,
                };
                var_map.insert(v, bound);
            }
        }
    }
    for term in var_map.values_mut() {
        *term = resolve(&locals, *term);
    }
    Some((var_map, guards))
}

/// Follows `Local` identities to what they were unified with.
fn resolve(locals: &HashMap<u32, PatternTerm>, mut p: PatternTerm) -> PatternTerm {
    while let PatternTerm::Local(k) = p {
        match locals.get(&k) {
            Some(&next) => p = next,
            None => break,
        }
    }
    p
}

/// Reconciles two resolved pattern terms one head position or repeated
/// head variable equates, emitting guards and returning the *resolved*
/// term (the more constrained of the two — an unconstrained `Local`
/// never wins over a bound position, and is bound to it for every other
/// position it occurs at); `None` on a static clash.
fn unify(
    a: PatternTerm,
    b: PatternTerm,
    locals: &mut HashMap<u32, PatternTerm>,
    guards: &mut Vec<Guard>,
) -> Option<PatternTerm> {
    use PatternTerm::*;
    match (a, b) {
        (Local(x), Local(y)) if x == y => Some(a),
        (Local(x), other) | (other, Local(x)) => {
            locals.insert(x, other);
            Some(other)
        }
        (Const(x), Const(y)) => (x == y).then_some(Const(x)),
        (QueryArg(i), Const(c)) | (Const(c), QueryArg(i)) => {
            guards.push(Guard::ArgEqConst(i, c));
            Some(Const(c))
        }
        (QueryArg(i), QueryArg(j)) => {
            if i != j {
                guards.push(Guard::ArgEqArg(i.min(j), i.max(j)));
            }
            Some(QueryArg(i.min(j)))
        }
        (Free, _) | (_, Free) => unreachable!("match_head gives every free position an identity"),
    }
}

/// The goal pattern of a body literal under a head match's variable map.
/// An unconstrained value that occurs at one position only is `Free`;
/// one that occurs at several (a repeated body variable, or two
/// variables the head equated) is `Local(k)`, numbered by first
/// occurrence.
fn body_pattern(args: &[Term], var_map: &HashMap<Var, PatternTerm>) -> Vec<PatternTerm> {
    // Identity of each unconstrained position: a `Local` of the parent
    // pattern, or a body variable the head does not bind.
    #[derive(Clone, Copy, PartialEq)]
    enum Unbound {
        Parent(u32),
        Body(Var),
    }
    let slots: Vec<Result<PatternTerm, Unbound>> = args
        .iter()
        .map(|t| match *t {
            Term::Const(c) => Ok(PatternTerm::Const(c)),
            Term::Var(v) => match var_map.get(&v) {
                Some(&PatternTerm::Local(k)) => Err(Unbound::Parent(k)),
                Some(&bound) => Ok(bound),
                None => Err(Unbound::Body(v)),
            },
        })
        .collect();
    let mut shared: Vec<Unbound> = Vec::new();
    slots
        .iter()
        .map(|slot| match *slot {
            Ok(term) => term,
            Err(u) if slots.iter().filter(|s| **s == Err(u)).count() == 1 => PatternTerm::Free,
            Err(u) => {
                let k = shared.iter().position(|&s| s == u).unwrap_or_else(|| {
                    shared.push(u);
                    shared.len() - 1
                });
                PatternTerm::Local(k as u32)
            }
        })
        .collect()
}

/// Renders `pred(κ0, fred, _)`-style labels.
pub(crate) fn pattern_label(
    predicate: Symbol,
    pattern: &[PatternTerm],
    table: &SymbolTable,
) -> String {
    let mut s = table.name(predicate).to_string();
    s.push('(');
    for (i, p) in pattern.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match p {
            PatternTerm::QueryArg(k) => s.push_str(&format!("κ{k}")),
            PatternTerm::Const(c) => s.push_str(table.name(*c)),
            PatternTerm::Free => s.push('_'),
            PatternTerm::Local(k) => s.push_str(&format!("_{k}")),
        }
    }
    s.push(')');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpl_datalog::parser::{parse_program, parse_query_form};

    fn compile_src(kb: &str, form: &str) -> (SymbolTable, CompiledGraph) {
        let mut t = SymbolTable::new();
        let p = parse_program(kb, &mut t).unwrap();
        let qf = parse_query_form(form, &mut t).unwrap();
        let cg = compile(&p.rules, &qf, &t, &CompileOptions::default()).unwrap();
        (t, cg)
    }

    #[test]
    fn figure1_kb_compiles_to_g_a_shape() {
        let (_, cg) = compile_src(
            "instructor(X) :- prof(X). instructor(X) :- grad(X).\n\
             prof(russ). grad(manolis).",
            "instructor(b)",
        );
        let g = &cg.graph;
        assert!(g.is_tree());
        assert_eq!(g.arc_count(), 4);
        assert_eq!(g.retrievals().count(), 2);
        // Two reductions out of the root, each followed by one retrieval.
        assert_eq!(g.children(g.root()).len(), 2);
    }

    #[test]
    fn guarded_rule_produces_guard() {
        // grad(fred) :- admitted(fred, X): the reduction is guarded on
        // query-arg 0 = fred.
        let (t, cg) = compile_src(
            "instructor(X) :- grad(X).\n\
             grad(X) :- enrolled(X).\n\
             grad(fred) :- admitted(fred, Y).\n\
             enrolled(manolis). admitted(fred, toronto).",
            "instructor(b)",
        );
        let fred = t.lookup("fred").unwrap();
        let guarded: Vec<&ArcBinding> = cg
            .bindings
            .iter()
            .filter(|b| matches!(b, ArcBinding::Reduction { guards, .. } if !guards.is_empty()))
            .collect();
        assert_eq!(guarded.len(), 1);
        match guarded[0] {
            ArcBinding::Reduction { guards, .. } => {
                assert_eq!(guards.as_slice(), &[Guard::ArgEqConst(0, fred)]);
            }
            _ => unreachable!(),
        }
        // The retrieval below the guarded rule inherits the guard.
        let inherited = cg.bindings.iter().any(|b| {
            matches!(b, ArcBinding::Retrieval { guards, .. }
                     if guards.contains(&Guard::ArgEqConst(0, fred)))
        });
        assert!(inherited, "guards propagate to descendants");
    }

    #[test]
    fn free_positions_in_retrieval_pattern() {
        let (t, cg) = compile_src(
            "instructor(X) :- grad(X).\n\
             grad(fred) :- admitted(fred, Y).\n\
             grad(zoe).\n\
             admitted(fred, toronto).",
            "instructor(b)",
        );
        let admitted = t.lookup("admitted").unwrap();
        let fred = t.lookup("fred").unwrap();
        let pat = cg.bindings.iter().find_map(|b| match b {
            ArcBinding::Retrieval { predicate, pattern, .. } if *predicate == admitted => {
                Some(pattern.clone())
            }
            _ => None,
        });
        assert_eq!(pat.unwrap(), vec![PatternTerm::Const(fred), PatternTerm::Free]);
    }

    #[test]
    fn static_clash_prunes_rule() {
        // Rule heads p(a) and p(b) under a goal already fixed to p(a):
        // reached via r(X) :- p-with-const chain.
        let (_, cg) = compile_src(
            "q(X) :- p(X).\n\
             p(a) :- s(a).\n\
             p(b) :- u(b).\n\
             s(a). u(b).",
            "q(b)",
        );
        // Both rules survive under pattern p(κ0) (guards, not clashes).
        let reductions =
            cg.bindings.iter().filter(|b| matches!(b, ArcBinding::Reduction { .. })).count();
        assert_eq!(reductions, 3, "q→p plus two guarded p rules");
    }

    #[test]
    fn recursive_rule_base_rejected() {
        let mut t = SymbolTable::new();
        let p = parse_program("p(X) :- q(X). q(X) :- p(X). base(a).", &mut t).unwrap();
        let qf = parse_query_form("p(b)", &mut t).unwrap();
        let err = compile(&p.rules, &qf, &t, &CompileOptions::default());
        assert!(matches!(err, Err(GraphError::Compile(_))));
    }

    #[test]
    fn conjunctive_body_rejected_with_pointer_to_hypergraph() {
        let mut t = SymbolTable::new();
        let p =
            parse_program("gp(X, Z) :- parent(X, Y), parent(Y, Z). parent(a, b).", &mut t).unwrap();
        let qf = parse_query_form("gp(b,b)", &mut t).unwrap();
        match compile(&p.rules, &qf, &t, &CompileOptions::default()) {
            Err(GraphError::Compile(m)) => assert!(m.contains("hypergraph")),
            other => panic!("expected compile error, got {other:?}"),
        }
    }

    #[test]
    fn custom_costs_applied() {
        let mut t = SymbolTable::new();
        let p = parse_program("instructor(X) :- prof(X). prof(russ).", &mut t).unwrap();
        let qf = parse_query_form("instructor(b)", &mut t).unwrap();
        let opts = CompileOptions {
            cost: Box::new(|is_retrieval, _| if is_retrieval { 5.0 } else { 2.0 }),
            ..Default::default()
        };
        let cg = compile(&p.rules, &qf, &t, &opts).unwrap();
        let total = cg.graph.total_cost();
        assert_eq!(total, 7.0);
    }

    #[test]
    fn also_retrieve_adds_arc_for_derived_predicate() {
        let mut t = SymbolTable::new();
        let p = parse_program("instructor(X) :- prof(X). prof(russ). instructor(dean).", &mut t)
            .unwrap();
        let qf = parse_query_form("instructor(b)", &mut t).unwrap();
        let instr = t.lookup("instructor").unwrap();
        let opts = CompileOptions { also_retrieve: vec![instr], ..Default::default() };
        let cg = compile(&p.rules, &qf, &t, &opts).unwrap();
        // Root now has a direct retrieval plus the reduction.
        assert_eq!(cg.graph.children(cg.graph.root()).len(), 2);
        assert_eq!(cg.graph.retrievals().count(), 2);
    }

    #[test]
    fn free_query_form_positions() {
        let (_, cg) = compile_src("knows(X, Y) :- friend(X, Y). friend(ann, bob).", "knows(b,f)");
        let g = &cg.graph;
        assert_eq!(g.arc_count(), 2);
        let retrieval = g.retrievals().next().unwrap();
        match cg.binding(retrieval) {
            ArcBinding::Retrieval { pattern, .. } => {
                assert_eq!(pattern.as_slice(), &[PatternTerm::QueryArg(0), PatternTerm::Free]);
            }
            _ => panic!("expected retrieval"),
        }
    }

    #[test]
    fn dead_subtree_reported() {
        // r has a rule to s, but s has neither rules nor facts mentioned:
        // s is extensional-by-default, so it gets a retrieval arc; to make
        // a dead subtree we need an intensional predicate with no rule
        // match — impossible by construction — so instead check depth cap.
        let mut t = SymbolTable::new();
        let mut src = String::new();
        for i in 0..70 {
            src.push_str(&format!("p{}(X) :- p{}(X).\n", i, i + 1));
        }
        src.push_str("p70(a).\n");
        let p = parse_program(&src, &mut t).unwrap();
        let qf = parse_query_form("p0(b)", &mut t).unwrap();
        let err = compile(&p.rules, &qf, &t, &CompileOptions::default());
        assert!(matches!(err, Err(GraphError::Compile(_))));
    }

    #[test]
    fn repeated_head_var_free_then_bound_resolves_to_bound() {
        // Regression: with form p(f,b), the head p(X, X) matches X first
        // against the Free position, then against QueryArg(0). The body
        // subgoal must probe with the *bound* argument, not a free one —
        // otherwise q(anything) would satisfy p(Y, c) even when q(c)
        // does not hold.
        let (t, cg) = compile_src("p(X, X) :- q(X). q(a).", "p(f,b)");
        let q_pred = t.lookup("q").unwrap();
        let pat = cg
            .bindings
            .iter()
            .find_map(|b| match b {
                ArcBinding::Retrieval { predicate, pattern, .. } if *predicate == q_pred => {
                    Some(pattern.clone())
                }
                _ => None,
            })
            .expect("q retrieval compiled");
        assert_eq!(pat, vec![PatternTerm::QueryArg(0)], "subgoal bound to the query constant");
    }

    #[test]
    fn labels_are_informative() {
        let (_, cg) = compile_src("instructor(X) :- prof(X). prof(russ).", "instructor(b)");
        let g = &cg.graph;
        let labels: Vec<&str> = g.arc_ids().map(|a| g.arc(a).label.as_str()).collect();
        assert!(labels.iter().any(|l| l.contains("instructor(κ0)")), "{labels:?}");
        assert!(labels.iter().any(|l| l.contains("prof(κ0)")), "{labels:?}");
    }
}
