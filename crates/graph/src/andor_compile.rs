//! Compiling conjunctive rule bases to and-or graphs (Note 4).
//!
//! The simple-graph compiler ([`crate::compile`]) handles disjunctive
//! rules; rules with conjunctive bodies (`A :- B, C.`) compile here,
//! into an [`AndOrGraph`] whose
//! reduction hyper-arcs descend to one child goal per body literal.
//!
//! ## The independence restriction
//!
//! The paper's cost model makes an arc's blocked-status a property of
//! the *context alone* (Note 2). For a conjunctive body this holds only
//! when the body literals do not share existential variables: in
//! `gp(X, Z) :- parent(X, Y), parent(Y, Z)` the binding of `Y` produced
//! by proving the first literal constrains the second, so "the second
//! literal is satisfiable" is not a per-arc property. Such *join* rules
//! are rejected with a clear error — satisficing strategy theory (this
//! paper's and \[GO91\]'s) genuinely does not model them. Bodies whose
//! extra variables appear in a single literal (independent existentials)
//! decompose exactly and compile fine, e.g.
//! `eligible(X) :- enrolled(X, C), paid(X, T).`

use crate::compile::{instantiate_pattern, match_head, pattern_label, Guard, PatternTerm};
use crate::error::GraphError;
use crate::hypergraph::{AndOrBuilder, AndOrContext, AndOrGraph, GoalId, HyperArcId};
use qpl_datalog::{
    Atom, Database, QueryForm, RuleBase, RuleId, Substitution, Symbol, SymbolTable, Term, Var,
};
use std::collections::HashMap;

/// Runtime binding of one hyper-arc.
#[derive(Debug, Clone, PartialEq)]
pub enum HyperBinding {
    /// Conjunctive rule reduction: blocked iff a guard fails.
    Reduction {
        /// The applied rule.
        rule: RuleId,
        /// Conditions on the query's bound constants.
        guards: Vec<Guard>,
    },
    /// Database retrieval with its instantiation pattern.
    Retrieval {
        /// Probed predicate.
        predicate: Symbol,
        /// Argument pattern over the query's bound constants.
        pattern: Vec<PatternTerm>,
        /// Inherited guards.
        guards: Vec<Guard>,
    },
}

/// A compiled and-or graph: structure plus per-hyper-arc bindings.
#[derive(Debug, Clone)]
pub struct CompiledAndOr {
    /// The and-or structure.
    pub graph: AndOrGraph,
    /// Binding per hyper-arc (indexed by [`HyperArcId`]).
    pub bindings: Vec<HyperBinding>,
    /// The compiled query form.
    pub form: QueryForm,
}

impl CompiledAndOr {
    /// The binding of a hyper-arc.
    pub fn binding(&self, a: HyperArcId) -> &HyperBinding {
        &self.bindings[a.0 as usize]
    }

    /// Note-2 classification for and-or graphs: evaluates every
    /// hyper-arc's blocked status for `⟨query, db⟩`.
    ///
    /// # Errors
    /// [`GraphError::InvalidStrategy`] if the query does not match the
    /// form.
    pub fn classify(&self, query: &Atom, db: &Database) -> Result<AndOrContext, GraphError> {
        if !self.form.matches(query) {
            return Err(GraphError::InvalidStrategy("query does not match compiled form".into()));
        }
        let constants = self.form.bound_constants(query);
        let mut ctx = AndOrContext::all_open(&self.graph);
        for a in self.graph.arc_ids() {
            let blocked = match self.binding(a) {
                HyperBinding::Reduction { guards, .. } => !guards_hold(guards, &constants),
                HyperBinding::Retrieval { predicate, pattern, guards } => {
                    if !guards_hold(guards, &constants) {
                        true
                    } else {
                        let atom = instantiate_pattern(*predicate, pattern, &constants);
                        if atom.is_ground() {
                            !db.contains_atom(&atom)
                        } else {
                            db.matches(&atom, &Substitution::new()).is_empty()
                        }
                    }
                }
            };
            ctx.set_blocked(a, blocked);
        }
        Ok(ctx)
    }
}

fn guards_hold(guards: &[Guard], constants: &[Symbol]) -> bool {
    guards.iter().all(|g| match *g {
        Guard::ArgEqConst(i, c) => constants[i] == c,
        Guard::ArgEqArg(i, j) => constants[i] == constants[j],
    })
}

/// Compiles a (possibly conjunctive) rule base for `form` into an
/// and-or graph with runtime bindings.
///
/// # Errors
/// [`GraphError::Compile`] on recursive rule bases, depth overflow, or
/// *join* rules (body literals sharing an existential variable — see the
/// module docs).
pub fn compile_andor(
    rules: &RuleBase,
    form: &QueryForm,
    table: &SymbolTable,
    max_depth: usize,
) -> Result<CompiledAndOr, GraphError> {
    if rules.is_recursive() {
        return Err(GraphError::Compile("rule base is recursive".into()));
    }
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
    let mut builder = AndOrBuilder::new(&pattern_label(form.predicate, &root_pattern, table));
    let root = builder.root();
    let mut bindings = Vec::new();
    expand(
        rules,
        table,
        &mut builder,
        &mut bindings,
        root,
        form.predicate,
        &root_pattern,
        &[],
        0,
        max_depth,
    )?;
    let graph = builder.finish().map_err(|e| match e {
        GraphError::DeadLeaf(m) => GraphError::Compile(format!("dead goal: {m}")),
        other => other,
    })?;
    debug_assert_eq!(bindings.len(), graph.arc_count());
    Ok(CompiledAndOr { graph, bindings, form: form.clone() })
}

#[allow(clippy::too_many_arguments)]
fn expand(
    rules: &RuleBase,
    table: &SymbolTable,
    builder: &mut AndOrBuilder,
    bindings: &mut Vec<HyperBinding>,
    goal: GoalId,
    predicate: Symbol,
    pattern: &[PatternTerm],
    inherited_guards: &[Guard],
    depth: usize,
    max_depth: usize,
) -> Result<(), GraphError> {
    if depth > max_depth {
        return Err(GraphError::Compile(format!("unfolding exceeded depth {max_depth}")));
    }
    let is_intensional = rules.rules_for(predicate).next().is_some();
    if !is_intensional {
        let label = format!("D[{}]", pattern_label(predicate, pattern, table));
        let arc = builder.retrieval(goal, &label, 1.0);
        debug_assert_eq!(arc.0 as usize, bindings.len());
        bindings.push(HyperBinding::Retrieval {
            predicate,
            pattern: pattern.to_vec(),
            guards: inherited_guards.to_vec(),
        });
    }
    for (rule_id, rule) in rules.rules_for(predicate) {
        let Some((var_map, mut guards)) = match_head(&rule.head.args, pattern) else {
            continue; // statically blocked
        };
        // The independence restriction: every variable not bound through
        // the head must occur in exactly one body literal.
        let mut seen_in: HashMap<Var, usize> = HashMap::new();
        for (i, body) in rule.body.iter().enumerate() {
            for v in body.variables() {
                if var_map.contains_key(&v) {
                    continue; // head-bound: resolves to a pattern term
                }
                if let Some(&j) = seen_in.get(&v) {
                    if j != i {
                        return Err(GraphError::Compile(format!(
                            "rule {} joins body literals through variable V{} — \
                             blocked-status is not a per-arc property for joins; \
                             the satisficing framework does not model them",
                            rule.display(table),
                            v.0
                        )));
                    }
                } else {
                    seen_in.insert(v, i);
                }
            }
        }
        let mut all_guards = inherited_guards.to_vec();
        all_guards.append(&mut guards);
        all_guards.dedup();

        // One child goal per body literal.
        let mut children = Vec::with_capacity(rule.body.len());
        let mut child_specs = Vec::with_capacity(rule.body.len());
        for body in &rule.body {
            let child_pattern: Vec<PatternTerm> = body
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => PatternTerm::Const(*c),
                    // Every unconstrained position stays independent here:
                    // unlike `compile`, this compiler does not share a free
                    // variable between positions of one literal.
                    Term::Var(v) => match var_map.get(v) {
                        Some(&PatternTerm::Local(_)) | None => PatternTerm::Free,
                        Some(&bound) => bound,
                    },
                })
                .collect();
            let child = builder.goal(&pattern_label(body.predicate, &child_pattern, table));
            children.push(child);
            child_specs.push((child, body.predicate, child_pattern));
        }
        let label = format!("R{}[{}]", rule_id.0, pattern_label(predicate, pattern, table));
        let arc = builder.reduction(goal, children, &label, 1.0);
        debug_assert_eq!(arc.0 as usize, bindings.len());
        bindings.push(HyperBinding::Reduction { rule: rule_id, guards: all_guards.clone() });
        for (child, pred, child_pattern) in child_specs {
            expand(
                rules,
                table,
                builder,
                bindings,
                child,
                pred,
                &child_pattern,
                &all_guards,
                depth + 1,
                max_depth,
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::{execute, AndOrStrategy};
    use qpl_datalog::parser::{parse_program, parse_query, parse_query_form};

    fn setup(kb: &str, form: &str) -> (SymbolTable, CompiledAndOr, Database) {
        let mut t = SymbolTable::new();
        let p = parse_program(kb, &mut t).unwrap();
        let qf = parse_query_form(form, &mut t).unwrap();
        let c = compile_andor(&p.rules, &qf, &t, 32).unwrap();
        (t, c, p.facts)
    }

    /// eligible(X) :- enrolled(X, C), paid(X, T): independent
    /// existentials C and T — compiles and agrees with the oracle.
    const ELIGIBLE_KB: &str = "eligible(X) :- enrolled(X, C), paid(X, T).\n\
                               eligible(X) :- scholarship(X).\n\
                               enrolled(ann, cs). paid(ann, fall).\n\
                               enrolled(bob, math).\n\
                               scholarship(carol).";

    #[test]
    fn independent_conjunction_compiles() {
        let (_, c, _) = setup(ELIGIBLE_KB, "eligible(b)");
        // Root has two reductions; the first has two children.
        assert_eq!(c.graph.outgoing(c.graph.root()).len(), 2);
        let conj = c.graph.outgoing(c.graph.root())[0];
        assert_eq!(c.graph.arc(conj).children.len(), 2);
    }

    #[test]
    fn answers_match_bottom_up_oracle() {
        let (mut t, c, db) = setup(ELIGIBLE_KB, "eligible(b)");
        let mut t2 = SymbolTable::new();
        let p = parse_program(ELIGIBLE_KB, &mut t2).unwrap();
        let s = AndOrStrategy::left_to_right(&c.graph);
        for name in ["ann", "bob", "carol", "dave"] {
            let q = parse_query(&format!("eligible({name})"), &mut t).unwrap();
            let ctx = c.classify(&q, &db).unwrap();
            let got = execute(&c.graph, &s, &ctx).proved;
            let q2 = parse_query(&format!("eligible({name})"), &mut t2).unwrap();
            let want = qpl_datalog::eval::holds(&p.rules, &p.facts, &q2);
            assert_eq!(got, want, "disagreement on {name}");
        }
    }

    #[test]
    fn conjunction_cost_reflects_partial_failure() {
        // bob is enrolled but hasn't paid: the conjunction pays for both
        // probes before failing, then tries the scholarship rule.
        let (mut t, c, db) = setup(ELIGIBLE_KB, "eligible(b)");
        let s = AndOrStrategy::left_to_right(&c.graph);
        let q = parse_query("eligible(bob)", &mut t).unwrap();
        let ctx = c.classify(&q, &db).unwrap();
        let run = execute(&c.graph, &s, &ctx);
        assert!(!run.proved);
        // r1 (1) + enrolled probe (1) + paid probe (1) + r2 (1) +
        // scholarship probe (1) = 5.
        assert_eq!(run.cost, 5.0);
    }

    #[test]
    fn join_rule_rejected_with_explanation() {
        let mut t = SymbolTable::new();
        let p = parse_program(
            "gp(X, Z) :- parent(X, Y), parent(Y, Z). parent(a, b). parent(b, c).",
            &mut t,
        )
        .unwrap();
        let qf = parse_query_form("gp(b,b)", &mut t).unwrap();
        match compile_andor(&p.rules, &qf, &t, 32) {
            Err(GraphError::Compile(m)) => {
                assert!(m.contains("joins body literals"), "{m}");
            }
            other => panic!("expected join rejection, got {other:?}"),
        }
    }

    #[test]
    fn head_bound_shared_variables_are_fine() {
        // X occurs in both literals but is head-bound (comes from the
        // query): no join, both literals independently checkable.
        let kb = "ok(X) :- lo(X), hi(X). lo(a). hi(a). lo(b).";
        let (mut t, c, db) = setup(kb, "ok(b)");
        let s = AndOrStrategy::left_to_right(&c.graph);
        for (name, want) in [("a", true), ("b", false), ("z", false)] {
            let q = parse_query(&format!("ok({name})"), &mut t).unwrap();
            let ctx = c.classify(&q, &db).unwrap();
            assert_eq!(execute(&c.graph, &s, &ctx).proved, want, "{name}");
        }
    }

    #[test]
    fn guarded_conjunctive_rule() {
        // Constant in the head guards the whole conjunction.
        let kb = "vip(gold) :- member(gold, L), sponsor(gold, S).\n\
                  vip(X) :- founder(X).\n\
                  member(gold, lounge). sponsor(gold, acme). founder(eve).";
        let (mut t, c, db) = setup(kb, "vip(b)");
        let s = AndOrStrategy::left_to_right(&c.graph);
        for (name, want) in [("gold", true), ("eve", true), ("bob", false)] {
            let q = parse_query(&format!("vip({name})"), &mut t).unwrap();
            let ctx = c.classify(&q, &db).unwrap();
            assert_eq!(execute(&c.graph, &s, &ctx).proved, want, "{name}");
        }
        // For non-gold queries the guarded reduction is blocked.
        let q = parse_query("vip(eve)", &mut t).unwrap();
        let ctx = c.classify(&q, &db).unwrap();
        let guarded = c
            .graph
            .arc_ids()
            .find(|&a| matches!(c.binding(a), HyperBinding::Reduction { guards, .. } if !guards.is_empty()))
            .unwrap();
        assert!(ctx.is_blocked(guarded));
    }

    #[test]
    fn nested_conjunctions() {
        let kb = "top(X) :- mid(X), extra(X).\n\
                  mid(X) :- base1(X), base2(X).\n\
                  base1(k). base2(k). extra(k). base1(j). extra(j).";
        let (mut t, c, db) = setup(kb, "top(b)");
        let s = AndOrStrategy::left_to_right(&c.graph);
        for (name, want) in [("k", true), ("j", false)] {
            let q = parse_query(&format!("top({name})"), &mut t).unwrap();
            let ctx = c.classify(&q, &db).unwrap();
            assert_eq!(execute(&c.graph, &s, &ctx).proved, want, "{name}");
        }
    }
}
