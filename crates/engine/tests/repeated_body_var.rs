//! A variable the query does not bind, repeated inside one body literal,
//! must constrain the probe: `p(c2) :- e(X, X).` holds only if some
//! `e(x, x)` fact exists, not whenever any `e` fact does. Every engine
//! entry point — eager, lazy and the served plane path — must agree with
//! bottom-up evaluation.

use qpl_datalog::eval;
use qpl_datalog::parser::{parse_program, parse_query, parse_query_form};
use qpl_datalog::SymbolTable;
use qpl_engine::qp::{classify_context_into, BatchScratch, QueryProcessor};
use qpl_graph::compile::{compile, CompileOptions};

/// Answers each ground query through `run`, `run_lazy` and the served
/// path (per-lane classification, then one plane), and checks each
/// against bottom-up evaluation. Returns the bottom-up truth values.
fn engine_agrees_with_bottom_up(kb: &str, form: &str, queries: &[&str]) -> Vec<bool> {
    let mut t = SymbolTable::new();
    let p = parse_program(kb, &mut t).unwrap();
    let qf = parse_query_form(form, &mut t).unwrap();
    let cg = compile(&p.rules, &qf, &t, &CompileOptions::default()).unwrap();
    let qp = QueryProcessor::left_to_right(&cg);
    let atoms: Vec<_> = queries.iter().map(|q| parse_query(q, &mut t).unwrap()).collect();

    let mut s = BatchScratch::new(&cg.graph);
    for (lane, atom) in atoms.iter().enumerate() {
        classify_context_into(&cg, atom, &p.facts, s.pool_context(&cg.graph, lane)).unwrap();
    }
    s.assemble_pool_plane(cg.graph.arc_count(), atoms.len());
    let mut served = Vec::new();
    let (batch, run, scratch) = s.plane_parts_mut();
    qp.run_classified_batch(&atoms, &p.facts, batch, run, scratch, &mut served).unwrap();

    let mut truth = Vec::new();
    for (atom, (served_answer, _)) in atoms.iter().zip(&served) {
        let q = atom.display(&t).to_string();
        let expected = eval::holds(&p.rules, &p.facts, atom);
        assert_eq!(qp.run(atom, &p.facts).unwrap().answer.is_yes(), expected, "run {q}");
        assert_eq!(qp.run_lazy(atom, &p.facts).unwrap().answer.is_yes(), expected, "lazy {q}");
        assert_eq!(served_answer.is_yes(), expected, "served {q}");
        truth.push(expected);
    }
    truth
}

#[test]
fn repeated_unbound_body_variable_is_one_variable() {
    // The smallest case: the only `e` fact has distinct arguments.
    let truth = engine_agrees_with_bottom_up("p(c2) :- e(X, X).\ne(c2, c0).", "p(b)", &["p(c2)"]);
    assert_eq!(truth, [false]);
    // With a reflexive fact the same rule holds.
    let truth = engine_agrees_with_bottom_up(
        "p(c2) :- e(X, X).\ne(c2, c0). e(c1, c1).",
        "p(b)",
        &["p(c2)"],
    );
    assert_eq!(truth, [true]);
}

#[test]
fn shared_free_positions_survive_a_reduction() {
    // q's pattern is q(κ0, X, X); the rule passes both free positions
    // on to one `e` literal, which must still see them as one variable.
    let kb = "p(Y) :- q(Y, X, X).\nq(A, B, C) :- e(A, B, C).\ne(c0, c1, c2). e(c1, c2, c2).";
    let truth = engine_agrees_with_bottom_up(kb, "p(b)", &["p(c0)", "p(c1)"]);
    assert_eq!(truth, [false, true]);
}

#[test]
fn a_rule_constant_binds_every_occurrence_of_a_shared_free_position() {
    // q(Y, X, X) meets the head q(A, c1, C): X is c1, so C is c1 too.
    let kb = "p(Y) :- q(Y, X, X).\nq(A, c1, C) :- e(A, C).\ne(c0, c0). e(c2, c1).";
    let truth = engine_agrees_with_bottom_up(kb, "p(b)", &["p(c0)", "p(c2)"]);
    assert_eq!(truth, [false, true]);
}

#[test]
fn a_repeated_head_variable_joins_two_free_positions() {
    // q(Y, X, Z, X, Z) meets the head q(A, B, B, D, E): B joins X and Z,
    // so B, D and E name one value and the probe is e(κ0, V, V, V).
    let kb = "p(Y) :- q(Y, X, Z, X, Z).\nq(A, B, B, D, E) :- e(A, B, D, E).\n\
              e(c0, c1, c1, c2). e(c3, c1, c1, c1).";
    let truth = engine_agrees_with_bottom_up(kb, "p(b)", &["p(c0)", "p(c3)"]);
    assert_eq!(truth, [false, true]);
}
