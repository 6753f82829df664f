//! Differential property tests for the SAT core (`sdnshield_core::sat`):
//!
//! 1. Every SAT verdict — `satisfiable`, `implies`, `equivalent` — must
//!    agree with brute-force truth-table enumeration over the query's atom
//!    universe, where the oracle skips theory-inconsistent assignments
//!    (those violating an implication, disjointness, priority-exhaustion,
//!    or prefix-sibling-cover axiom). This proves the DPLL solver and the
//!    Tseitin encoding correct on small universes, and proves the theory
//!    clauses are exactly the ones `model_consistent` checks.
//!
//! 2. Models returned by `witness`/`counterexample` must actually satisfy
//!    their query and be theory-consistent — the solver cannot fabricate
//!    evidence.
//!
//! 3. The SAT verdict must be sound for enforcement on point calls: a
//!    filter the solver proves unsatisfiable must deny every exact-match
//!    insert through both the compiled check plan and the AST interpreter.
//!    (A point call induces a truth assignment over comparison atoms —
//!    membership of one address, one priority — and that assignment is
//!    theory-consistent, so unsat means no such call can pass. The reverse
//!    is deliberately not claimed: runtime evaluation is more liberal on
//!    set-granular and vacuous cases, see DESIGN.md §14.)

use proptest::prelude::*;

use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::engine::{Decision, PermissionEngine};
use sdnshield_core::eval::{eval, NullContext};
use sdnshield_core::filter::{FilterExpr, SingletonFilter};
use sdnshield_core::perm::{Permission, PermissionSet};
use sdnshield_core::sat;
use sdnshield_core::token::PermissionToken;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::{FlowMatch, MaskedIpv4};
use sdnshield_openflow::messages::FlowMod;
use sdnshield_openflow::types::{DatapathId, Ipv4, Priority};

/// A small atom pool chosen to exercise every theory axiom: nested and
/// disjoint prefixes (implication + disjointness), exact sibling halves
/// (the prefix-cover axiom), overlapping priority windows (implication,
/// disjointness, and exhaustion), and free stub variables.
fn pool() -> Vec<SingletonFilter> {
    let pred = |net: u32, len: u8| {
        SingletonFilter::Pred(FlowMatch {
            ip_dst: Some(MaskedIpv4::prefix(Ipv4(net), len)),
            ..FlowMatch::default()
        })
    };
    vec![
        pred(0x0a00_0000, 16), // 10.0.0.0/16
        pred(0x0a00_0000, 24), // 10.0.0.0/24  = union of the two /25s
        pred(0x0a00_0000, 25), // 10.0.0.0/25
        pred(0x0a00_0080, 25), // 10.0.0.128/25
        pred(0x0a01_0000, 24), // 10.1.0.0/24  (disjoint from all above)
        SingletonFilter::MaxPriority(5),
        SingletonFilter::MaxPriority(100),
        SingletonFilter::MinPriority(6),
        SingletonFilter::MinPriority(100),
        SingletonFilter::Stub("AdminRange".into()),
        SingletonFilter::Stub("SiteLocal".into()),
    ]
}

fn arb_filter() -> impl Strategy<Value = FilterExpr> {
    let atoms = pool();
    let n = atoms.len();
    let leaf = prop_oneof![
        Just(FilterExpr::True),
        (0..n).prop_map({
            let atoms = atoms.clone();
            move |i| FilterExpr::Atom(atoms[i].clone())
        }),
        (0..n).prop_map(move |i| FilterExpr::Atom(atoms[i].clone())),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(FilterExpr::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(FilterExpr::Or),
            inner.prop_map(|x| FilterExpr::Not(Box::new(x))),
        ]
    })
}

/// Enumerates every theory-consistent assignment over `atoms`, returning
/// whether any satisfies `pred`.
fn any_consistent(atoms: &[SingletonFilter], pred: impl Fn(&[bool]) -> bool) -> bool {
    let n = atoms.len();
    assert!(n <= 16, "universe too large to enumerate: {n}");
    (0u32..1 << n).any(|bits| {
        let assign: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        sat::model_consistent(atoms, &assign) && pred(&assign)
    })
}

/// Brute-force satisfiability oracle.
fn enum_sat(e: &FilterExpr) -> bool {
    let atoms = sat::atoms_of(&[e]);
    any_consistent(&atoms, |assign| sat::eval_under(e, &atoms, assign))
}

/// Brute-force implication oracle over the shared universe.
fn enum_implies(a: &FilterExpr, b: &FilterExpr) -> bool {
    let atoms = sat::atoms_of(&[a, b]);
    !any_consistent(&atoms, |assign| {
        sat::eval_under(a, &atoms, assign) && !sat::eval_under(b, &atoms, assign)
    })
}

/// Converts a solver model into an assignment over the given universe.
fn assignment_of(model: &sat::Model, atoms: &[SingletonFilter]) -> Vec<bool> {
    atoms
        .iter()
        .map(|a| {
            model
                .iter()
                .find(|(m, _)| m == a)
                .map(|(_, v)| *v)
                .expect("model must assign every universe atom")
        })
        .collect()
}

/// An exact-match insert: one address, one priority. The finest-grained
/// call the comparison atoms can observe.
fn point_insert(addr: u32, prio: u16) -> ApiCall {
    ApiCall::new(
        AppId(1),
        ApiCallKind::InsertFlow {
            dpid: DatapathId(1),
            flow_mod: FlowMod::add(
                FlowMatch {
                    ip_dst: Some(MaskedIpv4::prefix(Ipv4(addr), 32)),
                    ..FlowMatch::default()
                },
                Priority(prio),
                ActionList::drop(),
            ),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `satisfiable` ≡ truth-table enumeration.
    #[test]
    fn satisfiable_equals_enumeration(f in arb_filter()) {
        prop_assert_eq!(sat::satisfiable(&f), enum_sat(&f), "filter: {:?}", f);
    }

    /// `implies` ≡ enumeration over the shared universe.
    #[test]
    fn implies_equals_enumeration(a in arb_filter(), b in arb_filter()) {
        prop_assert_eq!(
            sat::implies(&a, &b),
            enum_implies(&a, &b),
            "a: {:?}\nb: {:?}", a, b
        );
    }

    /// `equivalent` ≡ bidirectional enumeration.
    #[test]
    fn equivalent_equals_enumeration(a in arb_filter(), b in arb_filter()) {
        prop_assert_eq!(
            sat::equivalent(&a, &b),
            enum_implies(&a, &b) && enum_implies(&b, &a),
            "a: {:?}\nb: {:?}", a, b
        );
    }

    /// A witness model satisfies its query and every theory axiom.
    #[test]
    fn witness_models_are_genuine(f in arb_filter()) {
        if let Some(model) = sat::witness(&f) {
            let atoms = sat::atoms_of(&[&f]);
            let assign = assignment_of(&model, &atoms);
            prop_assert!(sat::model_consistent(&atoms, &assign), "filter: {:?}", f);
            prop_assert!(sat::eval_under(&f, &atoms, &assign), "filter: {:?}", f);
        }
    }

    /// A counterexample to `a ⇒ b` satisfies `a`, falsifies `b`, and is
    /// theory-consistent.
    #[test]
    fn counterexamples_are_genuine(a in arb_filter(), b in arb_filter()) {
        if let Some(model) = sat::counterexample(&a, &b) {
            let atoms = sat::atoms_of(&[&a, &b]);
            let assign = assignment_of(&model, &atoms);
            prop_assert!(sat::model_consistent(&atoms, &assign));
            prop_assert!(sat::eval_under(&a, &atoms, &assign), "a: {:?}", a);
            prop_assert!(!sat::eval_under(&b, &atoms, &assign), "b: {:?}", b);
        }
    }

    /// Unsat is sound for enforcement: a provably unsatisfiable filter
    /// denies every point insert, on both the compiled check plan and the
    /// AST interpreter — and the two runtime paths agree regardless.
    #[test]
    fn unsat_filters_deny_point_calls(
        f in arb_filter(),
        addr in prop_oneof![
            (0u32..512).prop_map(|lo| 0x0a00_0000 | lo), // inside 10.0.0.0/23
            Just(0x0a01_0005u32),                        // inside 10.1.0.0/24
            Just(0xc0a8_0001u32),                        // far outside
        ],
        prio in 0u16..200,
    ) {
        let call = point_insert(addr, prio);
        let engine = PermissionEngine::compile(&PermissionSet::from_permissions([
            Permission::limited(PermissionToken::InsertFlow, f.clone()),
        ]));
        let plan_allows = matches!(engine.check(&call, &NullContext), Decision::Allowed);
        let interp_allows = matches!(engine.check_interpreted(&call, &NullContext), Decision::Allowed);
        prop_assert_eq!(plan_allows, interp_allows, "engine paths disagree on {:?}", f);
        if !sat::satisfiable(&f) {
            // The raw interpreter evaluates stubs to false — exactly one of
            // the assignments the solver quantified over — so unsat means
            // deny on every path, gated or not.
            prop_assert!(!plan_allows, "unsat filter allowed a call: {:?}", f);
            prop_assert!(!eval(&f, &call, &NullContext), "unsat filter evaluated true: {:?}", f);
        }
    }
}
