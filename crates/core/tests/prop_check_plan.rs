//! Differential property test of the permission-check path: for arbitrary
//! manifests (including stateful atoms and stubs), arbitrary calls, and an
//! evolving stateful context, the compiled plan must agree with AST
//! interpretation (the semantic oracle) on every decision —
//!
//! * `check` — the compiled plan, against the tracker,
//! * `check_call_only` — whenever it answers `Some` (call-only plans),
//! * `check_with` — the two-phase entry the kernel's deputies use,
//!
//! all equal `check_interpreted`. The context mutates between checks
//! (flow-mods, expiries, packet-ins), so stateful literals are exercised
//! against changing ownership, quotas and packet-in provenance.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use bytes::Bytes;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::engine::{OwnershipTracker, PermissionEngine};
use sdnshield_core::filter::{
    ActionConstraint, FilterExpr, Ownership, PktOutSource, SingletonFilter, StatsLevel,
};
use sdnshield_core::perm::{Permission, PermissionSet};
use sdnshield_core::token::PermissionToken;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::{FlowMatch, MaskedIpv4};
use sdnshield_openflow::messages::{FlowMod, PacketOut, StatsRequest};
use sdnshield_openflow::types::{BufferId, DatapathId, Ipv4, PortNo, Priority};

/// Singleton filters over a small attribute space, deliberately including
/// every literal class: static (ALL_FLOWS, ARBITRARY), call-only (Pred,
/// priorities, actions, stats), and stateful (OWN_FLOWS, MAX_RULE_COUNT,
/// FROM_PKT_IN), plus stubs (which deny-fast through the gate).
fn arb_singleton() -> impl Strategy<Value = SingletonFilter> {
    prop_oneof![
        (0u32..4, 8u8..=24).prop_map(|(net, len)| {
            SingletonFilter::Pred(FlowMatch {
                ip_dst: Some(MaskedIpv4::prefix(Ipv4(net << 24), len)),
                ..FlowMatch::default()
            })
        }),
        (0u16..200).prop_map(SingletonFilter::MaxPriority),
        (0u16..200).prop_map(SingletonFilter::MinPriority),
        prop_oneof![
            Just(SingletonFilter::Action(ActionConstraint::Forward)),
            Just(SingletonFilter::Action(ActionConstraint::Drop)),
        ],
        prop_oneof![
            Just(SingletonFilter::Ownership(Ownership::OwnFlows)),
            Just(SingletonFilter::Ownership(Ownership::AllFlows)),
        ],
        (0u32..4).prop_map(SingletonFilter::MaxRuleCount),
        prop_oneof![
            Just(SingletonFilter::PktOut(PktOutSource::FromPktIn)),
            Just(SingletonFilter::PktOut(PktOutSource::Arbitrary)),
        ],
        prop_oneof![
            Just(SingletonFilter::Stats(StatsLevel::FlowLevel)),
            Just(SingletonFilter::Stats(StatsLevel::PortLevel)),
            Just(SingletonFilter::Stats(StatsLevel::SwitchLevel)),
        ],
        Just(SingletonFilter::Stub("AdminRange".into())),
    ]
}

fn arb_filter() -> impl Strategy<Value = FilterExpr> {
    let leaf = prop_oneof![
        Just(FilterExpr::True),
        arb_singleton().prop_map(FilterExpr::Atom),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(FilterExpr::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(FilterExpr::Or),
            inner.prop_map(|x| FilterExpr::Not(Box::new(x))),
        ]
    })
}

fn flow_mod(net: u32, len: u8, prio: u16, drop: bool) -> FlowMod {
    let actions = if drop {
        ActionList::drop()
    } else {
        ActionList::output(PortNo(1))
    };
    FlowMod::add(
        FlowMatch {
            ip_dst: Some(MaskedIpv4::prefix(Ipv4(net << 24), len)),
            ..FlowMatch::default()
        },
        Priority(prio),
        actions,
    )
}

/// Random API calls covering every attribute the filters above inspect,
/// including packet-outs (provenance) and deletes (ownership).
fn arb_call() -> impl Strategy<Value = ApiCall> {
    prop_oneof![
        (0u32..4, 8u8..=32, 0u16..200, any::<bool>()).prop_map(|(net, len, prio, drop)| {
            ApiCall::new(
                AppId(1),
                ApiCallKind::InsertFlow {
                    dpid: DatapathId(1),
                    flow_mod: flow_mod(net, len, prio, drop),
                },
            )
        }),
        (0u32..4, 8u8..=32, 0u16..200, any::<bool>()).prop_map(|(net, len, prio, drop)| {
            ApiCall::new(
                AppId(1),
                ApiCallKind::DeleteFlow {
                    dpid: DatapathId(1),
                    flow_mod: flow_mod(net, len, prio, drop),
                },
            )
        }),
        (0u8..4).prop_map(|which| {
            ApiCall::new(
                AppId(1),
                ApiCallKind::SendPacketOut {
                    dpid: DatapathId(1),
                    packet_out: PacketOut {
                        buffer_id: BufferId::NO_BUFFER,
                        in_port: PortNo(1),
                        actions: ActionList::output(PortNo(2)),
                        payload: Bytes::from(vec![which]),
                    },
                },
            )
        }),
        (0u8..3).prop_map(|lvl| {
            let request = match lvl {
                0 => StatsRequest::Flow(FlowMatch::any()),
                1 => StatsRequest::Port(PortNo::NONE),
                _ => StatsRequest::Table,
            };
            ApiCall::new(
                AppId(1),
                ApiCallKind::ReadStatistics {
                    dpid: DatapathId(1),
                    request,
                },
            )
        }),
        Just(ApiCall::new(AppId(1), ApiCallKind::ReadTopology)),
    ]
}

/// A context mutation, applied to the tracker between checks through its
/// `record_*` methods.
#[derive(Debug, Clone)]
enum Mutation {
    FlowMod { app: u16, net: u32, prio: u16 },
    Expiry { net: u32, prio: u16 },
    PktIn { app: u16, payload: u8 },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (1u16..3, 0u32..4, 0u16..200).prop_map(|(app, net, prio)| Mutation::FlowMod {
            app,
            net,
            prio
        }),
        (0u32..4, 0u16..200).prop_map(|(net, prio)| Mutation::Expiry { net, prio }),
        (1u16..3, 0u8..4).prop_map(|(app, payload)| Mutation::PktIn { app, payload }),
    ]
}

fn apply(tracker: &mut OwnershipTracker, m: &Mutation) {
    match m {
        Mutation::FlowMod { app, net, prio } => {
            tracker.record_flow_mod(
                AppId(*app),
                DatapathId(1),
                &flow_mod(*net, 16, *prio, false),
            );
        }
        Mutation::Expiry { net, prio } => {
            let fm = flow_mod(*net, 16, *prio, false);
            tracker.record_expiry(DatapathId(1), &fm.flow_match, fm.priority);
        }
        Mutation::PktIn { app, payload } => {
            tracker.record_pkt_in(AppId(*app), &Bytes::from(vec![*payload]));
        }
    }
}

fn engine_for(filter: FilterExpr) -> PermissionEngine {
    PermissionEngine::compile(&PermissionSet::from_permissions([
        Permission::limited(PermissionToken::InsertFlow, filter.clone()),
        Permission::limited(PermissionToken::DeleteFlow, filter.clone()),
        Permission::limited(PermissionToken::SendPktOut, filter.clone()),
        Permission::limited(PermissionToken::ReadStatistics, filter.clone()),
        Permission::limited(PermissionToken::VisibleTopology, filter),
    ]))
}

/// Every check path's answer for `call`, compared against the oracle.
fn assert_paths_agree(
    engine: &PermissionEngine,
    call: &ApiCall,
    tracker: &OwnershipTracker,
) -> Result<(), TestCaseError> {
    let want = engine.check_interpreted(call, tracker);
    let got = engine.check(call, tracker);
    prop_assert!(got == want, "check: {:?} != {:?} on {}", got, want, call);
    if let Some(got) = engine.check_call_only(call, tracker.epoch()) {
        prop_assert!(
            got == want,
            "check_call_only: {:?} != {:?} on {}",
            got,
            want,
            call
        );
    }
    let got = engine.check_with(call, tracker.epoch(), || tracker);
    prop_assert!(
        got == want,
        "check_with: {:?} != {:?} on {}",
        got,
        want,
        call
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every path agrees with the oracle on every call against a fresh
    /// context.
    #[test]
    fn paths_agree_on_static_context(f in arb_filter(), call in arb_call()) {
        let engine = engine_for(f);
        let tracker = OwnershipTracker::new();
        assert_paths_agree(&engine, &call, &tracker)?;
    }

    /// Every path agrees with the oracle across an evolving context: at
    /// every step, before and after each mutation, on every call.
    #[test]
    fn paths_agree_across_mutations(
        f in arb_filter(),
        calls in proptest::collection::vec(arb_call(), 1..6),
        mutations in proptest::collection::vec(arb_mutation(), 1..8),
    ) {
        let engine = engine_for(f);
        let mut tracker = OwnershipTracker::new();
        for m in &mutations {
            for call in &calls {
                assert_paths_agree(&engine, call, &tracker)?;
            }
            apply(&mut tracker, m);
        }
        for call in &calls {
            assert_paths_agree(&engine, call, &tracker)?;
        }
    }
}
