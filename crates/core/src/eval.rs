//! Runtime evaluation of filter expressions against API calls.
//!
//! Evaluation follows the paper's semantics: a singleton filter inspects one
//! attribute of the call; a filter that inspects an attribute the call does
//! not have is vacuously satisfied ("an individual singleton filter is only
//! effective to modify a subset of permissions that contain the specific
//! attributes it inspects", §IV-B).
//!
//! Some filters are *stateful* — ownership, rule-count quotas, and packet-out
//! provenance depend on book-keeping the permission engine maintains. That
//! state is abstracted behind [`CheckContext`] so the hot evaluation path
//! stays stateless and parallelizable (paper §IX-B2).

use bytes::Bytes;

use crate::api::{ApiCall, ApiCallKind, AppId};
use crate::filter::{
    ActionConstraint, FilterExpr, Ownership, PktOutSource, SingletonFilter, StatsLevel,
};
use sdnshield_openflow::messages::StatsRequest;
use sdnshield_openflow::types::DatapathId;

/// Book-keeping the stateful filters consult.
///
/// Implementations live in the permission engine; [`NullContext`] provides
/// permissive defaults for purely static checking.
pub trait CheckContext {
    /// Would this call read or modify flows owned by a *different* app?
    ///
    /// Consulted by the `OWN_FLOWS` ownership filter on flow-table calls.
    fn touches_foreign_flows(&self, call: &ApiCall) -> bool {
        let _ = call;
        false
    }

    /// Rules currently installed by `app` on `dpid` (for `MAX_RULE_COUNT`).
    fn rule_count(&self, app: AppId, dpid: DatapathId) -> u32 {
        let _ = (app, dpid);
        0
    }

    /// Was `payload` recently delivered to `app` in a packet-in
    /// (for `FROM_PKT_IN`)?
    fn is_from_pkt_in(&self, app: AppId, payload: &Bytes) -> bool {
        let _ = (app, payload);
        false
    }
}

/// A [`CheckContext`] with permissive defaults: no foreign flows, zero rule
/// counts, and every packet-out treated as replayed from a packet-in.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullContext;

impl CheckContext for NullContext {
    fn is_from_pkt_in(&self, _app: AppId, _payload: &Bytes) -> bool {
        true
    }
}

/// Why a filter rejected a call (carried in deny decisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterViolation {
    /// Human-readable rendering of the violated filter.
    pub filter: String,
}

/// Evaluates a filter expression against a call.
///
/// Returns `true` when the call passes. Unexpanded stub macros always fail
/// (a manifest must be reconciled before enforcement).
pub fn eval(expr: &FilterExpr, call: &ApiCall, ctx: &dyn CheckContext) -> bool {
    match expr {
        FilterExpr::True => true,
        FilterExpr::Atom(f) => eval_singleton(f, call, ctx),
        FilterExpr::And(xs) => xs.iter().all(|x| eval(x, call, ctx)),
        FilterExpr::Or(xs) => xs.iter().any(|x| eval(x, call, ctx)),
        FilterExpr::Not(x) => !eval(x, call, ctx),
    }
}

/// Evaluates one singleton filter against a call.
pub fn eval_singleton(f: &SingletonFilter, call: &ApiCall, ctx: &dyn CheckContext) -> bool {
    match f {
        SingletonFilter::Pred(granted) => match call.kind.flow_space() {
            Some(space) => {
                if is_read_call(&call.kind) {
                    // Reads may query broadly; results are filtered to the
                    // visible space by the kernel. The call passes if any
                    // visible flow could satisfy it.
                    granted.overlaps(&space)
                } else {
                    // Writes must stay strictly inside the granted space.
                    granted.subsumes(&space)
                }
            }
            None => true,
        },
        SingletonFilter::Wildcard { field, mask } => match &call.kind {
            ApiCallKind::InsertFlow { flow_mod, .. } | ApiCallKind::DeleteFlow { flow_mod, .. } => {
                let matched_bits = matched_bits_of(&flow_mod.flow_match, *field);
                matched_bits & mask == 0
            }
            _ => true,
        },
        SingletonFilter::Action(constraint) => match &call.kind {
            ApiCallKind::InsertFlow { flow_mod, .. } => {
                action_list_conforms(&flow_mod.actions, constraint)
            }
            ApiCallKind::SendPacketOut { packet_out, .. } => {
                action_list_conforms(&packet_out.actions, constraint)
            }
            _ => true,
        },
        SingletonFilter::Ownership(Ownership::AllFlows) => true,
        SingletonFilter::Ownership(Ownership::OwnFlows) => match &call.kind {
            ApiCallKind::ReadFlowTable { .. }
            | ApiCallKind::InsertFlow { .. }
            | ApiCallKind::DeleteFlow { .. } => !ctx.touches_foreign_flows(call),
            _ => true,
        },
        SingletonFilter::MaxPriority(max) => match call.kind.priority() {
            Some(p) => p.0 <= *max,
            None => true,
        },
        SingletonFilter::MinPriority(min) => match call.kind.priority() {
            Some(p) => p.0 >= *min,
            None => true,
        },
        SingletonFilter::MaxRuleCount(quota) => match &call.kind {
            ApiCallKind::InsertFlow { dpid, .. } => ctx.rule_count(call.app, *dpid) < *quota,
            _ => true,
        },
        SingletonFilter::PktOut(PktOutSource::Arbitrary) => true,
        SingletonFilter::PktOut(PktOutSource::FromPktIn) => match call.kind.pkt_out_payload() {
            Some(payload) => ctx.is_from_pkt_in(call.app, payload),
            None => true,
        },
        SingletonFilter::PhysTopo(topo) => match call.kind.dpid() {
            Some(dpid) => topo.contains_switch(dpid),
            None => true,
        },
        SingletonFilter::VirtTopo(_) => {
            // The virtual-topology filter rewrites rather than rejects; the
            // kernel translates dpids via `vtopo`. At check time the only
            // requirement is structural and enforced there.
            true
        }
        SingletonFilter::Callback(_) => true,
        SingletonFilter::Stats(level) => match &call.kind {
            ApiCallKind::ReadStatistics { request, .. } => required_stats_level(request) <= *level,
            _ => true,
        },
        // Unexpanded stubs deny: manifests must be reconciled first.
        SingletonFilter::Stub(_) => false,
    }
}

/// How much of the evaluation environment a singleton filter consults —
/// the compile-time classification behind the engine's check plans
/// (DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiteralClass {
    /// Decidable from the manifest alone: [`eval_singleton`] returns the
    /// carried constant for every call and every context, so plan
    /// compilation folds the literal out.
    Static(bool),
    /// Depends only on the call's own attributes — a pure function of the
    /// [`ApiCall`], decidable without a context.
    CallOnly,
    /// Reads the kernel's [`CheckContext`] (ownership, quotas, packet-in
    /// provenance): the answer can change between calls.
    Stateful,
}

/// Classifies a singleton filter by what [`eval_singleton`] consults.
///
/// The classification must stay conservative with respect to the evaluator:
/// a filter marked [`LiteralClass::CallOnly`] must never read the context,
/// and one marked [`LiteralClass::Static`] must evaluate to the carried
/// constant for *every* call. The plan ≡ interpreted property test
/// enforces this end to end.
pub fn classify(f: &SingletonFilter) -> LiteralClass {
    match f {
        // Constant-true: the evaluator accepts these unconditionally.
        SingletonFilter::Ownership(Ownership::AllFlows)
        | SingletonFilter::PktOut(PktOutSource::Arbitrary)
        | SingletonFilter::VirtTopo(_)
        | SingletonFilter::Callback(_) => LiteralClass::Static(true),
        // Constant-false: unexpanded stubs always deny.
        SingletonFilter::Stub(_) => LiteralClass::Static(false),
        SingletonFilter::Pred(_)
        | SingletonFilter::Wildcard { .. }
        | SingletonFilter::Action(_)
        | SingletonFilter::MaxPriority(_)
        | SingletonFilter::MinPriority(_)
        | SingletonFilter::PhysTopo(_)
        | SingletonFilter::Stats(_) => LiteralClass::CallOnly,
        SingletonFilter::Ownership(Ownership::OwnFlows)
        | SingletonFilter::MaxRuleCount(_)
        | SingletonFilter::PktOut(PktOutSource::FromPktIn) => LiteralClass::Stateful,
    }
}

/// Relative evaluation cost of a singleton filter, for cheapest-first
/// ordering inside check plans. Only the order matters, not the scale:
/// integer comparisons < set probes < flow-match algebra < context reads
/// (which scan tracker state).
pub fn cost_rank(f: &SingletonFilter) -> u8 {
    match f {
        SingletonFilter::MaxPriority(_) | SingletonFilter::MinPriority(_) => 0,
        SingletonFilter::Stats(_) => 1,
        SingletonFilter::PhysTopo(_) => 2,
        SingletonFilter::Wildcard { .. } => 3,
        SingletonFilter::Action(_) => 4,
        SingletonFilter::Pred(_) => 5,
        // Constants fold out of plans; ranked only for completeness.
        SingletonFilter::Ownership(Ownership::AllFlows)
        | SingletonFilter::PktOut(PktOutSource::Arbitrary)
        | SingletonFilter::VirtTopo(_)
        | SingletonFilter::Callback(_)
        | SingletonFilter::Stub(_) => 0,
        // Stateful reads walk tracker state (rule lists, payload windows).
        SingletonFilter::MaxRuleCount(_) => 6,
        SingletonFilter::PktOut(PktOutSource::FromPktIn) => 7,
        SingletonFilter::Ownership(Ownership::OwnFlows) => 8,
    }
}

/// Is this call a read (result-filterable) as opposed to a write?
fn is_read_call(kind: &ApiCallKind) -> bool {
    matches!(
        kind,
        ApiCallKind::ReadFlowTable { .. }
            | ApiCallKind::ReadTopology
            | ApiCallKind::ReadStatistics { .. }
            | ApiCallKind::ReadPayload { .. }
    )
}

/// Bits of `field` that the match *constrains* (is not wildcarding).
fn matched_bits_of(
    m: &sdnshield_openflow::flow_match::FlowMatch,
    field: crate::filter::Field,
) -> u32 {
    use crate::filter::Field;
    match field {
        Field::IpSrc => m.ip_src.map(|x| x.mask.0).unwrap_or(0),
        Field::IpDst => m.ip_dst.map(|x| x.mask.0).unwrap_or(0),
        Field::InPort => m.in_port.map(|_| u32::MAX).unwrap_or(0),
        Field::EthSrc => m.eth_src.map(|_| u32::MAX).unwrap_or(0),
        Field::EthDst => m.eth_dst.map(|_| u32::MAX).unwrap_or(0),
        Field::EthType => m.eth_type.map(|_| u32::MAX).unwrap_or(0),
        Field::VlanId => m.vlan_id.map(|_| u32::MAX).unwrap_or(0),
        Field::IpProto => m.ip_proto.map(|_| u32::MAX).unwrap_or(0),
        Field::TpSrc => m.tp_src.map(|_| u32::MAX).unwrap_or(0),
        Field::TpDst => m.tp_dst.map(|_| u32::MAX).unwrap_or(0),
    }
}

/// Does an action list conform to a single action constraint?
fn action_list_conforms(
    actions: &sdnshield_openflow::actions::ActionList,
    constraint: &ActionConstraint,
) -> bool {
    match constraint {
        ActionConstraint::Drop => actions.is_drop() && !actions.modifies_headers(),
        ActionConstraint::Forward => !actions.is_drop() && !actions.modifies_headers(),
        ActionConstraint::Modify(field) => {
            // May rewrite only `field`; forwarding allowed alongside.
            actions.iter().all(|a| match a.modified_field() {
                None => true,
                Some(f) => field_name_matches(*field, f),
            })
        }
    }
}

fn field_name_matches(field: crate::filter::Field, action_field: &str) -> bool {
    use crate::filter::Field;
    matches!(
        (field, action_field),
        (Field::EthSrc, "eth_src")
            | (Field::EthDst, "eth_dst")
            | (Field::IpSrc, "ip_src")
            | (Field::IpDst, "ip_dst")
            | (Field::TpSrc, "tp_src")
            | (Field::TpDst, "tp_dst")
            | (Field::VlanId, "vlan")
    )
}

/// The statistics granularity a request needs.
fn required_stats_level(request: &StatsRequest) -> StatsLevel {
    match request {
        StatsRequest::Flow(_) | StatsRequest::Aggregate(_) => StatsLevel::FlowLevel,
        StatsRequest::Port(_) => StatsLevel::PortLevel,
        StatsRequest::Table => StatsLevel::SwitchLevel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{Field, PhysTopoFilter};
    use sdnshield_openflow::actions::{Action, ActionList};
    use sdnshield_openflow::flow_match::FlowMatch;
    use sdnshield_openflow::messages::{FlowMod, PacketOut};
    use sdnshield_openflow::types::{BufferId, Ipv4, PortNo, Priority};

    fn insert(m: FlowMatch, prio: u16, actions: ActionList) -> ApiCall {
        ApiCall::new(
            AppId(1),
            ApiCallKind::InsertFlow {
                dpid: DatapathId(1),
                flow_mod: FlowMod::add(m, Priority(prio), actions),
            },
        )
    }

    fn fwd(m: FlowMatch) -> ApiCall {
        insert(m, 100, ActionList::output(PortNo(2)))
    }

    #[test]
    fn pred_filter_gates_writes_by_subsumption() {
        let granted = SingletonFilter::ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16);
        let inside = fwd(FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 7, 0), 24));
        let outside = fwd(FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 14, 0, 0), 24));
        let broader = fwd(FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 0, 0, 0), 8));
        assert!(eval_singleton(&granted, &inside, &NullContext));
        assert!(!eval_singleton(&granted, &outside, &NullContext));
        assert!(
            !eval_singleton(&granted, &broader, &NullContext),
            "write may not exceed grant"
        );
    }

    #[test]
    fn pred_filter_gates_reads_by_overlap() {
        let granted = SingletonFilter::ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16);
        let broad_query = ApiCall::new(
            AppId(1),
            ApiCallKind::ReadFlowTable {
                dpid: DatapathId(1),
                query: FlowMatch::any(),
            },
        );
        // Broad reads pass (results get filtered); disjoint reads fail.
        assert!(eval_singleton(&granted, &broad_query, &NullContext));
        let disjoint_query = ApiCall::new(
            AppId(1),
            ApiCallKind::ReadFlowTable {
                dpid: DatapathId(1),
                query: FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 14, 0, 0), 16),
            },
        );
        assert!(!eval_singleton(&granted, &disjoint_query, &NullContext));
    }

    #[test]
    fn pred_filter_vacuous_on_attribute_free_calls() {
        let granted = SingletonFilter::ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16);
        let topo = ApiCall::new(AppId(1), ApiCallKind::ReadTopology);
        assert!(eval_singleton(&granted, &topo, &NullContext));
    }

    #[test]
    fn wildcard_filter_enforces_wildcarded_bits() {
        // Load-balancer example (§IV): upper 24 bits of IP_DST must stay
        // wildcarded; the app may only match the low 8 bits.
        let f = SingletonFilter::Wildcard {
            field: Field::IpDst,
            mask: 0xffff_ff00,
        };
        let low8 = fwd(FlowMatch {
            ip_dst: Some(sdnshield_openflow::flow_match::MaskedIpv4::new(
                Ipv4::new(0, 0, 0, 5),
                Ipv4::new(0, 0, 0, 255),
            )),
            ..FlowMatch::default()
        });
        assert!(eval_singleton(&f, &low8, &NullContext));
        let exact = fwd(FlowMatch::default().with_ip_dst(Ipv4::new(10, 0, 0, 5)));
        assert!(!eval_singleton(&f, &exact, &NullContext));
        let fully_wild = fwd(FlowMatch::default().with_tp_dst(80));
        assert!(eval_singleton(&f, &fully_wild, &NullContext));
    }

    #[test]
    fn action_filters() {
        let forward_only = SingletonFilter::Action(ActionConstraint::Forward);
        assert!(eval_singleton(
            &forward_only,
            &fwd(FlowMatch::any()),
            &NullContext
        ));
        let dropping = insert(FlowMatch::any(), 1, ActionList::drop());
        assert!(!eval_singleton(&forward_only, &dropping, &NullContext));
        let rewriting = insert(
            FlowMatch::any(),
            1,
            ActionList(vec![
                Action::SetIpDst(Ipv4::new(1, 1, 1, 1)),
                Action::Output(PortNo(2)),
            ]),
        );
        assert!(!eval_singleton(&forward_only, &rewriting, &NullContext));
        let drop_only = SingletonFilter::Action(ActionConstraint::Drop);
        assert!(eval_singleton(&drop_only, &dropping, &NullContext));
        assert!(!eval_singleton(
            &drop_only,
            &fwd(FlowMatch::any()),
            &NullContext
        ));
        let modify_ipdst = SingletonFilter::Action(ActionConstraint::Modify(Field::IpDst));
        assert!(eval_singleton(&modify_ipdst, &rewriting, &NullContext));
        let rewriting_tp = insert(
            FlowMatch::any(),
            1,
            ActionList(vec![Action::SetTpDst(8080), Action::Output(PortNo(2))]),
        );
        assert!(!eval_singleton(&modify_ipdst, &rewriting_tp, &NullContext));
    }

    #[test]
    fn priority_and_quota_filters() {
        let call = insert(FlowMatch::any(), 100, ActionList::output(PortNo(1)));
        assert!(eval_singleton(
            &SingletonFilter::MaxPriority(100),
            &call,
            &NullContext
        ));
        assert!(!eval_singleton(
            &SingletonFilter::MaxPriority(99),
            &call,
            &NullContext
        ));
        assert!(eval_singleton(
            &SingletonFilter::MinPriority(100),
            &call,
            &NullContext
        ));
        assert!(!eval_singleton(
            &SingletonFilter::MinPriority(101),
            &call,
            &NullContext
        ));

        struct Quota(u32);
        impl CheckContext for Quota {
            fn rule_count(&self, _app: AppId, _dpid: DatapathId) -> u32 {
                self.0
            }
        }
        assert!(eval_singleton(
            &SingletonFilter::MaxRuleCount(10),
            &call,
            &Quota(9)
        ));
        assert!(!eval_singleton(
            &SingletonFilter::MaxRuleCount(10),
            &call,
            &Quota(10)
        ));
    }

    #[test]
    fn ownership_filter_consults_context() {
        struct Foreign;
        impl CheckContext for Foreign {
            fn touches_foreign_flows(&self, _call: &ApiCall) -> bool {
                true
            }
        }
        let own = SingletonFilter::Ownership(Ownership::OwnFlows);
        let call = fwd(FlowMatch::any());
        assert!(!eval_singleton(&own, &call, &Foreign));
        assert!(eval_singleton(&own, &call, &NullContext));
        let all = SingletonFilter::Ownership(Ownership::AllFlows);
        assert!(eval_singleton(&all, &call, &Foreign));
    }

    #[test]
    fn pkt_out_provenance() {
        struct NoReplay;
        impl CheckContext for NoReplay {}
        let po = ApiCall::new(
            AppId(1),
            ApiCallKind::SendPacketOut {
                dpid: DatapathId(1),
                packet_out: PacketOut {
                    buffer_id: BufferId::NO_BUFFER,
                    in_port: PortNo::NONE,
                    actions: ActionList::output(PortNo(1)),
                    payload: Bytes::from_static(b"fabricated"),
                },
            },
        );
        let from_pkt_in = SingletonFilter::PktOut(PktOutSource::FromPktIn);
        assert!(!eval_singleton(&from_pkt_in, &po, &NoReplay));
        assert!(eval_singleton(&from_pkt_in, &po, &NullContext));
        assert!(eval_singleton(
            &SingletonFilter::PktOut(PktOutSource::Arbitrary),
            &po,
            &NoReplay
        ));
    }

    #[test]
    fn phys_topo_gates_by_dpid() {
        let topo = SingletonFilter::PhysTopo(PhysTopoFilter::new([1, 2], [(1, 2)]));
        let on1 = fwd(FlowMatch::any());
        assert!(eval_singleton(&topo, &on1, &NullContext));
        let on9 = ApiCall::new(
            AppId(1),
            ApiCallKind::InsertFlow {
                dpid: DatapathId(9),
                flow_mod: FlowMod::add(FlowMatch::any(), Priority(1), ActionList::drop()),
            },
        );
        assert!(!eval_singleton(&topo, &on9, &NullContext));
    }

    #[test]
    fn stats_level_gating() {
        let port_level = SingletonFilter::Stats(StatsLevel::PortLevel);
        let flow_req = ApiCall::new(
            AppId(1),
            ApiCallKind::ReadStatistics {
                dpid: DatapathId(1),
                request: StatsRequest::Flow(FlowMatch::any()),
            },
        );
        let port_req = ApiCall::new(
            AppId(1),
            ApiCallKind::ReadStatistics {
                dpid: DatapathId(1),
                request: StatsRequest::Port(PortNo::NONE),
            },
        );
        let table_req = ApiCall::new(
            AppId(1),
            ApiCallKind::ReadStatistics {
                dpid: DatapathId(1),
                request: StatsRequest::Table,
            },
        );
        assert!(!eval(
            &FilterExpr::atom(port_level.clone()),
            &flow_req,
            &NullContext
        ));
        assert!(eval(
            &FilterExpr::atom(port_level.clone()),
            &port_req,
            &NullContext
        ));
        assert!(eval(
            &FilterExpr::atom(port_level),
            &table_req,
            &NullContext
        ));
    }

    #[test]
    fn stub_always_denies() {
        let stub = SingletonFilter::Stub("AdminRange".into());
        assert!(!eval_singleton(&stub, &fwd(FlowMatch::any()), &NullContext));
    }

    #[test]
    fn composition_semantics() {
        let a = FilterExpr::atom(SingletonFilter::MaxPriority(10));
        let b = FilterExpr::atom(SingletonFilter::ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16));
        let call_ok = insert(
            FlowMatch::default().with_ip_dst(Ipv4::new(10, 13, 1, 1)),
            5,
            ActionList::output(PortNo(1)),
        );
        let call_high_prio = insert(
            FlowMatch::default().with_ip_dst(Ipv4::new(10, 13, 1, 1)),
            50,
            ActionList::output(PortNo(1)),
        );
        let and = a.clone().and(b.clone());
        let or = a.clone().or(b.clone());
        assert!(eval(&and, &call_ok, &NullContext));
        assert!(!eval(&and, &call_high_prio, &NullContext));
        assert!(
            eval(&or, &call_high_prio, &NullContext),
            "ip matches even though prio fails"
        );
        assert!(!eval(&a.clone().not(), &call_ok, &NullContext));
        assert!(eval(&FilterExpr::True, &call_high_prio, &NullContext));
    }
}
