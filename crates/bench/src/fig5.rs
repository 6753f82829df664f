//! Workload generator for Figure 5 (permission-engine micro-benchmark).
//!
//! Paper §IX-B2: "We measure the permission engine throughput with three
//! manually generated permission manifests, which represent small, medium
//! and large permission complexity. Three manifests respectively contain 1,
//! 5 and 15 permission tokens, and each token is associated with 10-20
//! filters. The app behavior trace is a sequence of flow insertions and
//! statistics requests that guarantees 5% of the API calls violate the
//! permissions."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::filter::{
    ActionConstraint, FilterExpr, Ownership, SingletonFilter, StatsLevel,
};
use sdnshield_core::perm::{Permission, PermissionSet};
use sdnshield_core::token::PermissionToken;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::{FlowMatch, MaskedIpv4};
use sdnshield_openflow::messages::{FlowMod, StatsRequest};
use sdnshield_openflow::types::{DatapathId, Ipv4, PortNo, Priority};

/// Manifest complexity tiers from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Complexity {
    /// 1 token.
    Small,
    /// 5 tokens.
    Medium,
    /// 15 tokens.
    Large,
}

impl Complexity {
    /// All tiers in presentation order.
    pub const ALL: [Complexity; 3] = [Complexity::Small, Complexity::Medium, Complexity::Large];

    /// Number of permission tokens in the manifest.
    pub fn tokens(self) -> usize {
        match self {
            Complexity::Small => 1,
            Complexity::Medium => 5,
            Complexity::Large => 15,
        }
    }

    /// Singleton filters attached to each token — graded within the paper's
    /// 10–20 band so the per-check work grows with complexity (the paper's
    /// Figure-5 trend).
    pub fn filters_per_token(self) -> usize {
        match self {
            Complexity::Small => 10,
            Complexity::Medium => 15,
            Complexity::Large => 20,
        }
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Complexity::Small => "small",
            Complexity::Medium => "medium",
            Complexity::Large => "large",
        }
    }
}

/// The subnet granted to `insert_flow` / `read_flow_table` predicates: calls
/// inside pass, outside violate.
pub const GRANTED_NET: Ipv4 = Ipv4::new(10, 13, 0, 0);
/// A subnet guaranteed outside every granted predicate.
pub const FORBIDDEN_NET: Ipv4 = Ipv4::new(172, 31, 0, 0);

/// Generates a manifest of the given complexity: `tokens()` permission
/// tokens, each carrying 10–20 singleton filters composed with OR-of-ANDs.
///
/// The filter structure is built so that the *workload* of
/// [`gen_trace`] passes: every token's filter includes a disjunct covering
/// [`GRANTED_NET`] traffic at priority ≤ 400 with forwarding actions.
pub fn gen_manifest(complexity: Complexity, seed: u64) -> PermissionSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = PermissionSet::new();
    // Tokens in a fixed order: flow-table tokens first so Small keeps
    // insert_flow (the hot call in the trace).
    let token_order = [
        PermissionToken::InsertFlow,
        PermissionToken::ReadStatistics,
        PermissionToken::ReadFlowTable,
        PermissionToken::DeleteFlow,
        PermissionToken::SendPktOut,
        PermissionToken::VisibleTopology,
        PermissionToken::FlowEvent,
        PermissionToken::PktInEvent,
        PermissionToken::TopologyEvent,
        PermissionToken::ErrorEvent,
        PermissionToken::ReadPayload,
        PermissionToken::ModifyTopology,
        PermissionToken::HostNetwork,
        PermissionToken::FileSystem,
        PermissionToken::ProcessRuntime,
    ];
    for token in token_order.into_iter().take(complexity.tokens()) {
        let filter = gen_filter(token, complexity.filters_per_token(), &mut rng);
        set.insert(Permission::limited(token, filter));
    }
    set
}

/// Builds one token's filter: a disjunction of conjunctive clauses totaling
/// 10–20 singleton filters, always including the workload-passing clause.
fn gen_filter(token: PermissionToken, total: usize, rng: &mut StdRng) -> FilterExpr {
    // The guaranteed-pass clause: granted subnet + generous bounds.
    let pass_clause = FilterExpr::atom(SingletonFilter::Pred(FlowMatch {
        ip_dst: Some(MaskedIpv4::prefix(GRANTED_NET, 16)),
        ..FlowMatch::default()
    }))
    .and(FilterExpr::atom(SingletonFilter::MaxPriority(400)))
    .and(FilterExpr::atom(SingletonFilter::Action(
        ActionConstraint::Forward,
    )))
    .and(FilterExpr::atom(SingletonFilter::Stats(
        StatsLevel::FlowLevel,
    )));
    let mut used = 4usize;
    let mut expr: Option<FilterExpr> = None;
    while used < total {
        // Fixed 2-atom clauses (plus a possible 1-atom remainder) keep the
        // clause count — the dominant evaluation cost — a deterministic
        // function of the tier, so the Figure-5 trend is not washed out by
        // random clause structure.
        let clause_len = 2.min(total - used);
        // Every clause leads with an ip_dst predicate disjoint from both the
        // granted and the forbidden subnets, so the 5% violating calls fail
        // every disjunct (the point of the workload).
        let mut clause = FilterExpr::atom(subnet_atom(rng));
        for _ in 1..clause_len {
            clause = clause.and(FilterExpr::atom(random_atom(token, rng)));
        }
        used += clause_len;
        expr = Some(match expr {
            Some(e) => e.or(clause),
            None => clause,
        });
    }
    // The workload-passing clause goes LAST: the evaluator must consider the
    // other disjuncts first, so per-check cost scales with the manifest's
    // filter count (an arbitrary manifest gives no such placement luck).
    match expr {
        Some(e) => e.or(pass_clause),
        None => pass_clause,
    }
}

/// An ip_dst predicate on 10.{20..200}/16..24 — never 10.13/16, never
/// 172.31/16.
fn subnet_atom(rng: &mut StdRng) -> SingletonFilter {
    SingletonFilter::Pred(FlowMatch {
        ip_dst: Some(MaskedIpv4::prefix(
            Ipv4::new(10, rng.gen_range(20..200), 0, 0),
            rng.gen_range(16..=24),
        )),
        ..FlowMatch::default()
    })
}

fn random_atom(_token: PermissionToken, rng: &mut StdRng) -> SingletonFilter {
    match rng.gen_range(0..5) {
        0 => subnet_atom(rng),
        1 => SingletonFilter::MaxPriority(rng.gen_range(50..300)),
        2 => SingletonFilter::MinPriority(rng.gen_range(1..50)),
        3 => SingletonFilter::Ownership(Ownership::OwnFlows),
        _ => SingletonFilter::Pred(FlowMatch::default().with_tp_dst(rng.gen_range(1..1024))),
    }
}

/// The two call shapes of the paper's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCall {
    /// `insert_flow`.
    InsertFlow,
    /// `read_statistics`.
    ReadStatistics,
}

/// Generates the paper's behavior trace: `n` calls of the given shape with
/// `violation_permille`/1000 of them violating the permissions (the paper
/// uses 5% = 50‰).
pub fn gen_trace(shape: TraceCall, n: usize, violation_permille: u32, seed: u64) -> Vec<ApiCall> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let violate = rng.gen_range(0..1000) < violation_permille;
            let net = if violate { FORBIDDEN_NET } else { GRANTED_NET };
            let dst = Ipv4(net.0 | rng.gen_range(1u32..65_000));
            match shape {
                TraceCall::InsertFlow => ApiCall::new(
                    AppId(1),
                    ApiCallKind::InsertFlow {
                        dpid: DatapathId(rng.gen_range(1..16)),
                        flow_mod: FlowMod::add(
                            FlowMatch::default()
                                .with_ip_dst(dst)
                                .with_tp_dst(rng.gen_range(1..1024)),
                            Priority(rng.gen_range(10..350)),
                            ActionList::output(PortNo(rng.gen_range(1..8))),
                        ),
                    },
                ),
                TraceCall::ReadStatistics => {
                    // Violations for stats use a port-level escalation: the
                    // manifests allow flow-level, so violations query an
                    // app lacking the token instead — modelled by an
                    // out-of-subnet flow query under `Aggregate`.
                    let request = if violate {
                        StatsRequest::Aggregate(
                            FlowMatch::default().with_ip_dst_prefix(FORBIDDEN_NET, 16),
                        )
                    } else {
                        StatsRequest::Flow(FlowMatch::default().with_ip_dst_prefix(GRANTED_NET, 24))
                    };
                    ApiCall::new(
                        AppId(1),
                        ApiCallKind::ReadStatistics {
                            dpid: DatapathId(rng.gen_range(1..16)),
                            request,
                        },
                    )
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnshield_core::engine::PermissionEngine;
    use sdnshield_core::eval::NullContext;

    #[test]
    fn manifest_sizes_match_paper() {
        for (c, want) in [
            (Complexity::Small, 1),
            (Complexity::Medium, 5),
            (Complexity::Large, 15),
        ] {
            let m = gen_manifest(c, 42);
            assert_eq!(m.len(), want);
            for (_, filter) in m.iter() {
                let atoms = filter.atoms().len();
                assert!((10..=20).contains(&atoms), "got {atoms} filters");
            }
        }
    }

    #[test]
    fn violation_rate_close_to_requested() {
        let manifest = gen_manifest(Complexity::Medium, 42);
        let engine = PermissionEngine::compile(&manifest);
        let trace = gen_trace(TraceCall::InsertFlow, 10_000, 50, 7);
        let denied = trace
            .iter()
            .filter(|c| !engine.check(c, &NullContext).is_allowed())
            .count();
        let rate = denied as f64 / trace.len() as f64;
        assert!(
            (0.03..=0.08).contains(&rate),
            "expected ~5% violations, got {rate:.3}"
        );
    }

    #[test]
    fn stats_trace_behaves() {
        let manifest = gen_manifest(Complexity::Small, 42);
        // Small manifest has only insert_flow: all stats calls denied
        // (missing token) — the bench uses Medium+ for the stats series.
        let engine = PermissionEngine::compile(&manifest);
        let trace = gen_trace(TraceCall::ReadStatistics, 100, 50, 7);
        assert!(trace
            .iter()
            .all(|c| !engine.check(c, &NullContext).is_allowed()));
        let medium = PermissionEngine::compile(&gen_manifest(Complexity::Medium, 42));
        let allowed = trace
            .iter()
            .filter(|c| medium.check(c, &NullContext).is_allowed())
            .count();
        assert!(allowed > 80, "most stats calls pass on medium: {allowed}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            gen_manifest(Complexity::Large, 1),
            gen_manifest(Complexity::Large, 1)
        );
        assert_eq!(
            gen_trace(TraceCall::InsertFlow, 100, 50, 3),
            gen_trace(TraceCall::InsertFlow, 100, 50, 3)
        );
    }
}
