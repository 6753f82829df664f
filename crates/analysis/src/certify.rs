//! Runtime conformance certification: replay an exported kernel decision
//! trace against the statically computed decision envelope (DESIGN.md §14).
//!
//! `shieldcheck certify <trace>` re-derives, for every runtime decision in
//! the trace, what the static analysis says about that (app, call) pair:
//!
//! - **Allow outside the envelope (SH016, error).** The kernel allowed a
//!   call that the registered manifest cannot justify — the app was not
//!   registered, the required token was never granted, or the grant's filter
//!   provably rejects the call. Any SH016 means the enforcement engine and
//!   the static model disagree, which is exactly the bug class this gate
//!   exists to catch (fast-lane/vectored/batch divergence from the deputy).
//! - **Deny of an always-allowed call (SH017, warning).** The kernel denied
//!   a call the static model proves admissible under every context. A
//!   warning, not an error: over-restriction is safe, but it usually
//!   indicates a stale snapshot or an over-eager fast-path bailout.
//!
//! The envelope is evaluated in three-valued (Kleene) logic. Literals that
//! consult runtime state the trace does not carry — ownership, rule-count
//! quotas, packet-in provenance — evaluate to *unknown*, and a decision
//! whose verdict is unknown is accepted either way. This is the deliberate
//! incompleteness boundary: certification proves every Allow is derivable
//! from call-only facts, never that stateful judgment calls were right.

use std::collections::BTreeMap;

use sdnshield_core::eval::{classify, eval_singleton, LiteralClass, NullContext};
use sdnshield_core::lang::{parse_manifest, SpannedExpr};
use sdnshield_core::trace::{parse_trace, TraceEvent};
use sdnshield_core::{ApiCall, AppId, FilterExpr, PermissionSet};

use crate::diag::{json_string, Diagnostic, Severity, SCHEMA_VERSION};

/// Three-valued verdict of the static envelope for one decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tv {
    /// Provably allowed under every context.
    True,
    /// Provably denied under every context.
    False,
    /// Depends on runtime state the trace does not carry.
    Unknown,
}

impl Tv {
    fn not(self) -> Tv {
        match self {
            Tv::True => Tv::False,
            Tv::False => Tv::True,
            Tv::Unknown => Tv::Unknown,
        }
    }
}

impl From<bool> for Tv {
    fn from(b: bool) -> Tv {
        if b {
            Tv::True
        } else {
            Tv::False
        }
    }
}

/// Kleene evaluation of a filter against a call: static literals fold,
/// call-only literals evaluate exactly (they never read the context, so
/// [`NullContext`] is sound), stateful literals are unknown.
fn eval_tv(expr: &FilterExpr, call: &ApiCall) -> Tv {
    match expr {
        FilterExpr::True => Tv::True,
        FilterExpr::Atom(f) => match classify(f) {
            LiteralClass::Static(b) => b.into(),
            LiteralClass::CallOnly => eval_singleton(f, call, &NullContext).into(),
            LiteralClass::Stateful => Tv::Unknown,
        },
        FilterExpr::And(xs) => {
            let mut acc = Tv::True;
            for x in xs {
                match eval_tv(x, call) {
                    Tv::False => return Tv::False,
                    Tv::Unknown => acc = Tv::Unknown,
                    Tv::True => {}
                }
            }
            acc
        }
        FilterExpr::Or(xs) => {
            let mut acc = Tv::False;
            for x in xs {
                match eval_tv(x, call) {
                    Tv::True => return Tv::True,
                    Tv::Unknown => acc = Tv::Unknown,
                    Tv::False => {}
                }
            }
            acc
        }
        FilterExpr::Not(x) => eval_tv(x, call).not(),
    }
}

/// The result of certifying one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CertifyReport {
    /// Total decisions replayed.
    pub decisions: u64,
    /// Runtime Allows among them.
    pub allows: u64,
    /// Runtime Denies among them.
    pub denies: u64,
    /// Decisions accepted only because a stateful literal made the verdict
    /// unknown (the incompleteness boundary, reported for transparency).
    pub unknown: u64,
    /// Decisions per lane (`deputy` — deputy calls and host sends —
    /// `fastlane`, `vectored`, `batch`).
    pub lanes: BTreeMap<String, u64>,
    /// Every SH016/SH017 finding, plus any trace or manifest parse error.
    pub findings: Vec<Diagnostic>,
}

impl CertifyReport {
    /// Did certification succeed (no error-severity finding)?
    pub fn is_certified(&self) -> bool {
        !self.findings.iter().any(|d| d.severity >= Severity::Error)
    }

    /// Stable JSON object: `{"schema_version":…,"mode":"certify",
    /// "decisions","allows","denies","unknown","lanes":{…},
    /// "findings":[<diagnostic>…],"certified":bool}`.
    pub fn render_json(&self, origin: &str) -> String {
        let lanes: Vec<String> = self
            .lanes
            .iter()
            .map(|(lane, n)| format!("{}:{n}", json_string(lane)))
            .collect();
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|d| d.render_json(origin))
            .collect();
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"mode\":\"certify\",\
             \"decisions\":{},\"allows\":{},\"denies\":{},\"unknown\":{},\
             \"lanes\":{{{}}},\"findings\":[{}],\"certified\":{}}}",
            self.decisions,
            self.allows,
            self.denies,
            self.unknown,
            lanes.join(","),
            findings.join(","),
            self.is_certified(),
        )
    }
}

/// One-line human description of a traced call, for finding messages.
fn describe_call(call: &ApiCall) -> String {
    format!(
        "{} (app {}, token `{}`)",
        call.kind.name(),
        call.app.0,
        call.required_token().name()
    )
}

/// Certifies a decision trace (the text produced by
/// `sdnshield_core::trace::write_trace`) against the static envelope each
/// registered manifest defines.
pub fn certify_trace(src: &str) -> CertifyReport {
    let mut report = CertifyReport::default();
    let events = match parse_trace(src) {
        Ok(evs) => evs,
        Err(e) => {
            report.findings.push(Diagnostic::new(
                "SH000",
                Severity::Error,
                format!("trace line {}: {}", e.line, e.msg),
                SpannedExpr::DUMMY_SPAN,
            ));
            return report;
        }
    };

    // The registry the trace builds up: app id -> (name, granted set). A
    // manifest that fails to parse registers as `None`; decisions for such
    // apps are uncertifiable and flagged once at registration time.
    let mut apps: BTreeMap<AppId, (String, Option<PermissionSet>)> = BTreeMap::new();

    for ev in events {
        match ev {
            TraceEvent::Register {
                app,
                name,
                manifest,
            } => {
                let set = match parse_manifest(&manifest) {
                    Ok(set) => Some(set),
                    Err(e) => {
                        report.findings.push(Diagnostic::new(
                            "SH000",
                            Severity::Error,
                            format!(
                                "app `{name}` (id {}): registered manifest does not parse: {}",
                                app.0, e.message
                            ),
                            SpannedExpr::DUMMY_SPAN,
                        ));
                        None
                    }
                };
                apps.insert(app, (name, set));
            }
            TraceEvent::Deregister { app } => {
                apps.remove(&app);
            }
            TraceEvent::Decision {
                lane,
                allowed,
                call,
            } => {
                report.decisions += 1;
                *report.lanes.entry(lane.clone()).or_insert(0) += 1;
                if allowed {
                    report.allows += 1;
                } else {
                    report.denies += 1;
                }

                let entry = apps.get(&call.app);
                let verdict = match entry {
                    // Unknown app: nothing grants anything, envelope is F.
                    None => Tv::False,
                    // Unparseable manifest: already reported; skip.
                    Some((_, None)) => continue,
                    Some((_, Some(set))) => match set.filter(call.required_token()) {
                        None => Tv::False,
                        Some(f) => eval_tv(f, &call),
                    },
                };

                match (allowed, verdict) {
                    (true, Tv::False) => {
                        let why = match entry {
                            None => "the app is not registered at this point in the trace",
                            Some((_, Some(set))) if !set.contains_token(call.required_token()) => {
                                "the registered manifest never grants the required token"
                            }
                            _ => "the granted filter provably rejects this call",
                        };
                        report.findings.push(
                            Diagnostic::new(
                                "SH016",
                                Severity::Error,
                                format!(
                                    "runtime Allow outside the static envelope: {} on the {lane} lane",
                                    describe_call(&call)
                                ),
                                SpannedExpr::DUMMY_SPAN,
                            )
                            .with_note(why),
                        );
                    }
                    (false, Tv::True) => {
                        report.findings.push(
                            Diagnostic::new(
                                "SH017",
                                Severity::Warning,
                                format!(
                                    "runtime Deny of a statically always-allowed call: {} on the {lane} lane",
                                    describe_call(&call)
                                ),
                                SpannedExpr::DUMMY_SPAN,
                            )
                            .with_note(
                                "the static envelope admits this call under every context; \
                                 likely a stale snapshot or over-eager fast-path bailout",
                            ),
                        );
                    }
                    (_, Tv::Unknown) => report.unknown += 1,
                    _ => {}
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnshield_core::trace::write_trace;
    use sdnshield_core::ApiCallKind;
    use sdnshield_openflow::actions::ActionList;
    use sdnshield_openflow::flow_match::FlowMatch;
    use sdnshield_openflow::messages::FlowMod;
    use sdnshield_openflow::types::{DatapathId, Priority};

    const MANIFEST: &str = "PERM insert_flow LIMITING SWITCH 1 AND MAX_PRIORITY 100\n\
                            PERM visible_topology";

    fn insert(app: u16, dpid: u64, prio: u16) -> ApiCall {
        ApiCall::new(
            AppId(app),
            ApiCallKind::InsertFlow {
                dpid: DatapathId(dpid),
                flow_mod: FlowMod::add(FlowMatch::any(), Priority(prio), ActionList::drop()),
            },
        )
    }

    fn trace(decisions: &[(bool, ApiCall)]) -> String {
        let mut evs = vec![TraceEvent::Register {
            app: AppId(1),
            name: "fwd".into(),
            manifest: MANIFEST.into(),
        }];
        for (allowed, call) in decisions {
            evs.push(TraceEvent::Decision {
                lane: "deputy".into(),
                allowed: *allowed,
                call: call.clone(),
            });
        }
        write_trace(&evs)
    }

    #[test]
    fn in_envelope_allows_certify() {
        let r = certify_trace(&trace(&[(true, insert(1, 1, 50))]));
        assert!(r.is_certified(), "{:?}", r.findings);
        assert_eq!(r.decisions, 1);
        assert_eq!(r.allows, 1);
        assert_eq!(r.lanes.get("deputy"), Some(&1));
    }

    #[test]
    fn out_of_envelope_allow_is_sh016() {
        // Priority above the granted MAX_PRIORITY: provably outside.
        let r = certify_trace(&trace(&[(true, insert(1, 1, 5000))]));
        assert!(!r.is_certified());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].code, "SH016");
    }

    #[test]
    fn unregistered_app_allow_is_sh016() {
        let r = certify_trace(&trace(&[(true, insert(9, 1, 10))]));
        assert_eq!(r.findings[0].code, "SH016");
        assert!(r.findings[0].notes[0].contains("not registered"));
    }

    #[test]
    fn deny_of_always_allowed_call_is_sh017_warning() {
        let r = certify_trace(&trace(&[(
            false,
            ApiCall::new(AppId(1), ApiCallKind::ReadTopology),
        )]));
        assert!(r.is_certified(), "SH017 is a warning, not an error");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].code, "SH017");
    }

    #[test]
    fn deny_inside_envelope_is_silent() {
        // Denying an in-envelope call is conservative, and the envelope for
        // a priority-5000 insert is F, so denying it is exactly right.
        let r = certify_trace(&trace(&[(false, insert(1, 1, 5000))]));
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.denies, 1);
    }

    #[test]
    fn garbage_trace_is_an_error_not_a_panic() {
        let r = certify_trace("decision allowed=maybe\n");
        assert!(!r.is_certified());
        assert_eq!(r.findings[0].code, "SH000");
    }

    #[test]
    fn json_shape_is_stable() {
        let r = certify_trace(&trace(&[(true, insert(1, 1, 50))]));
        let js = r.render_json("t.trace");
        assert!(js.starts_with("{\"schema_version\":"), "{js}");
        assert!(js.contains("\"mode\":\"certify\""), "{js}");
        assert!(js.contains("\"certified\":true"), "{js}");
    }
}
