//! `trace_gen` — generates a decision trace for `shieldcheck certify`.
//!
//! ```text
//! trace_gen --out FILE [--commands N] [--seed S] [--corrupt]
//! ```
//!
//! Builds a journaled kernel with enforcement, the read fast lane and
//! batching all live; registers a small app market with deliberately
//! different authority levels; and drives a seeded random
//! workload through every decision seam — deputy calls, fast-lane reads,
//! vectored packet-outs, and atomic batches — with the decision trace
//! recorder armed. The resulting trace is the conformance-certification
//! input: `shieldcheck certify` must find every recorded Allow derivable
//! from the registered manifests (zero SH016), on a correct kernel.
//!
//! `--corrupt` appends a fabricated Allow for a call no manifest grants
//! (wrong switch, absurd priority) — the injected defect CI uses to prove
//! the certifier actually fails when the kernel misbehaves.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdnshield_controller::journal::Journal;
use sdnshield_controller::kernel::Kernel;
use sdnshield_controller::FlowOp;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId, EventKind};
use sdnshield_core::lang::parse_manifest;
use sdnshield_core::trace::{write_event, write_trace, TraceEvent};
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::{FlowMatch, MaskedIpv4};
use sdnshield_openflow::messages::{FlowMod, PacketOut, StatsRequest};
use sdnshield_openflow::types::{BufferId, DatapathId, Ipv4, PortNo, Priority};

const USAGE: &str = "usage: trace_gen --out FILE [--commands N] [--seed S] [--corrupt]";

/// The privileged app: broad write + read + emit authority.
const ADMIN: AppId = AppId(1);
/// The constrained app: writes boxed to two switches and low priorities.
const TENANT: AppId = AppId(2);
/// The observer app: read-only.
const VIEWER: AppId = AppId(3);

fn flow_mod(rng: &mut StdRng) -> FlowMod {
    let net = rng.gen_range(0u32..4) << 8;
    FlowMod::add(
        FlowMatch {
            ip_dst: Some(MaskedIpv4::prefix(
                Ipv4(0x0a00_0000 | net | rng.gen_range(0u32..4)),
                rng.gen_range(24u8..=32),
            )),
            ..FlowMatch::default()
        },
        Priority(rng.gen_range(0u16..200)),
        if rng.gen_bool(0.5) {
            ActionList::output(PortNo(1))
        } else {
            ActionList::drop()
        },
    )
    .with_hard_timeout(rng.gen_range(0u16..30))
}

fn packet_out(rng: &mut StdRng) -> PacketOut {
    PacketOut {
        buffer_id: BufferId::NO_BUFFER,
        in_port: PortNo(1),
        actions: ActionList::output(PortNo(2)),
        payload: bytes::Bytes::from(vec![rng.gen_range(0u8..16); 8]),
    }
}

/// A random app: mostly the constrained tenant (its denials are the
/// interesting decisions), sometimes the admin or the read-only viewer.
fn pick_app(rng: &mut StdRng) -> AppId {
    match rng.gen_range(0u8..4) {
        0 => ADMIN,
        1 | 2 => TENANT,
        _ => VIEWER,
    }
}

fn pick_dpid(rng: &mut StdRng) -> DatapathId {
    DatapathId(rng.gen_range(1u64..=3))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut commands: u64 = 10_000;
    let mut seed: u64 = 0x5d45;
    let mut corrupt = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().cloned(),
            "--commands" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => commands = n,
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(3);
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(3);
                }
            },
            "--corrupt" => corrupt = true,
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(3);
            }
        }
    }
    let Some(out_path) = out_path else {
        eprintln!("{USAGE}");
        return ExitCode::from(3);
    };

    let kernel = Kernel::new(Network::new(builders::linear(3), 1024), true);
    kernel.attach_journal(std::sync::Arc::new(Journal::in_memory()));
    kernel.enable_decision_trace();

    let admin = parse_manifest(
        "PERM insert_flow\nPERM delete_flow LIMITING OWN_FLOWS\nPERM read_flow_table\n\
         PERM send_pkt_out\nPERM visible_topology\nPERM read_statistics\nPERM pkt_in_event",
    )
    .expect("admin manifest");
    let tenant = parse_manifest(
        "PERM insert_flow LIMITING SWITCH 1,2 AND MAX_PRIORITY 100\n\
         PERM read_flow_table LIMITING IP_DST 10.0.0.0 MASK 255.255.0.0\n\
         PERM read_statistics LIMITING PORT_LEVEL\nPERM visible_topology",
    )
    .expect("tenant manifest");
    let viewer = parse_manifest("PERM visible_topology\nPERM read_statistics").expect("viewer");
    kernel
        .register_app(ADMIN, "admin", &admin)
        .expect("register admin");
    kernel
        .register_app(TENANT, "tenant", &tenant)
        .expect("register tenant");
    kernel
        .register_app(VIEWER, "viewer", &viewer)
        .expect("register viewer");

    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..commands {
        let app = pick_app(&mut rng);
        match rng.gen_range(0u8..10) {
            // Deputy writes (allowed and denied, depending on the app).
            0..=2 => {
                let call = ApiCall::new(
                    app,
                    ApiCallKind::InsertFlow {
                        dpid: pick_dpid(&mut rng),
                        flow_mod: flow_mod(&mut rng),
                    },
                );
                let _ = kernel.execute(&call);
            }
            3 => {
                let call = ApiCall::new(
                    app,
                    ApiCallKind::DeleteFlow {
                        dpid: pick_dpid(&mut rng),
                        flow_mod: flow_mod(&mut rng),
                    },
                );
                let _ = kernel.execute(&call);
            }
            // Reads, preferring the fast lane and falling back to the
            // deputy when the fast path declines to serve.
            4..=5 => {
                let call = ApiCall::new(
                    app,
                    match rng.gen_range(0u8..4) {
                        0 => ApiCallKind::ReadFlowTable {
                            dpid: pick_dpid(&mut rng),
                            query: FlowMatch::any(),
                        },
                        1 => ApiCallKind::ReadStatistics {
                            dpid: pick_dpid(&mut rng),
                            request: StatsRequest::Port(PortNo(1)),
                        },
                        2 => ApiCallKind::ReadStatistics {
                            dpid: pick_dpid(&mut rng),
                            request: StatsRequest::Table,
                        },
                        _ => ApiCallKind::ReadTopology,
                    },
                );
                if kernel.try_serve_read(&call).is_none() {
                    let _ = kernel.execute(&call);
                }
            }
            // Vectored packet-outs.
            6 => {
                let outs: Vec<(DatapathId, PacketOut)> = (0..rng.gen_range(2usize..5))
                    .map(|_| (pick_dpid(&mut rng), packet_out(&mut rng)))
                    .collect();
                let _ = kernel.execute_packet_outs(app, &outs);
            }
            // Atomic batches.
            7 => {
                let ops: Vec<FlowOp> = (0..rng.gen_range(2usize..5))
                    .map(|_| FlowOp {
                        dpid: pick_dpid(&mut rng),
                        flow_mod: flow_mod(&mut rng),
                    })
                    .collect();
                let _ = kernel.execute_batch(app, &ops);
            }
            // Subscriptions (admin holds pkt_in_event; others are denied).
            8 => {
                let call = ApiCall::new(
                    app,
                    ApiCallKind::Subscribe {
                        kind: EventKind::PacketIn,
                    },
                );
                let _ = kernel.execute(&call);
            }
            // Clock advance: expiries churn tracker state between checks.
            _ => {
                let _ = kernel.advance_clock(rng.gen_range(1u64..5));
            }
        }
    }

    let events = kernel.take_decision_trace();
    let decisions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Decision { .. }))
        .count();
    let mut text = write_trace(&events);
    if corrupt {
        // A fabricated Allow no manifest can justify: the tenant writing to
        // a switch outside its SWITCH 1,2 box at an absurd priority.
        let rogue = TraceEvent::Decision {
            lane: "fastlane".into(),
            allowed: true,
            call: ApiCall::new(
                TENANT,
                ApiCallKind::InsertFlow {
                    dpid: DatapathId(9),
                    flow_mod: FlowMod::add(FlowMatch::any(), Priority(60_000), ActionList::drop()),
                },
            ),
        };
        text.push_str(&write_event(&rogue));
        text.push('\n');
    }
    if let Err(e) = std::fs::write(&out_path, &text) {
        eprintln!("error: cannot write `{out_path}`: {e}");
        return ExitCode::from(3);
    }
    println!(
        "trace_gen: {commands} command(s), {decisions} decision(s), {} event(s){} -> {out_path}",
        events.len() + usize::from(corrupt),
        if corrupt {
            " (+1 injected rogue allow)"
        } else {
            ""
        },
    );
    ExitCode::SUCCESS
}
