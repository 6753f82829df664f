//! Figure 5: permission-engine checking throughput on a single core, by
//! manifest complexity and API-call shape, for the two check paths
//! (DESIGN.md §5):
//!
//! * `interpreted` — AST interpretation (the differential oracle),
//! * `plan`        — the compiled check plan `PermissionEngine::check` runs
//!   (static literals folded, terms and literals ordered cheapest-first).
//!
//! Also measures the batched deputy API (`submit_batch`) against singleton
//! calls through a real `ShieldedController` channel. Emits
//! `BENCH_fig5.json`.
//!
//! Run with: `cargo run --release -p sdnshield-bench --bin fig5_table`
//! (`--fast` shrinks the traces for CI smoke runs).

use std::fmt::Write as _;
use std::fs;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sdnshield_bench::fig5::{gen_manifest, gen_trace, Complexity, TraceCall, GRANTED_NET};
use sdnshield_controller::api::FlowOp;
use sdnshield_controller::app::{App, AppCtx};
use sdnshield_controller::isolation::ShieldedController;
use sdnshield_core::api::ApiCall;
use sdnshield_core::engine::PermissionEngine;
use sdnshield_core::eval::NullContext;
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::FlowMod;
use sdnshield_openflow::types::{DatapathId, Ipv4, PortNo, Priority};

const TIERS: [&str; 2] = ["interpreted", "plan"];
const BATCH: usize = 64;

/// checks/sec for each tier, in `TIERS` order.
fn tier_throughputs(engine: &PermissionEngine, trace: &[ApiCall]) -> [f64; 2] {
    [
        throughput(trace, |c| {
            engine.check_interpreted(c, &NullContext).is_allowed()
        }),
        throughput(trace, |c| engine.check(c, &NullContext).is_allowed()),
    ]
}

/// Runs the trace once for warm-up, then measures checks/second.
fn throughput(trace: &[ApiCall], mut check: impl FnMut(&ApiCall) -> bool) -> f64 {
    let mut allowed = 0usize;
    for c in trace.iter().take(10_000) {
        allowed += check(c) as usize;
    }
    let start = Instant::now();
    for c in trace {
        allowed += check(c) as usize;
    }
    let elapsed = start.elapsed();
    // Keep `allowed` live so the loop cannot be optimized out.
    assert!(allowed > 0);
    trace.len() as f64 / elapsed.as_secs_f64()
}

/// Times `reps` rounds of 64 singleton `insert_flow` calls and 64-op
/// `submit_batch` calls from inside a deputy-routed app, reporting per-op
/// nanoseconds. The same (match, priority) pairs repeat every round, so the
/// flow table and ownership tracker replace entries instead of growing.
struct DeputyBench {
    reps: usize,
    out: Arc<Mutex<Option<(f64, f64)>>>,
}

impl App for DeputyBench {
    fn name(&self) -> &str {
        "deputy-bench"
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        let dpid = DatapathId(1);
        let mods: Vec<FlowMod> = (0..BATCH)
            .map(|i| {
                FlowMod::add(
                    FlowMatch::default()
                        .with_ip_dst(Ipv4(GRANTED_NET.0 | (i as u32 + 1)))
                        .with_tp_dst(80),
                    Priority(100),
                    ActionList::output(PortNo(1)),
                )
            })
            .collect();
        let ops = |mods: &[FlowMod]| -> Vec<FlowOp> {
            mods.iter()
                .map(|fm| FlowOp {
                    dpid,
                    flow_mod: fm.clone(),
                })
                .collect()
        };
        // Warm-up: one round each way.
        for fm in &mods {
            ctx.insert_flow(dpid, fm.clone()).expect("warmup insert");
        }
        ctx.submit_batch(ops(&mods)).expect("warmup batch");

        let start = Instant::now();
        for _ in 0..self.reps {
            for fm in &mods {
                ctx.insert_flow(dpid, fm.clone()).expect("singleton insert");
            }
        }
        let singleton_ns = start.elapsed().as_nanos() as f64 / (self.reps * BATCH) as f64;

        let start = Instant::now();
        for _ in 0..self.reps {
            ctx.submit_batch(ops(&mods)).expect("batch insert");
        }
        let batch_ns = start.elapsed().as_nanos() as f64 / (self.reps * BATCH) as f64;

        *self.out.lock().unwrap() = Some((singleton_ns, batch_ns));
    }
}

fn measure_deputy(reps: usize) -> (f64, f64) {
    let controller = ShieldedController::new(Network::new(builders::linear(3), 1024), 2);
    let out = Arc::new(Mutex::new(None));
    controller
        .register(
            Box::new(DeputyBench {
                reps,
                out: Arc::clone(&out),
            }),
            &parse_manifest("PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0").unwrap(),
        )
        .expect("register bench app");
    let result = out.lock().unwrap().take().expect("bench app ran");
    controller.shutdown();
    result
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let (trace_len, deputy_reps) = if fast { (20_000, 20) } else { (200_000, 200) };

    println!("Figure 5 — permission engine throughput (single core)");
    println!("trace: {trace_len} calls, 5% violations\n");
    println!(
        "{:<18} {:<10} {:>13} {:>13} {:>12}",
        "call", "complexity", "interp (k/s)", "plan (k/s)", "latency(ns)"
    );

    // Section 1 — both check paths on the paper's uniform random trace.
    let mut uniform: Vec<(&str, &str, [f64; 2])> = Vec::new();
    for shape in [TraceCall::InsertFlow, TraceCall::ReadStatistics] {
        for complexity in Complexity::ALL {
            // The Small manifest only grants insert_flow; skip the stats
            // series there (every call would short-circuit at the token
            // gate, which is not the filter cost being measured).
            if shape == TraceCall::ReadStatistics && complexity == Complexity::Small {
                continue;
            }
            let engine = PermissionEngine::compile(&gen_manifest(complexity, 42));
            let trace = gen_trace(shape, trace_len, 50, 7);
            let tiers = tier_throughputs(&engine, &trace);
            let shape_label = match shape {
                TraceCall::InsertFlow => "insert_flow",
                TraceCall::ReadStatistics => "read_statistics",
            };
            println!(
                "{:<18} {:<10} {:>13.0} {:>13.0} {:>12.0}",
                shape_label,
                complexity.label(),
                tiers[0] / 1e3,
                tiers[1] / 1e3,
                1e9 / tiers[1],
            );
            uniform.push((shape_label, complexity.label(), tiers));
        }
    }

    // Section 2 — batched vs singleton deputy calls through a live
    // controller channel.
    let (singleton_ns, batch_ns) = measure_deputy(deputy_reps);
    let batch_speedup = singleton_ns / batch_ns;
    println!("\ndeputy channel, {BATCH} flow-mods x {deputy_reps} rounds:");
    println!("  singleton calls {singleton_ns:>10.0} ns/op");
    println!("  submit_batch    {batch_ns:>10.0} ns/op");
    println!("  batch vs singleton: {batch_speedup:.2}x");

    println!(
        "\npaper reference: >1M checks/s on a 2012-class core; checking latency\n\
         always below one microsecond; throughput decreases with manifest\n\
         complexity (Fig 5)."
    );

    let json = to_json(trace_len, &uniform, singleton_ns, batch_ns);
    fs::write("BENCH_fig5.json", &json).expect("write BENCH_fig5.json");
    println!("\nwrote BENCH_fig5.json");
}

/// Hand-rolled JSON (the workspace deliberately carries no serde).
fn to_json(
    trace_len: usize,
    uniform: &[(&str, &str, [f64; 2])],
    singleton_ns: f64,
    batch_ns: f64,
) -> String {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let tiers_obj = |s: &mut String, indent: &str, tiers: &[f64; 2]| {
        for (i, (label, t)) in TIERS.iter().zip(tiers.iter()).enumerate() {
            let comma = if i + 1 < TIERS.len() { "," } else { "" };
            let _ = writeln!(s, "{indent}\"{label}\": {t:.0}{comma}");
        }
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"fig5_fastpath\",\n");
    s.push_str("  \"unit\": \"checks_per_sec\",\n");
    let _ = writeln!(s, "  \"host_parallelism\": {parallelism},");
    let _ = writeln!(s, "  \"trace_len\": {trace_len},");
    s.push_str("  \"uniform_trace\": {\n");
    for (i, (shape, complexity, tiers)) in uniform.iter().enumerate() {
        let _ = writeln!(s, "    \"{shape}/{complexity}\": {{");
        tiers_obj(&mut s, "      ", tiers);
        let comma = if i + 1 < uniform.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    s.push_str("  },\n");
    let _ = writeln!(s, "  \"deputy_singleton_ns_per_op\": {singleton_ns:.0},");
    let _ = writeln!(s, "  \"deputy_batch{BATCH}_ns_per_op\": {batch_ns:.0},");
    let _ = writeln!(
        s,
        "  \"deputy_batch_vs_singleton\": {:.2}",
        singleton_ns / batch_ns
    );
    s.push_str("}\n");
    s
}
