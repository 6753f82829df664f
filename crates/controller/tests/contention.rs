//! Multi-threaded kernel invariants under deputy contention: 8 threads
//! hammering the decomposed kernel must lose no flows and keep the audit
//! sequence monotone and complete, whether the threads work disjoint
//! switches (no shared shard) or overlap on one switch (full contention).
//!
//! The `#[ignore]`d tier-2 test at the bottom asserts the paper's §IX-B2
//! scaling claim end-to-end (≥1.5× throughput from 1 → 4 deputies); it needs
//! real hardware parallelism, so it does not run in single-core CI.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdnshield_controller::app::{App, AppCtx};
use sdnshield_controller::audit::AuditOutcome;
use sdnshield_controller::events::Event;
use sdnshield_controller::isolation::{ControllerConfig, ShieldedController};
use sdnshield_controller::journal::Journal;
use sdnshield_controller::kernel::Kernel;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId, EventKind};
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{
    FlowMod, FlowModCommand, PacketIn, PacketInReason, StatsRequest,
};
use sdnshield_openflow::types::{BufferId, DatapathId, PortNo, Priority};

const THREADS: usize = 8;
const CALLS_PER_THREAD: usize = 250;

/// A kernel with one registered flow-writing app per worker thread.
fn kernel_with_apps(num_switches: usize) -> (Arc<Kernel>, Vec<AppId>) {
    let kernel = Arc::new(Kernel::new(
        Network::new(builders::linear(num_switches), 1_000_000),
        true,
    ));
    let manifest = parse_manifest("PERM insert_flow\nPERM read_flow_table").unwrap();
    let apps: Vec<AppId> = (1..=THREADS as u16).map(AppId).collect();
    for app in &apps {
        kernel
            .register_app(*app, &format!("worker-{}", app.0), &manifest)
            .unwrap();
    }
    (kernel, apps)
}

fn insert(app: AppId, dpid: DatapathId, tp_dst: u16) -> ApiCall {
    ApiCall::new(
        app,
        ApiCallKind::InsertFlow {
            dpid,
            flow_mod: FlowMod::add(
                FlowMatch::default().with_tp_dst(tp_dst),
                Priority(100),
                ActionList::output(PortNo(1)),
            ),
        },
    )
}

/// Audit invariant shared by both stress shapes: sequence numbers are
/// monotone, gap-free, and account for every issued call.
fn assert_audit_complete(kernel: &Kernel, expected_calls: u64) {
    let records = kernel.audit_records_since(0);
    assert_eq!(
        records.len() as u64,
        expected_calls,
        "every call audited exactly once"
    );
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64 + 1, "audit seq monotone and gap-free");
    }
}

#[test]
fn disjoint_switches_lose_no_flows() {
    // One switch per thread: threads never share a flow-table shard.
    let (kernel, apps) = kernel_with_apps(THREADS);
    std::thread::scope(|s| {
        for (t, app) in apps.iter().enumerate() {
            let kernel = Arc::clone(&kernel);
            let app = *app;
            s.spawn(move || {
                let dpid = DatapathId(t as u64 + 1);
                for i in 0..CALLS_PER_THREAD {
                    let (res, _) = kernel.execute(&insert(app, dpid, i as u16 + 1));
                    res.unwrap();
                }
            });
        }
    });
    for (t, app) in apps.iter().enumerate() {
        let dpid = DatapathId(t as u64 + 1);
        let owned = kernel.with_network(|n| n.switch(dpid).unwrap().table().count_owned_by(app.0));
        assert_eq!(owned, CALLS_PER_THREAD, "no lost flows on {dpid}");
    }
    assert_audit_complete(&kernel, (THREADS * CALLS_PER_THREAD) as u64);
}

#[test]
fn overlapping_switch_keeps_per_app_flows_intact() {
    // All threads hammer switch 1; distinct (app, tp_dst) identities mean
    // every insert must survive even under full shard contention.
    let (kernel, apps) = kernel_with_apps(2);
    let dpid = DatapathId(1);
    std::thread::scope(|s| {
        for (t, app) in apps.iter().enumerate() {
            let kernel = Arc::clone(&kernel);
            let app = *app;
            s.spawn(move || {
                for i in 0..CALLS_PER_THREAD {
                    // Unique match per (thread, i) so entries never collide.
                    let tp = (t * CALLS_PER_THREAD + i) as u16 + 1;
                    let (res, _) = kernel.execute(&insert(app, dpid, tp));
                    res.unwrap();
                }
            });
        }
    });
    let table_len = kernel.flow_count(dpid);
    assert_eq!(table_len, THREADS * CALLS_PER_THREAD, "no lost flows");
    for app in &apps {
        let owned = kernel.with_network(|n| n.switch(dpid).unwrap().table().count_owned_by(app.0));
        assert_eq!(owned, CALLS_PER_THREAD, "per-app ownership intact");
    }
    assert_audit_complete(&kernel, (THREADS * CALLS_PER_THREAD) as u64);
}

#[test]
fn mixed_readers_and_writers_stay_consistent() {
    // Writers insert while readers sweep the same switches with
    // read_flow_table; reads must never observe torn state (panics/errors)
    // and writes must all land.
    let (kernel, apps) = kernel_with_apps(4);
    let writers = &apps[..4];
    let readers = &apps[4..];
    std::thread::scope(|s| {
        for (t, app) in writers.iter().enumerate() {
            let kernel = Arc::clone(&kernel);
            let app = *app;
            s.spawn(move || {
                let dpid = DatapathId(t as u64 + 1);
                for i in 0..CALLS_PER_THREAD {
                    kernel.execute(&insert(app, dpid, i as u16 + 1)).0.unwrap();
                }
            });
        }
        for (t, app) in readers.iter().enumerate() {
            let kernel = Arc::clone(&kernel);
            let app = *app;
            s.spawn(move || {
                let dpid = DatapathId((t % 4) as u64 + 1);
                for _ in 0..CALLS_PER_THREAD {
                    let call = ApiCall::new(
                        app,
                        ApiCallKind::ReadFlowTable {
                            dpid,
                            query: FlowMatch::any(),
                        },
                    );
                    kernel.execute(&call).0.unwrap();
                }
            });
        }
    });
    for (t, app) in writers.iter().enumerate() {
        let dpid = DatapathId(t as u64 + 1);
        let owned = kernel.with_network(|n| n.switch(dpid).unwrap().table().count_owned_by(app.0));
        assert_eq!(owned, CALLS_PER_THREAD);
    }
    assert_audit_complete(&kernel, (THREADS * CALLS_PER_THREAD) as u64);
}

/// One flow insertion per packet-in — the end-to-end scaling workload.
struct Inserter {
    counter: u16,
}

impl App for Inserter {
    fn name(&self) -> &str {
        "inserter"
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        ctx.subscribe(EventKind::PacketIn).expect("subscribe");
    }

    fn on_event(&mut self, ctx: &AppCtx, event: &Event) {
        let Event::PacketIn { dpid, .. } = event else {
            return;
        };
        self.counter = self.counter.wrapping_add(1);
        let fm = FlowMod::add(
            FlowMatch::default().with_tp_dst(1 + (self.counter % 1024)),
            Priority(100),
            ActionList::output(PortNo(1)),
        );
        let _ = ctx.insert_flow(*dpid, fm);
    }
}

/// One write path makes rule quotas exact: a write's permission check and
/// its apply run under the same commit lock, so threads racing one app's
/// last quota slots can never overshoot it, even on a kernel with no
/// journal. Seeded: every round draws fresh, distinct matches per thread.
#[test]
fn rule_quota_is_exact_under_a_racing_storm() {
    const QUOTA: usize = 5;
    const ROUNDS: usize = 50;
    const PER_THREAD: usize = 3;

    let kernel = Kernel::new(Network::new(builders::linear(2), 1_000_000), true);
    let app = AppId(1);
    let manifest =
        parse_manifest(&format!("PERM insert_flow LIMITING MAX_RULE_COUNT {QUOTA}")).unwrap();
    kernel.register_app(app, "quota", &manifest).unwrap();
    let dpid = DatapathId(1);
    let mut rng = StdRng::seed_from_u64(0x5eed_0013);
    for round in 0..ROUNDS {
        let cursor = kernel.audit_records_since(0).last().map_or(0, |r| r.seq);
        // Call (t, i) owns the tp block `(t * PER_THREAD + i) * 64`, so every
        // match in the round is distinct.
        let plans: Vec<Vec<u16>> = (0..THREADS)
            .map(|t| {
                (0..PER_THREAD)
                    .map(|i| ((t * PER_THREAD + i) * 64) as u16 + rng.gen_range(1..64u16))
                    .collect()
            })
            .collect();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for tps in &plans {
                let (kernel, start) = (&kernel, &start);
                s.spawn(move || {
                    start.wait();
                    for &tp in tps {
                        let _ = kernel.execute(&insert(app, dpid, tp));
                    }
                });
            }
        });
        assert_eq!(kernel.flow_count(dpid), QUOTA, "round {round}: flows");
        let allowed = kernel
            .audit_records_since(cursor)
            .iter()
            .filter(|r| r.operation == "insert_flow" && r.outcome == AuditOutcome::Allowed)
            .count();
        assert_eq!(allowed, QUOTA, "round {round}: allowed insert audits");
        // Free the quota for the next round.
        kernel.reap_switch(dpid);
        assert_eq!(kernel.flow_count(dpid), 0);
    }
}

fn end_to_end_throughput(deputies: usize, events: usize) -> f64 {
    let c = ShieldedController::new_with_config(
        Network::new(builders::linear(4), 1_000_000),
        ControllerConfig {
            num_deputies: deputies,
            app_queue_capacity: events + 64,
            ..ControllerConfig::default()
        },
    );
    let manifest = parse_manifest("PERM pkt_in_event\nPERM insert_flow").unwrap();
    for _ in 0..4 {
        c.register(Box::new(Inserter { counter: 0 }), &manifest)
            .unwrap();
    }
    let mk_pi = |i: usize| PacketIn {
        buffer_id: BufferId::NO_BUFFER,
        in_port: PortNo(1),
        reason: PacketInReason::NoMatch,
        payload: bytes::Bytes::from(vec![i as u8; 8]),
    };
    // Warmup.
    for i in 0..32 {
        c.deliver_packet_in_nowait(DatapathId(i % 4 + 1), mk_pi(i as usize));
    }
    c.quiesce();
    let t = Instant::now();
    for i in 0..events {
        c.deliver_packet_in_nowait(DatapathId((i % 4) as u64 + 1), mk_pi(i));
    }
    c.quiesce();
    let elapsed = t.elapsed().as_secs_f64();
    c.shutdown();
    events as f64 / elapsed
}

/// Tier-2 (run explicitly with `cargo test -- --ignored` on a multi-core
/// host): the sharded kernel must scale end-to-end event throughput by
/// ≥1.5× from 1 to 4 deputies. Meaningless on single-core CI runners —
/// threads cannot run concurrently there — hence ignored by default.
#[test]
#[ignore = "tier-2 scaling assertion; needs >= 4 hardware threads"]
fn four_deputies_beat_one_by_1_5x() {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    assert!(
        parallelism >= 4,
        "host has {parallelism} hardware threads; scaling cannot materialize"
    );
    let events = 2_000;
    let one = end_to_end_throughput(1, events);
    let four = end_to_end_throughput(4, events);
    assert!(
        four >= 1.5 * one,
        "4 deputies: {four:.0} ev/s, 1 deputy: {one:.0} ev/s — speedup {:.2}x < 1.5x",
        four / one
    );
}

/// The i-th call of the fig9 mixed workload: 4 inserts, 2 flow-table reads,
/// 1 stats read, 1 strict delete per 8 calls, every 8th call hitting the
/// shared switch 1 (mirrors `sdnshield_bench::contention::build_call`).
fn mixed_call(app: AppId, own: DatapathId, i: usize) -> ApiCall {
    // Shared-switch inserts salt the match identity per app (same scheme
    // as the bench) so threads contend on the shard lock instead of
    // replacing each other's entries.
    let shared = i % 8 == 7;
    let tp = if shared {
        (i % 4096) as u16 + 1 + (app.0 - 1) * 4096
    } else {
        (i % 4096) as u16 + 1
    };
    let dpid = if shared { DatapathId(1) } else { own };
    let mk_insert = || {
        FlowMod::add(
            FlowMatch::default().with_tp_dst(tp),
            Priority(100),
            ActionList::output(PortNo(1)),
        )
    };
    let kind = match i % 8 {
        0 | 2 | 4 | 7 => ApiCallKind::InsertFlow {
            dpid,
            flow_mod: mk_insert(),
        },
        1 | 5 => ApiCallKind::ReadFlowTable {
            dpid,
            query: FlowMatch::any(),
        },
        3 => ApiCallKind::ReadStatistics {
            dpid,
            request: StatsRequest::Table,
        },
        _ => {
            let mut fm = mk_insert();
            fm.command = FlowModCommand::DeleteStrict;
            ApiCallKind::DeleteFlow { dpid, flow_mod: fm }
        }
    };
    ApiCall::new(app, kind)
}

/// Mixed-workload calls/sec with `deputies` threads driving the kernel.
/// With `fast_reads`, read calls take the lock-free RCU fast lane on the
/// issuing thread (the production `read_fast_path` shape), falling back to
/// the mediated path on epoch races.
fn mixed_throughput(
    kernel: &Arc<Kernel>,
    apps: &[AppId],
    deputies: usize,
    calls: usize,
    fast_reads: bool,
) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for (t, app) in apps.iter().take(deputies).enumerate() {
            let kernel = Arc::clone(kernel);
            let app = *app;
            s.spawn(move || {
                let own = DatapathId(t as u64 + 2);
                for i in 0..calls {
                    let call = mixed_call(app, own, i);
                    if fast_reads {
                        if let Some(res) = kernel.try_serve_read(&call) {
                            res.unwrap();
                            continue;
                        }
                    }
                    kernel.execute(&call).0.unwrap();
                }
            });
        }
    });
    (deputies * calls) as f64 / t.elapsed().as_secs_f64()
}

/// Builds the journaled kernel the tier-2 mixed gate runs against: writes
/// go through the flat-combining group commit with batched journal appends
/// (DESIGN.md §16).
fn group_commit_kernel() -> (Arc<Kernel>, Vec<AppId>, Arc<Journal>) {
    // Switch 1 is shared; switches 2..=5 are the four deputies' own.
    let kernel = Arc::new(Kernel::new(
        Network::new(builders::linear(5), 1_000_000),
        true,
    ));
    let journal = Arc::new(Journal::in_memory());
    kernel.attach_journal(Arc::clone(&journal));
    let manifest = parse_manifest(
        "PERM insert_flow\nPERM delete_flow\nPERM read_flow_table\nPERM read_statistics",
    )
    .unwrap();
    let apps: Vec<AppId> = (1..=4).map(AppId).collect();
    for app in &apps {
        kernel
            .register_app(*app, &format!("mixed-{}", app.0), &manifest)
            .unwrap();
    }
    (kernel, apps, journal)
}

/// Tier-2 companion to [`four_deputies_beat_one_by_1_5x`] for the *mixed*
/// read/write workload, measured on the production write pipeline: a
/// journaled kernel whose contended submits run the flat-combining group
/// commit (batched journal appends) while the
/// 3-in-8 read calls ride the lock-free RCU fast lane. This is the fig9
/// `group_commit` series, and it must scale ≥1.5× from 1 to 4 deputies.
/// Ignored by default — single-core CI cannot exhibit scaling.
#[test]
#[ignore = "tier-2 scaling assertion; needs >= 4 hardware threads"]
fn mixed_workload_scales_1p5x_at_4_deputies() {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    assert!(
        parallelism >= 4,
        "host has {parallelism} hardware threads; scaling cannot materialize"
    );
    let calls = 10_000;
    // Fresh kernel per measured batch so every row sees the same
    // table-size trajectory (a shared kernel would hand later rows the
    // tables earlier rows populated, understating their throughput).
    let best = |deputies: usize| {
        (0..3)
            .map(|_| {
                let (kernel, apps, journal) = group_commit_kernel();
                mixed_throughput(&kernel, &apps, deputies, 512, true); // warmup
                let cps = mixed_throughput(&kernel, &apps, deputies, calls, true);
                journal.compact(journal.last_seq());
                let stats = kernel.combiner_stats();
                assert!(stats.submitted > 0, "writes route through the combiner");
                cps
            })
            .fold(f64::MIN, f64::max)
    };
    let one = best(1);
    let four = best(4);
    assert!(
        four >= 1.5 * one,
        "4 deputies: {four:.0} calls/s, 1 deputy: {one:.0} calls/s — speedup {:.2}x < 1.5x",
        four / one
    );
}
