//! The `alto_chain` workload: the paper's second scenario, in process.
//!
//! Each `deliver_topology_change` wakes the ALTO service, which reads the
//! topology and synchronously publishes a cost map; the TE app reads the
//! topology and installs the cheapest path across linear(32) with 31
//! singleton `insert_flow` calls. A closed loop keeps one chain
//! outstanding. No wire layer runs.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdnshield_apps::alto::{cheapest_path, AltoService, TrafficEngApp, ALTO_MANIFEST, TE_MANIFEST};
use sdnshield_controller::app::App;
use sdnshield_controller::isolation::{ControllerConfig, ShieldedController};
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::{FlowMatch, MaskedIpv4};
use sdnshield_openflow::messages::FlowMod;
use sdnshield_openflow::types::{DatapathId, Ipv4, Priority};

use crate::audit::AuditWatch;
use crate::probes::{self, KernelProbe, Layers};
use crate::report::{median, percentile, Outcome};
use crate::trace::{Span, TracedApp, Tracer};
use crate::Args;

const SWITCHES: u64 = 32;
/// Rules the TE app installs per chain: one per hop of the 32-switch path.
const RULES: u64 = SWITCHES - 1;
/// Untimed chains at the end of set-up.
const WARM_CHAINS: u64 = 32;
/// Chains between audit reads: their ~35 records each stay well inside
/// the log's 65,536-record retention.
const AUDIT_EVERY: u64 = 512;
/// The prefix the TE app steers.
const TE_DST: Ipv4 = Ipv4(10 << 24);
const TE_PREFIX: u8 = 8;

struct System {
    controller: ShieldedController,
    te: AppId,
    watch: AuditWatch,
    /// Chains delivered so far, warm-up included.
    chains: u64,
}

fn traced(app: Box<dyn App>, tracer: Option<&Arc<Tracer>>, span: &'static str) -> Box<dyn App> {
    match tracer {
        Some(t) => Box::new(TracedApp::new(app, Arc::clone(t), span)),
        None => app,
    }
}

impl System {
    /// Default configuration, absorb mode, no journal; the ALTO service and
    /// the TE app registered as in the paper's scenario.
    fn start(tracer: Option<&Arc<Tracer>>) -> Self {
        let network = Network::new(builders::linear(SWITCHES as usize), 65_536);
        let controller = ShieldedController::new_with_config(network, ControllerConfig::default());
        controller.kernel().set_absorb_packet_outs(true);
        controller
            .register(
                traced(Box::new(AltoService::new()), tracer, "apps.alto.handler"),
                &parse_manifest(ALTO_MANIFEST).expect("ALTO manifest parses"),
            )
            .expect("ALTO registers");
        let te = TrafficEngApp::new(TE_DST, TE_PREFIX, DatapathId(1), DatapathId(SWITCHES));
        let te = controller
            .register(
                traced(Box::new(te), tracer, "apps.te.handler"),
                &parse_manifest(TE_MANIFEST).expect("TE manifest parses"),
            )
            .expect("TE registers");
        System {
            controller,
            te,
            watch: AuditWatch::default(),
            chains: 0,
        }
    }

    /// One chain; returns its latency (µs).
    fn chain(&mut self, tracer: Option<&Arc<Tracer>>) -> f64 {
        self.chains += 1;
        let tr = tracer.filter(|t| t.on());
        let id = tr.map_or(0, |t| {
            let id = t.id();
            t.current.store(id, Ordering::Release);
            id
        });
        let t0 = Instant::now();
        self.controller
            .deliver_topology_change("perfbench cost update");
        let t1 = Instant::now();
        if let Some(t) = tr {
            t.current.store(0, Ordering::Release);
            t.record(Span {
                name: "controller.isolation.deliver",
                start: t.ns(t0),
                end: t.ns(t1),
                id,
                parent: 0,
                req: id,
                n: 1,
            });
        }
        (t1 - t0).as_secs_f64() * 1e6
    }

    /// Runs `n` chains, or chains for `length`, reading the audit records
    /// they leave every [`AUDIT_EVERY`] chains, untimed (a read scans the
    /// whole retained log). A chain is failed for each 31 inserts short of
    /// 31 per chain — a denied insert or a shed event costs its chain.
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>, n: Option<u64>, length: Duration) -> Pass {
        let mut p = Pass::default();
        let before = self.watch.insert_flow_allowed;
        let kernel = self.controller.kernel();
        let start = Instant::now();
        let mut untimed = Duration::ZERO;
        loop {
            let chains = p.lat_us.len() as u64;
            match n {
                Some(n) if chains >= n => break,
                None if start.elapsed() - untimed >= length => break,
                _ => {}
            }
            p.lat_us.push(self.chain(tracer));
            if chains % AUDIT_EVERY == AUDIT_EVERY - 1 {
                let t = Instant::now();
                self.watch.poll(&kernel);
                untimed += t.elapsed();
            }
        }
        p.secs = (start.elapsed() - untimed).as_secs_f64();
        p.lat_us.sort_by(f64::total_cmp);
        self.watch.poll(&kernel);
        let chains = p.lat_us.len() as u64;
        let missing = (RULES * chains).saturating_sub(self.watch.insert_flow_allowed - before);
        p.failed = chains.min(missing.div_ceil(RULES));
        p.ok = chains - p.failed;
        p
    }
}

#[derive(Default)]
struct Pass {
    lat_us: Vec<f64>,
    ok: u64,
    failed: u64,
    secs: f64,
}

impl Pass {
    fn throughput(&self) -> f64 {
        self.ok as f64 / self.secs
    }
}

/// Runs `alto_chain`: [`Args::systems`] systems, each set up, measured
/// for one slice, verified and shut down.
pub fn run(args: &Args, duration: Duration) -> Outcome {
    let tracer = args.trace.then(|| Tracer::new(false));
    let tr = tracer.as_ref();
    let systems = args.systems();
    // Traced systems run an extra, untraced slice.
    let slice = duration / (systems * if args.trace { 2 } else { 1 });
    let mut o = Outcome::default();
    let (mut setup_s, mut tput, mut p50, mut p99) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut overhead, mut deliver) = (Vec::new(), Vec::new());
    let mut m = Layers::default();
    let mut last = None;
    let (mut shed, mut unread) = (0, 0);
    for rep in 0..systems {
        let t0 = Instant::now();
        let mut sys = System::start(tr);
        let warm_failed = sys.pass(tr, Some(WARM_CHAINS), Duration::ZERO).failed;
        setup_s.push(t0.elapsed().as_secs_f64());
        o.check(
            "warm-up chains all completed",
            warm_failed == 0,
            format!("failed={warm_failed}"),
        );
        let timed = match tr {
            None => sys.pass(None, None, slice),
            Some(t) => {
                // Untraced, then traced, on the same system: the throughput
                // difference is the tracing overhead.
                let off = sys.pass(tr, None, slice);
                t.set_on(true);
                let on = sys.pass(tr, None, slice);
                t.set_on(false);
                if off.throughput() > 0.0 {
                    overhead.push((off.throughput() - on.throughput()) / off.throughput() * 100.0);
                }
                o.attempted += off.ok + off.failed;
                o.failed += off.failed;
                deliver.extend_from_slice(&on.lat_us);
                on
            }
        };
        tput.push(timed.throughput());
        p50.push(percentile(&timed.lat_us, 0.5));
        p99.push(percentile(&timed.lat_us, 0.99));
        o.attempted += timed.ok + timed.failed;
        o.failed += timed.failed;
        if rep == 0 {
            o.peak_rss_mb = crate::report::peak_rss_mb();
        }
        verify(&sys, &mut o);
        shed += sys.watch.event_shed;
        unread += sys.watch.unread;
        if tr.is_some() {
            m.controller(&sys.controller, &sys.watch);
            if rep + 1 == systems {
                let kernel = sys.controller.kernel();
                let engine = kernel.engine_snapshot(sys.te).expect("TE engine");
                let live = probes::live_flow_mods(&kernel, SWITCHES);
                last = Some((sys.te, engine, kernel.context_epoch(), live));
            }
        }
        sys.controller.shutdown();
    }
    eprintln!("per system: throughput {tput:.1?} p50 {p50:.1?} p99 {p99:.1?} setup {setup_s:.4?}");
    o.record.push((
        "shedding".into(),
        format!("{{\"event_shed\": {shed}, \"audit_unread\": {unread}}}"),
    ));
    let Some(t) = tr else {
        o.end_to_end(&tput, &p50, &p99, &setup_s);
        return o;
    };
    let (te, engine, epoch, live) = last.expect("last system inspected");
    let overhead_pct = median(&mut overhead);
    deliver.sort_by(f64::total_cmp);

    // The TE app's calls, rebuilt from its own topology view.
    let kp = KernelProbe::new(
        SWITCHES as usize,
        &parse_manifest(TE_MANIFEST).expect("TE manifest parses"),
    );
    let view = kp.topology();
    let costs: Vec<_> = view
        .links
        .iter()
        .enumerate()
        .map(|(i, (a, b))| (*a, *b, 1 + (i as u32 % 7)))
        .collect();
    let (from, to) = (DatapathId(1), DatapathId(SWITCHES));
    let path = cheapest_path(&view.links, &costs, from, to).expect("linear path exists");
    let rule = FlowMatch {
        ip_dst: Some(MaskedIpv4::prefix(TE_DST, TE_PREFIX)),
        ..FlowMatch::default()
    };
    let inserts: Vec<ApiCallKind> = path
        .windows(2)
        .map(|hop| ApiCallKind::InsertFlow {
            dpid: hop[0],
            flow_mod: FlowMod::add(
                rule.clone(),
                Priority(200),
                ActionList::output(view.port_toward(hop[0], hop[1]).expect("adjacent")),
            ),
        })
        .collect();
    let read_ns = kp.execute(
        t,
        "controller.kernel.execute.read_topology",
        &[ApiCallKind::ReadTopology],
    );
    let insert_ns = kp.execute(t, "controller.kernel.execute.insert_flow", &inserts);
    drop(kp);
    let path_ns = probes::per_call(t, "apps.alto.cheapest_path", || {
        std::hint::black_box(cheapest_path(&view.links, &costs, from, to));
        1
    });
    m.set("controller.kernel.execute_ns.read_topology", read_ns);
    m.set("controller.kernel.execute_ns.insert_flow", insert_ns);
    m.set("apps.alto.cheapest_path_us", path_ns / 1e3);
    let calls: Vec<ApiCall> = std::iter::once(ApiCallKind::ReadTopology)
        .chain(inserts)
        .map(|k| ApiCall::new(te, k))
        .collect();
    m.engine(t, &engine, &calls, epoch);
    m.set("netsim.network.flow_entries", live.len() as f64);
    m.set(
        "netsim.network.apply_flow_mod_ns",
        probes::apply_flow_mod_ns(t, SWITCHES as usize, &live),
    );

    let spans = t.spans();
    m.set("controller.isolation.deliver_us", percentile(&deliver, 0.5));
    m.set(
        "controller.isolation.dispatch_wait_us",
        probes::self_time_p50(&spans, "controller.isolation.deliver"),
    );
    let te: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "apps.te.handler")
        .collect();
    let mut dur: Vec<f64> = te.iter().map(|s| s.dur_ns() as f64 / 1e3).collect();
    m.set("apps.handler_us", median(&mut dur));
    let items: u64 = te.iter().map(|s| u64::from(s.n)).sum();
    m.set("apps.burst_len", items as f64 / te.len().max(1) as f64);
    // Per crossing: the TE handler minus the kernel work of its calls and
    // its path computation, over its 32 crossings (one read, 31 inserts).
    let compute_ns = read_ns + RULES as f64 * insert_ns + path_ns;
    let crossings = (RULES + 1) as f64;
    let mut crossing: Vec<f64> = te
        .iter()
        .map(|s| ((s.dur_ns() as f64 - compute_ns) / crossings / 1e3).max(0.0))
        .collect();
    m.set("controller.isolation.crossing_us", median(&mut crossing));
    m.set("trace.overhead_pct", overhead_pct);
    m.set("trace.spans_dropped", t.dropped() as f64);
    m.emit(&mut o);
    crate::trace::write_dump(t, &args.workload, args.seed, overhead_pct);
    o
}

/// End-state checks: the TE path spans 31 rules (one per switch but the
/// last), every chain's inserts were allowed, nothing was denied or shed.
fn verify(sys: &System, o: &mut Outcome) {
    let chains = sys.chains;
    let kernel = sys.controller.kernel();
    let flows: Vec<usize> = (1..=SWITCHES)
        .map(|d| kernel.flow_count(DatapathId(d)))
        .collect();
    let path_ok = flows[..RULES as usize].iter().all(|&n| n == 1) && flows[RULES as usize] == 0;
    o.check(
        "TE path spans 31 rules",
        path_ok,
        format!("flows per switch {flows:?}"),
    );
    let w = &sys.watch;
    o.check("no denials", w.denied == 0, format!("denied={}", w.denied));
    o.check(
        "31 allowed inserts per chain",
        w.insert_flow_allowed == RULES * chains || w.denied + w.event_shed > 0,
        format!(
            "insert_flow allowed={} chains={chains}",
            w.insert_flow_allowed
        ),
    );
}
