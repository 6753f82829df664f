//! Per-layer metrics: the fixed list the traced run reports, and the probes
//! that time one layer's public functions on the workload's own inputs.
//!
//! A probe repeats its calls until it has run at least [`PROBE_MIN`] and
//! reports nanoseconds per call; each probe is recorded as one span. A
//! metric of a layer the workload never exercises reads 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use sdnshield_apps::l2_learning::L2LearningSwitch;
use sdnshield_controller::api::{ApiResponse, FlowOp, TopologyView};
use sdnshield_controller::isolation::ShieldedController;
use sdnshield_controller::kernel::Kernel;
use sdnshield_controller::monolithic::MonolithicController;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::engine::{OwnershipTracker, PermissionEngine};
use sdnshield_core::perm::PermissionSet;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::messages::{FlowMod, OfBody, OfMessage, PacketOut};
use sdnshield_openflow::southbound::{StreamDecoder, READ_CHUNK};
use sdnshield_openflow::types::{DatapathId, Xid};
use sdnshield_openflow::wire;

use crate::audit::AuditWatch;
use crate::report::{median, Outcome};
use crate::trace::{self_times, Span, Tracer};
use crate::wire::Pools;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("openflow.southbound.decode_ns", "ns"),
    ("openflow.wire.encode_ns", "ns"),
    ("controller.southbound.frames_rx", "count"),
    ("controller.southbound.packet_ins", "count"),
    ("controller.southbound.packet_outs_tx", "count"),
    ("controller.southbound.flow_mods_tx", "count"),
    ("controller.southbound.shed", "count"),
    ("controller.southbound.protocol_errors", "count"),
    ("controller.southbound.echo_timeouts", "count"),
    ("controller.southbound.wire_tax_us", "us"),
    ("controller.isolation.deliver_us", "us"),
    ("controller.isolation.dispatch_wait_us", "us"),
    ("controller.isolation.crossing_us", "us"),
    ("controller.isolation.fast_path_hits", "count"),
    ("controller.isolation.event_shed", "count"),
    ("apps.handler_us", "us"),
    ("apps.burst_len", "count"),
    ("apps.alto.cheapest_path_us", "us"),
    ("core.engine.check_ns", "ns"),
    ("core.engine.call_only_frac", "1"),
    ("core.engine.denied", "count"),
    ("controller.kernel.execute_ns.insert_flow", "ns"),
    ("controller.kernel.execute_ns.read_topology", "ns"),
    ("controller.kernel.execute_ns.batch", "ns"),
    ("controller.kernel.execute_ns.packet_outs", "ns"),
    ("controller.kernel.combiner.mean_batch", "count"),
    ("controller.kernel.combiner.ring_fallbacks", "count"),
    ("controller.audit.seen", "count"),
    ("controller.audit.dropped", "count"),
    ("controller.audit.unread", "count"),
    ("netsim.network.apply_flow_mod_ns", "ns"),
    ("netsim.network.flow_entries", "count"),
    ("loadgen.late_p50_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_dropped", "count"),
];

/// Minimum run time of one probe.
const PROBE_MIN: Duration = Duration::from_millis(30);
/// Calls per vectored probe call (the app runtime's burst cap is larger;
/// this is a typical saturated burst).
const PROBE_BURST: usize = 64;

/// The per-layer values a traced run has measured.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Adds to a metric summed over the run's systems.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let sum = self.0.get(name).copied().unwrap_or(0.0) + value;
        self.set(name, sum);
    }

    /// Reports every per-layer metric, 0 for those not measured.
    pub fn emit(&self, o: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            o.metric(*name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    /// Counters the controller and its audit log expose, summed over the
    /// run's systems (the combiner's mean batch is the last system's).
    pub fn controller(&mut self, c: &ShieldedController, watch: &AuditWatch) {
        let combiner = c.combiner_stats();
        self.add(
            "controller.isolation.fast_path_hits",
            c.fast_path_hits() as f64,
        );
        self.add("controller.isolation.event_shed", watch.event_shed as f64);
        self.set(
            "controller.kernel.combiner.mean_batch",
            combiner.mean_batch(),
        );
        self.add(
            "controller.kernel.combiner.ring_fallbacks",
            combiner.ring_fallbacks as f64,
        );
        self.add("controller.audit.seen", watch.seen as f64);
        self.add(
            "controller.audit.dropped",
            AuditWatch::evicted(&c.kernel(), watch.seen) as f64,
        );
        self.add("controller.audit.unread", watch.unread as f64);
    }

    /// The permission engine on the workload's calls, through the same
    /// two-phase check the kernel makes.
    pub fn engine(
        &mut self,
        tr: &Tracer,
        engine: &PermissionEngine,
        calls: &[ApiCall],
        epoch: u64,
    ) {
        if calls.is_empty() {
            return;
        }
        let tracker = OwnershipTracker::new();
        let call_only = calls
            .iter()
            .filter(|c| engine.check_call_only(c, epoch).is_some())
            .count();
        let denied = calls
            .iter()
            .filter(|c| !engine.check_with(c, epoch, || &tracker).is_allowed())
            .count();
        let ns = per_call(tr, "core.engine.check", || {
            for c in calls {
                black_box(engine.check_with(c, epoch, || &tracker));
            }
            calls.len()
        });
        self.set("core.engine.check_ns", ns);
        self.set(
            "core.engine.call_only_frac",
            call_only as f64 / calls.len() as f64,
        );
        self.set("core.engine.denied", denied as f64);
    }
}

/// Repeats `f` (which returns the calls it made) for at least
/// [`PROBE_MIN`]; records one span and returns nanoseconds per call.
pub fn per_call(tr: &Tracer, name: &'static str, mut f: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let t0 = tr.now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < PROBE_MIN {
        calls += f();
    }
    let ns = start.elapsed().as_nanos() as f64 / calls as f64;
    let id = tr.id();
    tr.record(Span {
        name,
        start: t0,
        end: tr.now(),
        id,
        parent: 0,
        req: id,
        n: calls.min(u32::MAX as usize) as u32,
    });
    ns
}

/// Median self time (µs) of the spans named `name`.
pub fn self_time_p50(spans: &[Span], name: &str) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect();
    median(&mut v)
}

/// The stream decoder over the workload's ingress bytes: frame split,
/// packet-in view, owned copy — what the reactor does per packet-in.
pub fn decode_ns(tr: &Tracer, frames: &[&[u8]]) -> f64 {
    let stream: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
    per_call(tr, "openflow.southbound.decode", || {
        let mut dec = StreamDecoder::new();
        let mut n = 0;
        for chunk in stream.chunks(READ_CHUNK) {
            dec.extend(chunk);
            while let Ok(Some(frame)) = dec.next_frame() {
                if let Ok(view) = frame.packet_in() {
                    black_box(view.to_packet_in());
                }
                n += 1;
            }
        }
        n
    })
}

/// `encode_into` of the workload's responses.
pub fn encode_ns(tr: &Tracer, outs: &[(DatapathId, PacketOut)], ops: &[FlowOp]) -> f64 {
    let msgs: Vec<OfMessage> = outs
        .iter()
        .map(|(_, po)| OfBody::PacketOut(po.clone()))
        .chain(ops.iter().map(|op| OfBody::FlowMod(op.flow_mod.clone())))
        .map(|body| OfMessage::new(Xid(7), body))
        .collect();
    let mut buf = Vec::with_capacity(64 * 1024);
    per_call(tr, "openflow.wire.encode", || {
        for chunk in msgs.chunks(PROBE_BURST) {
            buf.clear();
            for m in chunk {
                black_box(wire::encode_into(m, &mut buf));
            }
        }
        msgs.len()
    })
}

/// The mediated calls the L2 app makes for the workload's packet-ins.
pub fn wire_calls(app: AppId, outs: &[(DatapathId, PacketOut)], ops: &[FlowOp]) -> Vec<ApiCall> {
    outs.iter()
        .map(|(dpid, po)| ApiCallKind::SendPacketOut {
            dpid: *dpid,
            packet_out: po.clone(),
        })
        .chain(ops.iter().map(|op| ApiCallKind::InsertFlow {
            dpid: op.dpid,
            flow_mod: op.flow_mod.clone(),
        }))
        .map(|kind| ApiCall::new(app, kind))
        .collect()
}

/// A standalone kernel with one app under the workload's manifest, in
/// absorb mode, no journal — the kernel's execute paths without threads.
pub struct KernelProbe {
    kernel: Kernel,
    app: AppId,
}

impl KernelProbe {
    pub fn new(switches: usize, manifest: &PermissionSet) -> Self {
        let kernel = Kernel::new(Network::new(builders::linear(switches), 65_536), true);
        kernel.set_absorb_packet_outs(true);
        let app = AppId(1);
        kernel
            .register_app(app, "probe", manifest)
            .expect("probe app registers");
        KernelProbe { kernel, app }
    }

    /// `execute_packet_outs` in bursts; ns per packet-out.
    pub fn packet_outs(&self, tr: &Tracer, outs: &[(DatapathId, PacketOut)]) -> f64 {
        if outs.is_empty() {
            return 0.0;
        }
        per_call(tr, "controller.kernel.execute.packet_outs", || {
            for chunk in outs.chunks(PROBE_BURST) {
                let _ = black_box(self.kernel.execute_packet_outs(self.app, chunk));
            }
            outs.len()
        })
    }

    /// `execute_batch` in bursts, after one untimed pass fills the tables
    /// to the workload's end state; ns per flow-mod.
    pub fn batch(&self, tr: &Tracer, ops: &[FlowOp]) -> f64 {
        if ops.is_empty() {
            return 0.0;
        }
        for chunk in ops.chunks(PROBE_BURST) {
            let _ = self.kernel.execute_batch(self.app, chunk);
        }
        per_call(tr, "controller.kernel.execute.batch", || {
            for chunk in ops.chunks(PROBE_BURST) {
                let _ = black_box(self.kernel.execute_batch(self.app, chunk));
            }
            ops.len()
        })
    }

    /// Singleton `execute` calls; ns per call.
    pub fn execute(&self, tr: &Tracer, name: &'static str, kinds: &[ApiCallKind]) -> f64 {
        let calls: Vec<ApiCall> = kinds
            .iter()
            .map(|k| ApiCall::new(self.app, k.clone()))
            .collect();
        for c in &calls {
            let _ = self.kernel.execute(c);
        }
        per_call(tr, name, || {
            for c in &calls {
                let _ = black_box(self.kernel.execute(c));
            }
            calls.len()
        })
    }

    /// The app's topology view.
    pub fn topology(&self) -> TopologyView {
        match self
            .kernel
            .execute(&ApiCall::new(self.app, ApiCallKind::ReadTopology))
            .0
        {
            Ok(ApiResponse::Topology(view)) => view,
            other => panic!("read_topology on the probe kernel: {other:?}"),
        }
    }
}

/// Nanoseconds per packet-in through the monolithic controller (L2 calling
/// the kernel directly, no thread crossing) on the workload's stream, after
/// its warm-up.
pub fn monolithic_ns(tr: &Tracer, manifest: &PermissionSet, pools: &[Pools]) -> f64 {
    let c = MonolithicController::new(Network::new(builders::linear(pools.len()), 65_536));
    c.kernel().set_absorb_packet_outs(true);
    c.register(Box::new(L2LearningSwitch::new()), manifest);
    for p in pools {
        for i in &p.warm {
            c.deliver_packet_in(p.dpid, i.pi.clone());
        }
    }
    per_call(tr, "apps.l2.compute", || {
        for p in pools {
            for i in &p.timed {
                c.deliver_packet_in(p.dpid, i.pi.clone());
            }
        }
        pools.iter().map(|p| p.timed.len()).sum()
    })
}

/// Every flow entry the live network holds, as the add flow-mods that
/// would recreate it.
pub fn live_flow_mods(kernel: &Kernel, switches: u64) -> Vec<(DatapathId, FlowMod)> {
    kernel.with_network(|n| {
        (1..=switches)
            .map(DatapathId)
            .flat_map(|d| {
                n.switch(d)
                    .map(|sw| {
                        sw.table()
                            .iter()
                            .map(|e| {
                                let fm = FlowMod::add(
                                    e.flow_match.clone(),
                                    e.priority,
                                    e.actions.clone(),
                                )
                                .with_cookie(e.cookie)
                                .with_idle_timeout(e.idle_timeout);
                                (d, fm)
                            })
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default()
            })
            .collect()
    })
}

/// `Network::apply_flow_mod` at the workload's end-state table size: the
/// live entries are installed in a fresh network, then re-applied
/// (replacing themselves); ns per flow-mod. 0 when the workload installs
/// no flows.
pub fn apply_flow_mod_ns(tr: &Tracer, switches: usize, mods: &[(DatapathId, FlowMod)]) -> f64 {
    if mods.is_empty() {
        return 0.0;
    }
    let net = Network::new(builders::linear(switches), 65_536);
    for (d, fm) in mods {
        net.apply_flow_mod(*d, fm).expect("live entry re-applies");
    }
    per_call(tr, "netsim.network.apply_flow_mod", || {
        for (d, fm) in mods {
            black_box(net.apply_flow_mod(*d, fm).ok());
        }
        mods.len()
    })
}
