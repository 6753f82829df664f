//! End-to-end tests for the southbound wire path over loopback TCP: the
//! HELLO/FEATURES handshake, PACKET_INs flowing through the full mediation
//! pipeline (deputy, permission engine, audit, decision trace), echo
//! liveness with flow reaping, and tolerance of unknown message types.
//!
//! The liveness and tolerance tests drive `Reactor::poll_once` directly so
//! the virtual clock is deterministic, parking in `Reactor::wait` between
//! sweeps as the reactor thread does; the mediation and wall-clock liveness
//! tests use the spawned reactor thread exactly as production does.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use sdnshield::controller::audit::AuditOutcome;
use sdnshield::controller::southbound::{Reactor, SouthboundConfig, LIVENESS_PAYLOAD, TICK};
use sdnshield::openflow::actions::ActionList;
use sdnshield::openflow::messages::{OfBody, OfMessage, PacketIn, PacketInReason, PacketOut};
use sdnshield::openflow::southbound::StreamDecoder;
use sdnshield::openflow::types::{BufferId, DatapathId, PortNo, Xid};
use sdnshield::openflow::wire::{self, msg_type, HEADER_LEN, WIRE_VERSION};
use sdnshield::wirebench::{serve_l2, SwitchConn, WireEvent};

fn arp_packet_in() -> PacketIn {
    use sdnshield::openflow::packet::EthernetFrame;
    use sdnshield::openflow::types::{EthAddr, Ipv4};
    // A broadcast ARP who-has, built by the same frame codec the data plane
    // parses — the L2 app floods it (one PACKET_OUT, no FLOW_MOD).
    let frame = EthernetFrame::arp_request(
        EthAddr::from_u64(0x02_00_00_00_00_01),
        Ipv4::new(10, 0, 0, 1),
        Ipv4::new(10, 0, 0, 2),
    );
    PacketIn {
        buffer_id: BufferId::NO_BUFFER,
        in_port: PortNo(1),
        reason: PacketInReason::NoMatch,
        payload: frame.to_bytes(),
    }
}

/// Raw frame writer for the deterministic tests: encode and push a body
/// with an explicit xid straight onto the socket.
fn send_raw(stream: &mut TcpStream, xid: u32, body: &OfBody) {
    let mut buf = Vec::new();
    wire::encode_into(&OfMessage::new(Xid(xid), body.clone()), &mut buf);
    stream.write_all(&buf).expect("socket write");
}

/// Pumps `poll_once` until the decoder yields a frame or `max_ticks` pass,
/// parking in the reactor's readiness wait (with the production [`TICK`]
/// backstop) whenever nothing has arrived yet.
fn pump_until_frame(
    reactor: &mut Reactor,
    tick: &mut u64,
    stream: &mut TcpStream,
    dec: &mut StreamDecoder,
    max_ticks: u64,
) -> Option<(u8, Xid, Vec<u8>)> {
    let deadline = Instant::now() + Duration::from_secs(10);
    for _ in 0..max_ticks {
        *tick += 1;
        reactor.poll_once(*tick);
        match dec.read_from(stream) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Nothing on the wire yet: park until the peer, a deputy's
                // egress or the tick gives the reactor work.
                reactor.wait(TICK).expect("reactor wait");
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => panic!("socket read: {e}"),
        }
        if let Some(f) = dec.next_frame().expect("valid stream") {
            return Some((f.ty, f.xid, f.body.to_vec()));
        }
        if Instant::now() > deadline {
            break;
        }
    }
    None
}

/// Deterministic fixture: a served L2 controller with the reactor polled by
/// hand, plus one raw connection that has completed the handshake.
fn handshaken_raw_conn(
    config: SouthboundConfig,
) -> (
    Arc<sdnshield::controller::ShieldedController>,
    Reactor,
    u64,
    TcpStream,
    StreamDecoder,
) {
    use sdnshield::apps::{L2LearningSwitch, L2_MANIFEST};
    use sdnshield::core::parse_manifest;
    use sdnshield::netsim::network::Network;
    use sdnshield::netsim::topology::builders;

    let network = Network::new(builders::linear(2), 1024);
    let controller = Arc::new(sdnshield::controller::ShieldedController::new(network, 2));
    controller.kernel().set_absorb_packet_outs(true);
    controller
        .register(
            Box::new(L2LearningSwitch::new()),
            &parse_manifest(L2_MANIFEST).unwrap(),
        )
        .unwrap();
    let mut reactor = Reactor::bind("127.0.0.1:0", Arc::clone(&controller), config).unwrap();
    let mut tick = 0u64;
    let (stream, dec) = handshake_switch_1(&mut reactor, &mut tick);
    assert_eq!(
        controller.kernel().with_network(|n| n.wire_egress_count()),
        1
    );
    (controller, reactor, tick, stream, dec)
}

/// Connects a raw socket to the hand-polled reactor and completes the
/// HELLO/FEATURES handshake as datapath 1.
fn handshake_switch_1(reactor: &mut Reactor, tick: &mut u64) -> (TcpStream, StreamDecoder) {
    let handshakes = reactor.stats().handshakes;
    let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_nonblocking(true).unwrap();
    let mut dec = StreamDecoder::new();

    send_raw(&mut stream, 1, &OfBody::Hello);
    // The reactor greets with its own HELLO before the FEATURES_REQUEST.
    let xid = loop {
        let (ty, xid, _) = pump_until_frame(reactor, tick, &mut stream, &mut dec, 1000)
            .expect("server FEATURES_REQUEST");
        if ty == msg_type::FEATURES_REQUEST {
            break xid;
        }
        assert_eq!(ty, msg_type::HELLO, "unexpected pre-handshake frame {ty}");
    };
    send_raw(
        &mut stream,
        xid.0,
        &OfBody::FeaturesReply {
            datapath_id: DatapathId(1),
            ports: vec![PortNo(1), PortNo(2)],
            table_capacity: 1024,
        },
    );
    // Let the reactor ingest the reply and register the wire egress.
    for _ in 0..50 {
        *tick += 1;
        reactor.poll_once(*tick);
        if reactor.stats().handshakes > handshakes {
            break;
        }
    }
    assert_eq!(
        reactor.stats().handshakes,
        handshakes + 1,
        "handshake must complete"
    );
    (stream, dec)
}

/// Socket PACKET_INs must cross the same mediation seams as in-process
/// ones: permission-checked in a deputy, audited, decision-traced, and the
/// app's PACKET_OUT must come back over the same socket.
#[test]
fn packet_in_over_wire_is_mediated_and_answered() {
    let (controller, handle) = serve_l2("127.0.0.1:0", 2, 2, SouthboundConfig::default()).unwrap();
    controller.kernel().enable_decision_trace();

    let mut conn =
        SwitchConn::connect(handle.local_addr(), DatapathId(1), Duration::from_secs(5)).unwrap();
    conn.send_packet_in(&arp_packet_in()).unwrap();
    let ev = conn.recv_event().unwrap();
    assert!(
        ev.is_response(),
        "expected a mediated FLOW_MOD/PACKET_OUT, got {ev:?}"
    );

    // The response was produced by the permission pipeline, not a bypass:
    // the audit log holds an allowed send_packet_out and the decision trace
    // recorded the check.
    let records = controller.kernel().audit_records();
    let sent = records
        .iter()
        .filter(|r| r.operation == "send_packet_out" && matches!(r.outcome, AuditOutcome::Allowed))
        .count();
    assert!(sent >= 1, "no audited send_packet_out in {records:?}");
    let trace = controller.kernel().take_decision_trace();
    assert!(!trace.is_empty(), "decision trace must record the check");

    let stats = handle.stats();
    assert_eq!(stats.handshakes, 1);
    assert!(stats.packet_ins >= 1);
    assert!(stats.packet_outs_tx >= 1);
    assert_eq!(stats.protocol_errors, 0);

    drop(conn);
    handle.shutdown();
    controller.shutdown();
}

/// ECHO_REQUEST from the switch: the reply must mirror xid and payload
/// verbatim.
#[test]
fn echo_round_trips_xid_and_payload_verbatim() {
    let (controller, mut reactor, mut tick, mut stream, mut dec) =
        handshaken_raw_conn(SouthboundConfig::default());

    let payload = b"\x00\xffopaque probe \x7f".to_vec();
    send_raw(
        &mut stream,
        0xDEAD_BEEF,
        &OfBody::EchoRequest(Bytes::from(payload.clone())),
    );
    let (ty, xid, body) =
        pump_until_frame(&mut reactor, &mut tick, &mut stream, &mut dec, 1000).expect("echo reply");
    assert_eq!(ty, msg_type::ECHO_REPLY);
    assert_eq!(xid, Xid(0xDEAD_BEEF));
    assert_eq!(body, payload);

    reactor.close_all();
    controller.shutdown();
}

/// A switch that stops answering liveness probes is declared dead after
/// `echo_timeout` virtual ticks, its wire egress is deregistered, and its
/// flows are reaped.
#[test]
fn echo_liveness_timeout_reaps_connection_and_flows() {
    let config = SouthboundConfig {
        echo_interval: 10,
        echo_timeout: 40,
        ..SouthboundConfig::default()
    };
    let (controller, mut reactor, mut tick, mut stream, mut dec) = handshaken_raw_conn(config);

    // Give the dead-switch-to-be a flow so the reap is observable.
    use sdnshield::openflow::actions::Action;
    use sdnshield::openflow::flow_match::FlowMatch;
    use sdnshield::openflow::messages::FlowMod;
    let dpid = DatapathId(1);
    controller.kernel().with_network(|n| {
        let fm = FlowMod::add(
            FlowMatch::any(),
            sdnshield::openflow::types::Priority(10),
            ActionList(vec![Action::Output(PortNo(2))]),
        );
        n.apply_flow_mod(dpid, &fm).unwrap();
    });
    assert_eq!(controller.kernel().flow_count(dpid), 1);

    // Idle past echo_interval: the server must probe with its liveness
    // payload. The mirrored FLOW_MOD from the install above arrives first —
    // proof the egress mirror covers direct network writes too.
    let mut saw_flow_mod = false;
    let body = loop {
        let (ty, _, body) = pump_until_frame(&mut reactor, &mut tick, &mut stream, &mut dec, 200)
            .expect("liveness probe");
        match ty {
            msg_type::ECHO_REQUEST => break body,
            msg_type::FLOW_MOD => saw_flow_mod = true,
            other => panic!("unexpected frame type {other}"),
        }
    };
    assert!(saw_flow_mod, "flow install must be mirrored to the wire");
    assert_eq!(body, LIVENESS_PAYLOAD);

    // ...and when the switch never answers, the connection dies after the
    // timeout, the egress deregisters, and the flows are reaped.
    for _ in 0..200 {
        tick += 1;
        reactor.poll_once(tick);
        if reactor.connections() == 0 {
            break;
        }
    }
    assert_eq!(reactor.connections(), 0, "dead switch must be reaped");
    assert_eq!(reactor.stats().echo_timeouts, 1);
    assert_eq!(
        controller.kernel().with_network(|n| n.wire_egress_count()),
        0
    );
    assert_eq!(
        controller.kernel().flow_count(dpid),
        0,
        "flows must be reaped"
    );

    reactor.close_all();
    controller.shutdown();
}

/// A dead switch's flows are reaped through the kernel's write path, so the
/// ownership tracker forgets them: an app that filled its rule quota on the
/// switch gets the whole quota back when the switch reconnects.
#[test]
fn dead_switch_reap_restores_rule_quota_on_reconnect() {
    use sdnshield::controller::kernel::Kernel;
    use sdnshield::core::api::{ApiCall, ApiCallKind, AppId};
    use sdnshield::core::parse_manifest;
    use sdnshield::openflow::flow_match::FlowMatch;
    use sdnshield::openflow::messages::FlowMod;
    use sdnshield::openflow::types::Priority;

    let (controller, mut reactor, mut tick, stream, _dec) =
        handshaken_raw_conn(SouthboundConfig::default());
    let dpid = DatapathId(1);
    let app = AppId(200);
    controller
        .kernel()
        .register_app(
            app,
            "quota-app",
            &parse_manifest("PERM insert_flow LIMITING MAX_RULE_COUNT 2").unwrap(),
        )
        .unwrap();
    let insert = |kernel: &Kernel, tp: u16| {
        let call = ApiCall::new(
            app,
            ApiCallKind::InsertFlow {
                dpid,
                flow_mod: FlowMod::add(
                    FlowMatch::default().with_tp_dst(tp),
                    Priority(10),
                    ActionList::output(PortNo(2)),
                ),
            },
        );
        kernel.execute(&call).0
    };
    let fill_quota = |base: u16| {
        let kernel = controller.kernel();
        insert(&kernel, base).expect("first rule within quota");
        insert(&kernel, base + 1).expect("second rule within quota");
        assert!(
            insert(&kernel, base + 2).unwrap_err().is_denied(),
            "a third rule exceeds MAX_RULE_COUNT 2"
        );
        assert_eq!(kernel.flow_count(dpid), 2);
    };
    fill_quota(80);

    // The switch dies (peer closes its socket) and is reaped.
    drop(stream);
    for _ in 0..200 {
        tick += 1;
        reactor.poll_once(tick);
        if reactor.connections() == 0 {
            break;
        }
    }
    assert_eq!(reactor.connections(), 0, "dead switch must be reaped");
    assert_eq!(controller.kernel().flow_count(dpid), 0, "flows reaped");

    // It reconnects with an empty table, and the app's quota is whole again.
    let (_stream, _dec) = handshake_switch_1(&mut reactor, &mut tick);
    fill_quota(90);

    reactor.close_all();
    controller.shutdown();
}

/// Unknown message types mid-stream are length-skipped and counted; the
/// connection keeps working.
#[test]
fn unknown_message_types_are_skipped_not_fatal() {
    let (controller, mut reactor, mut tick, mut stream, mut dec) =
        handshaken_raw_conn(SouthboundConfig::default());

    // A future/vendor frame the codec has no variant for.
    let mut junk = Vec::new();
    junk.push(WIRE_VERSION);
    junk.push(0xC8);
    junk.extend_from_slice(&((HEADER_LEN + 5) as u16).to_be_bytes());
    junk.extend_from_slice(&0x1234_5678u32.to_be_bytes());
    junk.extend_from_slice(b"weird");
    stream.write_all(&junk).unwrap();

    // Followed by a live packet-in, which must still be mediated.
    send_raw(&mut stream, 7, &OfBody::PacketIn(arp_packet_in()));
    let (ty, _, _) = pump_until_frame(&mut reactor, &mut tick, &mut stream, &mut dec, 1000)
        .expect("mediated response after junk");
    assert_eq!(ty, msg_type::PACKET_OUT);

    let stats = reactor.stats();
    assert_eq!(stats.unknown_skipped, 1);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(reactor.connections(), 1, "connection must survive junk");

    reactor.close_all();
    controller.shutdown();
}

/// The wirebench client surfaces responses correctly (guards the harness
/// the benchmark numbers depend on).
#[test]
fn wirebench_events_classify_responses() {
    assert!(WireEvent::FlowMod(Xid(1)).is_response());
    assert!(WireEvent::PacketOut(Xid(2)).is_response());
    assert!(!WireEvent::Other(msg_type::HELLO, Xid(3)).is_response());
}

/// Upper bound for the wake-path waits: a wakeup that is lost shows up as a
/// wait that runs to this timeout.
const WAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Sweeps the hand-polled reactor until a sweep finds nothing to do, then
/// consumes any pending doorbell, so the next wait blocks until something
/// new happens.
fn settle(reactor: &mut Reactor, tick: &mut u64) {
    loop {
        *tick += 1;
        if reactor.poll_once(*tick) == 0 {
            break;
        }
    }
    reactor.wait(Duration::ZERO).expect("reactor wait");
}

/// Runs one `Reactor::wait` and returns how long it blocked.
fn timed_wait(reactor: &mut Reactor, timeout: Duration) -> Duration {
    let start = Instant::now();
    reactor.wait(timeout).expect("reactor wait");
    start.elapsed()
}

/// An idle reactor parks for the whole timeout, and a frame from a peer
/// wakes it at once.
#[test]
fn reactor_wait_wakes_on_peer_frame() {
    let (controller, mut reactor, mut tick, mut stream, mut dec) =
        handshaken_raw_conn(SouthboundConfig::default());
    settle(&mut reactor, &mut tick);
    let idle = Duration::from_millis(50);
    assert!(
        timed_wait(&mut reactor, idle) >= idle,
        "an idle reactor must park, not spin"
    );

    send_raw(
        &mut stream,
        9,
        &OfBody::EchoRequest(Bytes::from_static(b"wake")),
    );
    let waited = timed_wait(&mut reactor, WAKE_TIMEOUT);
    assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
    let (ty, xid, _) =
        pump_until_frame(&mut reactor, &mut tick, &mut stream, &mut dec, 1000).expect("echo reply");
    assert_eq!((ty, xid), (msg_type::ECHO_REPLY, Xid(9)));

    reactor.close_all();
    controller.shutdown();
}

/// A connection pending on the listener wakes the parked reactor.
#[test]
fn reactor_wait_wakes_on_new_connection() {
    let (controller, mut reactor, mut tick, _stream, _dec) =
        handshaken_raw_conn(SouthboundConfig::default());
    settle(&mut reactor, &mut tick);

    let _second = TcpStream::connect(reactor.local_addr()).unwrap();
    let waited = timed_wait(&mut reactor, WAKE_TIMEOUT);
    assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
    tick += 1;
    reactor.poll_once(tick);
    assert_eq!(reactor.connections(), 2);

    reactor.close_all();
    controller.shutdown();
}

/// A PACKET_OUT a deputy thread queues for a handshaken switch rings the
/// doorbell of the parked reactor.
#[test]
fn reactor_wait_wakes_on_deputy_packet_out() {
    let (controller, mut reactor, mut tick, mut stream, mut dec) =
        handshaken_raw_conn(SouthboundConfig::default());
    settle(&mut reactor, &mut tick);

    controller.deliver_packet_in_batch(vec![(DatapathId(1), arp_packet_in())]);
    let waited = timed_wait(&mut reactor, WAKE_TIMEOUT);
    assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
    let (ty, _, _) = pump_until_frame(&mut reactor, &mut tick, &mut stream, &mut dec, 1000)
        .expect("mediated PACKET_OUT");
    assert_eq!(ty, msg_type::PACKET_OUT);

    reactor.close_all();
    controller.shutdown();
}

/// Lost-wakeup check: an egress push from another thread races the
/// reactor's park for many rounds, the park staggered so the push lands
/// before, during and after it. Every round's wait must end promptly and
/// the frame must reach the peer.
#[test]
fn egress_push_racing_the_park_never_loses_the_wakeup() {
    const ROUNDS: usize = 1000;
    let (controller, mut reactor, mut tick, mut stream, mut dec) =
        handshaken_raw_conn(SouthboundConfig::default());
    let po = PacketOut {
        buffer_id: BufferId::NO_BUFFER,
        in_port: PortNo(1),
        actions: ActionList::output(PortNo(2)),
        payload: Bytes::from_static(b"race"),
    };
    // Rounds released so far; the pusher spins on it so it pushes within
    // nanoseconds of the release, not after a scheduler wakeup.
    let released = AtomicUsize::new(0);
    let quit = AtomicBool::new(false);
    let failure = thread::scope(|s| {
        s.spawn(|| {
            let mut pushed = 0;
            while pushed < ROUNDS && !quit.load(Ordering::SeqCst) {
                if released.load(Ordering::SeqCst) == pushed {
                    std::hint::spin_loop();
                    continue;
                }
                pushed += 1;
                controller
                    .kernel()
                    .with_network(|n| n.notify_wire_packet_out(DatapathId(1), &po));
            }
        });
        // Failures are returned, not panicked, so the pusher is told to
        // quit before the scope joins it.
        let failure = (0..ROUNDS).find_map(|round| {
            settle(&mut reactor, &mut tick);
            released.store(round + 1, Ordering::SeqCst);
            for _ in 0..round % 128 {
                std::hint::spin_loop();
            }
            let waited = timed_wait(&mut reactor, WAKE_TIMEOUT);
            if waited >= Duration::from_secs(1) {
                return Some(format!("round {round}: woke after {waited:?}"));
            }
            match pump_until_frame(&mut reactor, &mut tick, &mut stream, &mut dec, 1000) {
                Some((msg_type::PACKET_OUT, _, body)) if body.ends_with(b"race") => None,
                other => Some(format!("round {round}: got {other:?}")),
            }
        });
        quit.store(true, Ordering::SeqCst);
        failure
    });
    assert_eq!(failure, None);
    assert_eq!(reactor.stats().packet_outs_tx, ROUNDS as u64);

    reactor.close_all();
    controller.shutdown();
}

/// Connects to a spawned server and completes the handshake as `dpid`,
/// leaving a nonblocking raw socket that never answers anything.
fn raw_switch(addr: SocketAddr, dpid: DatapathId) -> (TcpStream, StreamDecoder) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut dec = StreamDecoder::new();
    send_raw(&mut stream, 1, &OfBody::Hello);
    let xid = 'handshake: loop {
        dec.read_from(&mut stream).expect("server greeting");
        while let Some(f) = dec.next_frame().expect("valid stream") {
            if f.ty == msg_type::FEATURES_REQUEST {
                break 'handshake f.xid;
            }
        }
    };
    send_raw(
        &mut stream,
        xid.0,
        &OfBody::FeaturesReply {
            datapath_id: dpid,
            ports: vec![PortNo(1), PortNo(2)],
            table_capacity: 1024,
        },
    );
    stream.set_nonblocking(true).unwrap();
    (stream, dec)
}

/// The spawned reactor's liveness ticks are wall-clock: a neighbour
/// flooding packet-ins makes it sweep far more often than once per tick,
/// yet a silent switch is not probed before `echo_interval` ticks of real
/// time. An interval of 2,000 ticks (400 ms) leaves a margin over the
/// 300 ms watched, while a tick per sweep passes it within the window.
#[test]
fn flooding_neighbour_does_not_hasten_echo_probes() {
    let config = SouthboundConfig {
        echo_interval: 2_000,
        ..SouthboundConfig::default()
    };
    let (controller, handle) = serve_l2("127.0.0.1:0", 2, 2, config).unwrap();
    let mut flooder =
        SwitchConn::connect(handle.local_addr(), DatapathId(1), Duration::from_secs(5)).unwrap();
    let (mut silent, mut dec) = raw_switch(handle.local_addr(), DatapathId(2));
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().handshakes < 2 {
        assert!(Instant::now() < deadline, "second handshake");
        thread::sleep(Duration::from_millis(1));
    }
    flooder.set_nonblocking(true).unwrap();

    // CBench-style window: every ARP packet-in is answered by one flood
    // PACKET_OUT, and at most WINDOW are outstanding. A small window means
    // many round trips, so many reactor sweeps.
    const WINDOW: u64 = 4;
    let (mut sent, mut answered) = (0u64, 0u64);
    let mut silent_rx = Vec::new();
    let end = Instant::now() + Duration::from_millis(300);
    while Instant::now() < end {
        while sent - answered < WINDOW {
            flooder.queue_packet_in(&arp_packet_in());
            sent += 1;
        }
        flooder.flush_out().unwrap();
        while let Some(ev) = flooder.try_recv_event().unwrap() {
            answered += u64::from(ev.is_response());
        }
        match dec.read_from(&mut silent) {
            Ok(n) => assert!(n > 0, "server closed the silent switch"),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("socket read: {e}"),
        }
        while let Some(f) = dec.next_frame().expect("valid stream") {
            silent_rx.push(f.ty);
        }
    }
    assert!(answered > 0, "the flood must be served");
    assert!(
        !silent_rx.contains(&msg_type::ECHO_REQUEST),
        "silent switch probed within 300 ms: {silent_rx:?}"
    );
    assert_eq!(handle.stats().echo_timeouts, 0);

    drop((flooder, silent));
    handle.shutdown();
    controller.shutdown();
}

/// Answers packet-ins from one switch with a PACKET_OUT and drops the rest
/// unanswered, so a neighbour's flood costs the app next to nothing and its
/// queue never sheds the one packet-in that is answered.
struct AnswerSwitch(DatapathId);

impl sdnshield::controller::app::App for AnswerSwitch {
    fn name(&self) -> &str {
        "answer-switch"
    }

    fn on_start(&mut self, ctx: &sdnshield::controller::app::AppCtx) {
        ctx.subscribe(sdnshield::core::api::EventKind::PacketIn)
            .expect("pkt_in_event granted");
    }

    fn on_event(
        &mut self,
        ctx: &sdnshield::controller::app::AppCtx,
        event: &sdnshield::controller::events::Event,
    ) {
        if let sdnshield::controller::events::Event::PacketIn { dpid, packet_in } = event {
            if *dpid == self.0 {
                let po = PacketOut {
                    buffer_id: BufferId::NO_BUFFER,
                    in_port: packet_in.in_port,
                    actions: ActionList::output(PortNo(2)),
                    payload: packet_in.payload.clone(),
                };
                ctx.send_packet_out(*dpid, po)
                    .expect("send_pkt_out granted");
            }
        }
    }
}

/// A peer that writes without pause must not starve the other connections:
/// while switch 1 floods packet-ins unwindowed, switch 2's single
/// packet-in is still read, mediated and answered with its PACKET_OUT
/// within a bound far below the flood's length.
#[test]
fn flooding_neighbour_does_not_starve_other_connections() {
    use sdnshield::core::parse_manifest;
    use sdnshield::netsim::network::Network;
    use sdnshield::netsim::topology::builders;

    const FLOOD: Duration = Duration::from_secs(3);
    const BOUND: Duration = Duration::from_secs(1);
    let controller = Arc::new(sdnshield::controller::ShieldedController::new(
        Network::new(builders::linear(2), 1024),
        2,
    ));
    controller.kernel().set_absorb_packet_outs(true);
    controller
        .register(
            Box::new(AnswerSwitch(DatapathId(2))),
            &parse_manifest("PERM pkt_in_event\nPERM read_payload\nPERM send_pkt_out").unwrap(),
        )
        .unwrap();
    let handle = sdnshield::controller::southbound::spawn_southbound(
        Arc::clone(&controller),
        "127.0.0.1:0",
        SouthboundConfig::default(),
    )
    .unwrap();
    let (mut flooder, _dec) = raw_switch(handle.local_addr(), DatapathId(1));
    let mut victim =
        SwitchConn::connect(handle.local_addr(), DatapathId(2), Duration::from_secs(10)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().handshakes < 2 {
        assert!(Instant::now() < deadline, "second handshake");
        thread::sleep(Duration::from_millis(1));
    }
    flooder.set_nonblocking(false).unwrap();
    let mut burst = Vec::new();
    for xid in 0..1024 {
        wire::encode_into(
            &OfMessage::new(Xid(xid), OfBody::PacketIn(arp_packet_in())),
            &mut burst,
        );
    }

    let stop = AtomicBool::new(false);
    let (answer, waited) = thread::scope(|s| {
        let flooder = &mut flooder;
        let stop = &stop;
        s.spawn(move || {
            let end = Instant::now() + FLOOD;
            while !stop.load(Ordering::SeqCst) && Instant::now() < end {
                if flooder.write_all(&burst).is_err() {
                    break;
                }
            }
        });
        // Let the flood get going before switch 2 speaks.
        let flood_seen = Instant::now() + Duration::from_secs(2);
        while handle.stats().packet_ins < 10_000 && Instant::now() < flood_seen {
            thread::sleep(Duration::from_millis(1));
        }
        let start = Instant::now();
        victim.send_packet_in(&arp_packet_in()).unwrap();
        let answer = victim.recv_event();
        let waited = start.elapsed();
        stop.store(true, Ordering::SeqCst);
        (answer, waited)
    });
    assert!(
        matches!(answer, Ok(WireEvent::PacketOut(_))),
        "expected the mediated PACKET_OUT, got {answer:?}"
    );
    assert!(
        waited < BOUND,
        "switch 2 answered after {waited:?} behind a flooding neighbour"
    );

    drop((flooder, victim));
    handle.shutdown();
    controller.shutdown();
}
