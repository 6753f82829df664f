//! The southbound TCP server: real switches (or CBench-style emulators)
//! speaking the OpenFlow wire codec to the shielded controller over sockets.
//!
//! # Reactor model
//!
//! One thread owns a nonblocking [`TcpListener`] and every connection, and
//! drives them with a *sweep*: each [`Reactor::poll_once`] call accepts
//! pending connections, then for every connection flushes queued egress
//! bytes, reads until `WouldBlock`, decodes complete frames from the
//! reusable stream buffer, and finally runs the liveness/timeout pass. The
//! explicit `poll_once(tick)` entry point keeps the whole state machine
//! deterministic under test.
//!
//! Between sweeps that found nothing to do, [`Reactor::wait`] parks the
//! thread in a readiness wait ([`polling::Poller`]) on the listener, every
//! connection (readable, plus writable while its write ring holds bytes, so
//! a slow peer parks the reactor instead of spinning it) and a doorbell.
//! Deputy threads queue egress from outside the reactor, so they ring the
//! doorbell after a push while the reactor is parked. The lost-wakeup
//! protocol: the reactor sets `parked` (SeqCst) *before* it re-checks the
//! rings while arming the wait, and an egress push does `parked.swap(false)`
//! after the push and only then notifies. Either the re-check sees the push
//! or the swap sees `parked` and wakes the wait.
//!
//! # Per-connection state machine
//!
//! ```text
//! accept ──HELLO sent──▶ AwaitHello ──peer HELLO──▶ AwaitFeatures
//!     (FEATURES_REQUEST sent)  AwaitFeatures ──FEATURES_REPLY(dpid)──▶ Ready
//! ```
//!
//! `Ready` requires the claimed datapath to exist in the [`Network`]
//! topology and to be unclaimed by another live connection; the reactor
//! then registers a [`WireEgress`] so every mediated flow-mod/packet-out
//! for that datapath is mirrored onto the socket. Steady state is
//! PACKET_IN upstream (batched into the dispatcher's vectored delivery)
//! and FLOW_MOD/PACKET_OUT/ECHO downstream.
//!
//! # Backpressure and liveness
//!
//! Egress frames queue in a bounded [`WriteRing`]; when a slow peer fills
//! it, whole frames are shed and counted — the audit ring's counted-drop
//! discipline — so a stalled switch can never wedge the reactor or the
//! deputy threads. Liveness: after `echo_interval` ticks of silence the
//! reactor sends an ECHO_REQUEST with an opaque payload; a peer that fails
//! to echo it (xid and payload verbatim) within `echo_timeout` ticks is
//! declared dead, its egress deregistered, and its flows reaped through the
//! kernel's write path ([`ShieldedController::reap_switch`]). Ticks are
//! wall-clock in [`spawn_southbound`] (one per [`TICK`] since start), so
//! the timeouts mean the same however often the reactor sweeps.

use std::collections::BTreeSet;
use std::io::{self, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use polling::{Event, Poller};
use sdnshield_netsim::network::{Network, WireEgress};
use sdnshield_openflow::messages::{FlowMod, OfBody, PacketIn, PacketOut};
use sdnshield_openflow::southbound::{StreamDecoder, WriteRing};
use sdnshield_openflow::types::{DatapathId, Xid};
use sdnshield_openflow::wire::msg_type;

use crate::isolation::ShieldedController;

/// Opaque payload carried by reactor-initiated ECHO_REQUESTs. The reply
/// must return it verbatim; anything else fails the liveness check.
pub const LIVENESS_PAYLOAD: &[u8] = b"sdnshield-liveness\x00\xa5";

/// Wall-clock length of one liveness tick in [`spawn_southbound`], and the
/// backstop timeout of its readiness wait (so ticks advance on an idle
/// server).
pub const TICK: Duration = Duration::from_micros(200);

/// Poller key of the listener; connections use their index in the sweep.
const LISTENER_KEY: usize = usize::MAX;

/// Tuning knobs for the southbound reactor.
#[derive(Debug, Clone)]
pub struct SouthboundConfig {
    /// Per-connection egress ring capacity in bytes. Frames that do not fit
    /// are shed whole and counted.
    pub write_ring_capacity: usize,
    /// Ticks of inbound silence before the reactor probes with an
    /// ECHO_REQUEST.
    pub echo_interval: u64,
    /// Ticks after a probe (or after accept, for the handshake) without the
    /// expected reply before the connection is declared dead.
    pub echo_timeout: u64,
    /// Max packet-ins accumulated before a vectored dispatch into the
    /// controller (mirrors the benchmark drivers' chunked delivery).
    pub batch_max: usize,
}

impl Default for SouthboundConfig {
    fn default() -> Self {
        SouthboundConfig {
            write_ring_capacity: 1 << 20,
            echo_interval: 5_000,
            echo_timeout: 50_000,
            batch_max: 512,
        }
    }
}

/// Monotonic counters shared between the reactor and its handle.
#[derive(Default)]
struct StatsInner {
    accepted: AtomicU64,
    handshakes: AtomicU64,
    closed: AtomicU64,
    echo_timeouts: AtomicU64,
    frames_rx: AtomicU64,
    packet_ins: AtomicU64,
    flow_mods_tx: AtomicU64,
    packet_outs_tx: AtomicU64,
    unknown_skipped: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
}

/// A point-in-time copy of the reactor's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SouthboundStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections that completed the HELLO/FEATURES handshake.
    pub handshakes: u64,
    /// Connections closed (any reason).
    pub closed: u64,
    /// Connections killed by the echo liveness timeout.
    pub echo_timeouts: u64,
    /// Complete frames decoded across all connections.
    pub frames_rx: u64,
    /// PACKET_IN frames forwarded into the mediation pipeline.
    pub packet_ins: u64,
    /// FLOW_MOD frames queued onto the wire.
    pub flow_mods_tx: u64,
    /// PACKET_OUT frames queued onto the wire.
    pub packet_outs_tx: u64,
    /// Unknown-type frames skipped via their length header.
    pub unknown_skipped: u64,
    /// Egress frames shed because a connection's write ring was full.
    pub shed: u64,
    /// Connections killed by an unrecoverable stream error.
    pub protocol_errors: u64,
}

impl StatsInner {
    fn snapshot(&self) -> SouthboundStats {
        SouthboundStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            handshakes: self.handshakes.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            echo_timeouts: self.echo_timeouts.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            packet_ins: self.packet_ins.load(Ordering::Relaxed),
            flow_mods_tx: self.flow_mods_tx.load(Ordering::Relaxed),
            packet_outs_tx: self.packet_outs_tx.load(Ordering::Relaxed),
            unknown_skipped: self.unknown_skipped.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// Wakes a parked reactor when another thread queues egress.
struct Doorbell {
    poller: Poller,
    /// Set by the reactor before it re-checks the rings and waits; cleared
    /// by whoever wakes it.
    parked: AtomicBool,
}

impl Doorbell {
    /// Called after a push: notifies only if the reactor may have missed it.
    fn ring(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            // If the write fails the wait still ends at its timeout.
            let _ = self.poller.notify();
        }
    }
}

/// The egress half of one wire-attached switch: mediated controller→switch
/// messages are encoded into the connection's bounded write ring from
/// whichever deputy thread executed the call; the reactor thread flushes.
struct ConnEgress {
    ring: Arc<Mutex<WriteRing>>,
    xid: AtomicU32,
    stats: Arc<StatsInner>,
    doorbell: Arc<Doorbell>,
}

impl ConnEgress {
    fn next_xid(&self) -> Xid {
        Xid(self.xid.fetch_add(1, Ordering::Relaxed))
    }
}

impl WireEgress for ConnEgress {
    fn flow_mod(&self, fm: &FlowMod) {
        let body = OfBody::FlowMod(fm.clone());
        if self.ring.lock().push_body(self.next_xid(), &body) {
            self.stats.flow_mods_tx.fetch_add(1, Ordering::Relaxed);
        }
        self.doorbell.ring();
    }

    fn packet_out(&self, po: &PacketOut) {
        let body = OfBody::PacketOut(po.clone());
        if self.ring.lock().push_body(self.next_xid(), &body) {
            self.stats.packet_outs_tx.fetch_add(1, Ordering::Relaxed);
        }
        self.doorbell.ring();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitHello,
    AwaitFeatures,
    Ready,
}

struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    ring: Arc<Mutex<WriteRing>>,
    phase: Phase,
    dpid: Option<DatapathId>,
    opened_tick: u64,
    last_rx_tick: u64,
    /// Outstanding reactor-initiated echo probe: (xid, tick sent).
    outstanding_echo: Option<(Xid, u64)>,
    /// Xid counter for reactor-initiated frames. Egress xids live in the
    /// upper half of the space (see [`Reactor::service_conn`]'s handshake
    /// arm) so the two streams cannot collide.
    next_xid: u32,
    /// Set to the close reason when the connection must die; reaped at the
    /// end of the sweep.
    dead: Option<&'static str>,
    /// Last decoder unknown-skip count folded into the shared stats.
    reported_unknown: u64,
    /// Last ring shed count folded into the shared stats.
    reported_shed: u64,
}

impl Conn {
    fn next_xid(&mut self) -> Xid {
        let x = Xid(self.next_xid);
        self.next_xid = self.next_xid.wrapping_add(1);
        x
    }
}

/// The southbound reactor: listener + connections + sweep loop.
///
/// [`spawn_southbound`] runs it on a dedicated thread; tests construct one
/// directly with [`Reactor::bind`] and drive [`Reactor::poll_once`] with an
/// explicit tick for deterministic liveness-timeout coverage, parking in
/// [`Reactor::wait`] between sweeps exactly as the thread does.
pub struct Reactor {
    listener: TcpListener,
    local_addr: SocketAddr,
    controller: Arc<ShieldedController>,
    config: SouthboundConfig,
    conns: Vec<Conn>,
    claimed: BTreeSet<DatapathId>,
    stats: Arc<StatsInner>,
    batch: Vec<(DatapathId, PacketIn)>,
    doorbell: Arc<Doorbell>,
    events: Vec<Event>,
}

impl Reactor {
    /// Binds a nonblocking listener on `addr` (use port 0 for an ephemeral
    /// port; read it back with [`Reactor::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration and poller setup failures.
    pub fn bind(
        addr: &str,
        controller: Arc<ShieldedController>,
        config: SouthboundConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.add(&listener, Event::none(LISTENER_KEY))?;
        Ok(Reactor {
            listener,
            local_addr,
            controller,
            config,
            conns: Vec::new(),
            claimed: BTreeSet::new(),
            stats: Arc::new(StatsInner::default()),
            batch: Vec::new(),
            doorbell: Arc::new(Doorbell {
                poller,
                parked: AtomicBool::new(false),
            }),
            events: Vec::new(),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live connection count (any phase).
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// A copy of the reactor's counters.
    pub fn stats(&self) -> SouthboundStats {
        self.stats.snapshot()
    }

    fn network<R>(&self, f: impl FnOnce(&Network) -> R) -> R {
        self.controller.kernel().with_network(f)
    }

    /// One readiness sweep at virtual time `tick`: accept, per-connection
    /// flush/read/decode, batched packet-in dispatch, liveness pass, reap.
    /// Returns a progress count (frames + connections handled); `0` means
    /// the sweep found nothing to do and the caller may [`Reactor::wait`].
    pub fn poll_once(&mut self, tick: u64) -> usize {
        let mut progress = 0usize;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    progress += 1;
                    self.accept_conn(stream, tick);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        for i in 0..self.conns.len() {
            progress += Self::service_conn(
                &mut self.conns[i],
                tick,
                &self.controller,
                &self.config,
                &mut self.claimed,
                &self.stats,
                &self.doorbell,
                &mut self.batch,
            );
        }
        if !self.batch.is_empty() {
            let batch = std::mem::take(&mut self.batch);
            self.controller.deliver_packet_in_batch(batch);
        }
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            if conn.dead.is_some() {
                continue;
            }
            Self::liveness_pass(conn, tick, &self.config, &self.stats);
            Self::flush_conn(conn, &self.stats);
        }
        let mut i = 0;
        while i < self.conns.len() {
            if self.conns[i].dead.is_some() {
                let conn = self.conns.swap_remove(i);
                self.close_conn(conn);
                progress += 1;
            } else {
                i += 1;
            }
        }
        progress
    }

    /// Parks until there is work for [`Reactor::poll_once`] or `timeout`
    /// elapses: a connection is readable (or writable while its ring holds
    /// bytes), a connection is pending on the listener, or another thread
    /// queued egress. Wakeups may be spurious; the caller just sweeps.
    ///
    /// # Errors
    ///
    /// Propagates poller failures.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let doorbell = &*self.doorbell;
        // Before the ring re-check below, so a push that check misses sees
        // `parked` and rings.
        doorbell.parked.store(true, Ordering::SeqCst);
        let armed = self.arm();
        let waited = armed.and_then(|()| {
            self.events.clear();
            doorbell.poller.wait(&mut self.events, Some(timeout))
        });
        doorbell.parked.store(false, Ordering::SeqCst);
        waited.map(drop)
    }

    /// Re-arms every source for one wait (interest is oneshot).
    fn arm(&self) -> io::Result<()> {
        let poller = &self.doorbell.poller;
        poller.modify(&self.listener, Event::readable(LISTENER_KEY))?;
        for (i, conn) in self.conns.iter().enumerate() {
            let interest = Event {
                key: i,
                readable: true,
                writable: !conn.ring.lock().is_empty(),
            };
            poller.modify(&conn.stream, interest)?;
        }
        Ok(())
    }

    fn accept_conn(&mut self, stream: TcpStream, tick: u64) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if self
            .doorbell
            .poller
            .add(&stream, Event::none(self.conns.len()))
            .is_err()
        {
            return;
        }
        let _ = stream.set_nodelay(true);
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(Mutex::new(WriteRing::new(self.config.write_ring_capacity)));
        let mut conn = Conn {
            stream,
            decoder: StreamDecoder::new(),
            ring,
            phase: Phase::AwaitHello,
            dpid: None,
            opened_tick: tick,
            last_rx_tick: tick,
            outstanding_echo: None,
            next_xid: 1,
            dead: None,
            reported_unknown: 0,
            reported_shed: 0,
        };
        let xid = conn.next_xid();
        conn.ring.lock().push_body(xid, &OfBody::Hello);
        Self::flush_conn(&mut conn, &self.stats);
        self.conns.push(conn);
    }

    /// Flush + read + decode for one connection. Associated function (not a
    /// method) so the caller can hold disjoint borrows of the reactor's
    /// other fields.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn service_conn(
        conn: &mut Conn,
        tick: u64,
        controller: &Arc<ShieldedController>,
        config: &SouthboundConfig,
        claimed: &mut BTreeSet<DatapathId>,
        stats: &Arc<StatsInner>,
        doorbell: &Arc<Doorbell>,
        batch: &mut Vec<(DatapathId, PacketIn)>,
    ) -> usize {
        if conn.dead.is_some() {
            return 0;
        }
        Self::flush_conn(conn, stats);
        let mut progress = 0usize;
        'io: loop {
            loop {
                // Split borrows: frame views borrow the decoder while the
                // handlers touch the ring and phase fields.
                let Conn {
                    decoder,
                    ring,
                    phase,
                    dpid,
                    last_rx_tick,
                    outstanding_echo,
                    dead,
                    next_xid,
                    ..
                } = conn;
                let frame = match decoder.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => {
                        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        *dead = Some("unrecoverable stream error");
                        break 'io;
                    }
                };
                progress += 1;
                *last_rx_tick = tick;
                stats.frames_rx.fetch_add(1, Ordering::Relaxed);
                match frame.ty {
                    msg_type::HELLO if *phase == Phase::AwaitHello => {
                        let x = Xid(*next_xid);
                        *next_xid = next_xid.wrapping_add(1);
                        ring.lock().push_body(x, &OfBody::FeaturesRequest);
                        *phase = Phase::AwaitFeatures;
                    }
                    msg_type::FEATURES_REPLY => {
                        if *phase != Phase::AwaitFeatures {
                            continue;
                        }
                        let claimed_dpid = match frame.message() {
                            Ok(m) => match m.body {
                                OfBody::FeaturesReply { datapath_id, .. } => datapath_id,
                                _ => unreachable!("type/body mismatch"),
                            },
                            Err(_) => {
                                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                *dead = Some("malformed features reply");
                                break 'io;
                            }
                        };
                        let known = controller
                            .kernel()
                            .with_network(|n| n.has_switch(claimed_dpid));
                        if !known || !claimed.insert(claimed_dpid) {
                            *dead = Some("unknown or already-claimed datapath");
                            break 'io;
                        }
                        let egress = Arc::new(ConnEgress {
                            ring: Arc::clone(ring),
                            // Egress xids start in the upper half of the
                            // space; reactor-initiated xids count up from 1.
                            xid: AtomicU32::new(0x8000_0000),
                            stats: Arc::clone(stats),
                            doorbell: Arc::clone(doorbell),
                        });
                        controller
                            .kernel()
                            .with_network(|n| n.register_wire_egress(claimed_dpid, egress));
                        *dpid = Some(claimed_dpid);
                        *phase = Phase::Ready;
                        stats.handshakes.fetch_add(1, Ordering::Relaxed);
                    }
                    msg_type::ECHO_REQUEST => {
                        // Round-trip the sender's xid and payload verbatim.
                        ring.lock().push_echo_reply(frame.xid, frame.echo_payload());
                    }
                    msg_type::ECHO_REPLY => {
                        if let Some((xid, _)) = *outstanding_echo {
                            if frame.xid == xid && frame.echo_payload() == LIVENESS_PAYLOAD {
                                *outstanding_echo = None;
                            }
                        }
                    }
                    msg_type::PACKET_IN => {
                        let Some(d) = *dpid else { continue };
                        match frame.packet_in() {
                            Ok(view) => {
                                stats.packet_ins.fetch_add(1, Ordering::Relaxed);
                                batch.push((d, view.to_packet_in()));
                            }
                            Err(_) => {
                                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                *dead = Some("malformed packet-in");
                                break 'io;
                            }
                        }
                    }
                    // Switch-originated messages the mediation layer has no
                    // consumer for yet (barriers, stats, errors): tolerated.
                    _ => {}
                }
                if batch.len() >= config.batch_max {
                    controller.deliver_packet_in_batch(std::mem::take(batch));
                }
            }
            match conn.decoder.read_from(&mut conn.stream) {
                Ok(0) => {
                    conn.dead = Some("peer closed");
                    break;
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = Some("read error");
                    break;
                }
            }
        }
        let unknown = conn.decoder.unknown_skipped();
        stats
            .unknown_skipped
            .fetch_add(unknown - conn.reported_unknown, Ordering::Relaxed);
        conn.reported_unknown = unknown;
        progress
    }

    fn liveness_pass(conn: &mut Conn, tick: u64, config: &SouthboundConfig, stats: &StatsInner) {
        if let Some((_, sent)) = conn.outstanding_echo {
            if tick.saturating_sub(sent) >= config.echo_timeout {
                stats.echo_timeouts.fetch_add(1, Ordering::Relaxed);
                conn.dead = Some("echo liveness timeout");
            }
            return;
        }
        match conn.phase {
            Phase::Ready => {
                if tick.saturating_sub(conn.last_rx_tick) >= config.echo_interval {
                    let xid = conn.next_xid();
                    conn.ring.lock().push_body(
                        xid,
                        &OfBody::EchoRequest(Bytes::from_static(LIVENESS_PAYLOAD)),
                    );
                    conn.outstanding_echo = Some((xid, tick));
                }
            }
            Phase::AwaitHello | Phase::AwaitFeatures => {
                if tick.saturating_sub(conn.opened_tick) >= config.echo_timeout {
                    conn.dead = Some("handshake timeout");
                }
            }
        }
    }

    fn flush_conn(conn: &mut Conn, stats: &StatsInner) {
        let mut ring = conn.ring.lock();
        while !ring.is_empty() {
            match ring.flush(&mut conn.stream) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = Some("write error");
                    break;
                }
            }
        }
        let shed = ring.shed();
        stats
            .shed
            .fetch_add(shed - conn.reported_shed, Ordering::Relaxed);
        conn.reported_shed = shed;
    }

    /// Tears one connection down: deregister its wire egress, reap the
    /// flows it installed through [`ShieldedController::reap_switch`], stop
    /// polling and close the socket.
    fn close_conn(&mut self, conn: Conn) {
        self.stats.closed.fetch_add(1, Ordering::Relaxed);
        if let Some(dpid) = conn.dpid {
            self.claimed.remove(&dpid);
            self.network(|n| n.deregister_wire_egress(dpid));
            // Reap after deregistration so the delete is not mirrored back
            // onto the (dead) wire.
            self.controller.reap_switch(dpid);
        }
        let _ = self.doorbell.poller.delete(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }

    /// Closes every connection (server shutdown).
    pub fn close_all(&mut self) {
        while let Some(conn) = self.conns.pop() {
            self.close_conn(conn);
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.close_all();
    }
}

/// Handle to a running southbound server thread. Dropping it (or calling
/// [`SouthboundHandle::shutdown`]) stops the reactor and closes every
/// connection.
pub struct SouthboundHandle {
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    thread: Option<JoinHandle<()>>,
}

impl SouthboundHandle {
    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A copy of the reactor's counters.
    pub fn stats(&self) -> SouthboundStats {
        self.stats.snapshot()
    }

    /// Stops the reactor thread and closes all connections.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SouthboundHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts the southbound server on a dedicated reactor thread.
///
/// The thread sweeps while sweeps make progress and otherwise parks in
/// [`Reactor::wait`] with a [`TICK`] backstop timeout. The liveness tick is
/// wall-clock (elapsed time since start in units of [`TICK`]), so
/// `echo_interval` and `echo_timeout` keep their meaning however often the
/// reactor sweeps.
///
/// # Errors
///
/// Propagates listener bind failures.
pub fn spawn_southbound(
    controller: Arc<ShieldedController>,
    addr: &str,
    config: SouthboundConfig,
) -> io::Result<SouthboundHandle> {
    let mut reactor = Reactor::bind(addr, controller, config)?;
    let local_addr = reactor.local_addr();
    let stats = Arc::clone(&reactor.stats);
    let running = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&running);
    let thread = thread::Builder::new()
        .name("southbound-reactor".into())
        .spawn(move || {
            let start = Instant::now();
            while flag.load(Ordering::Acquire) {
                let tick = (start.elapsed().as_nanos() / TICK.as_nanos()) as u64;
                if reactor.poll_once(tick) == 0 && reactor.wait(TICK).is_err() {
                    // Poller failure: fall back to pacing by the tick.
                    thread::sleep(TICK);
                }
            }
            reactor.close_all();
        })?;
    Ok(SouthboundHandle {
        local_addr,
        running,
        stats,
        thread: Some(thread),
    })
}
