//! The wire workloads: two emulated switches drive the southbound TCP
//! reactor over loopback, one generator thread per connection.
//!
//! Each timed run has two phases: a saturating closed loop keeping
//! [`WINDOW`] packet-ins outstanding per connection (CBench's default), for
//! throughput; then an open loop paced at [`PACED_RATE`] packet-ins/s, for
//! latency, each packet-in timed from when it was due. Responses are paired
//! with packet-ins in order by content: a PACKET_OUT must carry exactly the
//! expected body, a FLOW_MOD the expected match and actions. A packet-in
//! whose response never comes is failed; a response that belongs to no
//! outstanding packet-in is a wrong output.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use sdnshield_apps::l2_learning::{L2LearningSwitch, L2_MANIFEST};
use sdnshield_controller::api::FlowOp;
use sdnshield_controller::app::App;
use sdnshield_controller::isolation::{ControllerConfig, ShieldedController};
use sdnshield_controller::southbound::{spawn_southbound, SouthboundConfig, SouthboundHandle};
use sdnshield_core::api::AppId;
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_netsim::trafficgen::{PacketKind, TrafficGen};
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{
    FlowMod, OfBody, OfMessage, PacketIn, PacketInReason, PacketOut,
};
use sdnshield_openflow::packet::{EthernetFrame, TcpFlags};
use sdnshield_openflow::southbound::StreamDecoder;
use sdnshield_openflow::types::{BufferId, DatapathId, EthAddr, PortNo, Priority, Xid};
use sdnshield_openflow::wire::{self, msg_type, HEADER_LEN};

use crate::audit::AuditWatch;
use crate::report::{median, percentile, Outcome};
use crate::trace::{Span, TracedApp, Tracer};
use crate::{probes, Args};

/// Which wire workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// ARP broadcasts: one PACKET_OUT per packet-in, no FLOW_MOD.
    Flood,
    /// TCP SYNs to learned hosts: one FLOW_MOD and one PACKET_OUT each.
    FlowSetup,
}

/// Emulated switches (dpids `1..=CONNS`), one connection and one generator
/// thread each.
const CONNS: u64 = 2;
/// Packet-ins outstanding per connection in the closed loop.
const WINDOW: usize = 64;
/// Aggregate open-loop rate, about a sixth of flow-setup capacity on a
/// 2-core host: low enough that the latency tail sits on the reactor's
/// fixed floor rather than on queueing, which host slowdowns inflate.
const PACED_RATE: f64 = 20_000.0;
/// A packet-in unanswered this long after it was due is failed (and stops
/// holding a closed-loop window slot).
const EXPIRE: Duration = Duration::from_millis(200);
/// Upper bound on the drain after each phase.
const GRACE: Duration = Duration::from_secs(2);
/// Latency charged to a failed packet-in: above every answered one.
const FAILED_LATENCY_US: f64 = 2.0 * 1e6;
/// Distinct timed packet-ins generated per connection (then cycled).
const POOL: usize = 8192;
/// Emulated hosts per switch.
const FLOOD_HOSTS: u64 = 16;
const FLOWSETUP_HOSTS: u64 = 1024;
/// Warm-up packet-ins per connection for the flood workload.
const FLOOD_WARMUP: usize = 4096;
/// One loadgen request span is kept per this many packet-ins.
const REQUEST_SPAN_EVERY: u64 = 64;

/// Waiting on one socket with a nanosecond timeout, and timer slack. `std`
/// has no readiness wait, and `SO_RCVTIMEO` is rounded to scheduler ticks,
/// far coarser than the 50 µs pacing interval; `ppoll` is not.
mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    #[cfg(not(target_os = "linux"))]
    compile_error!("perfbench waits on sockets with Linux ppoll");

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn prctl(option: c_int, arg2: c_ulong, ...) -> c_int;
    }

    /// `PR_SET_TIMERSLACK`: the calling thread's timer slack in ns.
    const PR_SET_TIMERSLACK: c_int = 29;

    /// Makes the calling thread's timed waits expire on time instead of up
    /// to the default 50 µs late, so the paced schedule holds.
    pub fn tight_timers() {
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
        // no memory of ours; a failure leaves the default slack, which only
        // makes the generator later (and `loadgen.late_*` shows it).
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1);
        }
    }

    /// Blocks until `fd` is ready for `events` or `timeout` passes.
    pub fn wait(fd: c_int, events: c_short, timeout: Duration) {
        let mut pfd = PollFd {
            fd,
            events,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(60) as c_long,
            tv_nsec: c_long::from(timeout.subsec_nanos()),
        };
        // SAFETY: `pfd` and `ts` are live, properly initialised locals for
        // the whole call; `nfds` is 1, matching the single `pollfd`; a null
        // sigmask keeps the thread's signal mask. An error return (EINTR)
        // only ends the wait early, which every caller tolerates.
        unsafe {
            ppoll(&mut pfd, 1, &ts, std::ptr::null());
        }
    }
}

/// One generated packet-in and the responses it must get.
pub struct Input {
    /// The PACKET_IN wire frame (xid patched at send).
    pub frame: Vec<u8>,
    /// The same packet-in, for in-process delivery.
    pub pi: PacketIn,
    /// Expected PACKET_OUT body, byte for byte.
    pub po_body: Vec<u8>,
    /// The expected PACKET_OUT.
    pub po: PacketOut,
    /// Expected FLOW_MOD (command, match and actions are compared; the
    /// kernel stamps the cookie).
    pub fm: Option<FlowMod>,
    pub dst: EthAddr,
}

impl Input {
    fn new(pi: PacketIn, out_port: Option<PortNo>) -> Self {
        let mut frame = Vec::new();
        wire::encode_into(
            &OfMessage::new(Xid(0), OfBody::PacketIn(pi.clone())),
            &mut frame,
        );
        let dst = EthernetFrame::from_bytes(pi.payload.clone())
            .expect("generated frames parse")
            .dst;
        let po = PacketOut {
            buffer_id: BufferId::NO_BUFFER,
            in_port: pi.in_port,
            actions: ActionList::output(out_port.unwrap_or(PortNo::FLOOD)),
            payload: pi.payload.clone(),
        };
        let mut enc = Vec::new();
        wire::encode_into(
            &OfMessage::new(Xid(0), OfBody::PacketOut(po.clone())),
            &mut enc,
        );
        let fm = out_port.map(|port| {
            FlowMod::add(
                FlowMatch::default().with_eth_dst(dst),
                Priority(100),
                ActionList::output(port),
            )
            .with_idle_timeout(60)
        });
        Input {
            frame,
            pi,
            po_body: enc[HEADER_LEN..].to_vec(),
            po,
            fm,
            dst,
        }
    }

    fn fm_matches(&self, got: &FlowMod) -> bool {
        self.fm.as_ref().is_some_and(|want| {
            want.command == got.command
                && want.flow_match == got.flow_match
                && want.actions == got.actions
        })
    }
}

/// The inputs of one connection, generated from the seed before set-up.
pub struct Pools {
    pub dpid: DatapathId,
    /// Untimed warm-up, part of set-up.
    pub warm: Vec<Input>,
    /// Timed packet-ins, cycled.
    pub timed: Vec<Input>,
}

fn packet_in(port: PortNo, frame: &EthernetFrame) -> PacketIn {
    PacketIn {
        buffer_id: BufferId::NO_BUFFER,
        in_port: port,
        reason: PacketInReason::NoMatch,
        payload: frame.to_bytes(),
    }
}

/// Generates connection `dpid`'s inputs. Host `h` sits behind port `h + 1`,
/// as in [`TrafficGen`].
pub fn pools(kind: Kind, seed: u64, dpid: u64) -> Pools {
    let stream_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ dpid;
    let (hosts, pk) = match kind {
        Kind::Flood => (FLOOD_HOSTS, PacketKind::Arp),
        Kind::FlowSetup => (FLOWSETUP_HOSTS, PacketKind::TcpSyn),
    };
    let mut gen = TrafficGen::new(1, hosts, pk, stream_seed);
    let port_of: HashMap<EthAddr, PortNo> = (0..hosts)
        .map(|h| (gen.host_mac(0, h), PortNo(h as u16 + 1)))
        .collect();
    let next = |gen: &mut TrafficGen| gen.next_packet_in().1;
    let warm = match kind {
        Kind::Flood => (0..FLOOD_WARMUP)
            .map(|_| Input::new(next(&mut gen), None))
            .collect(),
        Kind::FlowSetup => {
            // Learn every host, then install a rule toward each one, so the
            // timed phase starts with every flow live.
            let mut warm: Vec<Input> = (0..hosts)
                .map(|h| {
                    let arp = EthernetFrame::arp_request(
                        gen.host_mac(0, h),
                        gen.host_ip(0, h),
                        gen.host_ip(0, (h + 1) % hosts),
                    );
                    Input::new(packet_in(PortNo(h as u16 + 1), &arp), None)
                })
                .collect();
            for d in 0..hosts {
                let s = (d + 1) % hosts;
                let syn = EthernetFrame::tcp(
                    gen.host_mac(0, s),
                    gen.host_mac(0, d),
                    gen.host_ip(0, s),
                    gen.host_ip(0, d),
                    40_000,
                    80,
                    TcpFlags {
                        syn: true,
                        ..TcpFlags::default()
                    },
                    Bytes::new(),
                );
                warm.push(Input::new(
                    packet_in(PortNo(s as u16 + 1), &syn),
                    Some(PortNo(d as u16 + 1)),
                ));
            }
            warm
        }
    };
    let timed = (0..POOL)
        .map(|_| {
            let pi = next(&mut gen);
            let out = match kind {
                Kind::Flood => None,
                Kind::FlowSetup => {
                    let dst = EthernetFrame::from_bytes(pi.payload.clone())
                        .expect("generated frames parse")
                        .dst;
                    Some(port_of[&dst])
                }
            };
            Input::new(pi, out)
        })
        .collect();
    Pools {
        dpid: DatapathId(dpid),
        warm,
        timed,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Got {
    Wait,
    At(Instant),
    Missing,
    NotNeeded,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warm,
    Closed,
    Paced,
}

struct Pending<'a> {
    input: &'a Input,
    due: Instant,
    phase: Phase,
    seq: u64,
    po: Got,
    fm: Got,
}

/// Per-phase tallies of one connection.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Closed loop: packet-ins fully answered before the phase deadline.
    pub ok_in_window: u64,
    /// Paced: due-to-answered latency (µs), failed ones charged
    /// [`FAILED_LATENCY_US`].
    pub lat_us: Vec<f64>,
    /// Paced: how late each packet-in was sent (µs).
    pub late_us: Vec<f64>,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
        self.ok_in_window += o.ok_in_window;
        self.lat_us.extend(o.lat_us);
        self.late_us.extend(o.late_us);
    }

    /// Adds the counts only (run-wide totals keep no samples).
    fn count(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
    }
}

/// Response bookkeeping, apart from the decoder so a frame borrowed from
/// the decoder can be checked against it.
struct Book<'a> {
    pending: VecDeque<Pending<'a>>,
    /// First entry whose PACKET_OUT / FLOW_MOD is still awaited.
    po_next: usize,
    fm_next: usize,
    /// Some response was given up on, so one may legitimately arrive late.
    expired: bool,
    tally: Tally,
    closed_end: Instant,
    late_responses: u64,
    other_frames: u64,
    flow_mods: u64,
    packet_outs: u64,
    wrong: Vec<String>,
    tracer: Option<Arc<Tracer>>,
    spans: Vec<Span>,
}

impl Book<'_> {
    fn wrong(&mut self, what: String) {
        if self.wrong.len() < 8 {
            self.wrong.push(what);
        }
    }

    fn unmatched(&mut self, what: &str) {
        if self.expired {
            self.late_responses += 1;
        } else {
            self.wrong(format!("{what} matches no outstanding packet-in"));
        }
    }

    fn on_packet_out(&mut self, body: &[u8], now: Instant) {
        self.packet_outs += 1;
        let Some(j) =
            (self.po_next..self.pending.len()).find(|&j| self.pending[j].input.po_body == body)
        else {
            return self.unmatched("PACKET_OUT");
        };
        // Responses come back in order: skipped entries lost theirs.
        for k in self.po_next..j {
            self.pending[k].po = Got::Missing;
            self.expired = true;
        }
        self.pending[j].po = Got::At(now);
        self.po_next = j + 1;
    }

    fn on_flow_mod(&mut self, fm: &FlowMod, now: Instant) {
        self.flow_mods += 1;
        let Some(j) =
            (self.fm_next..self.pending.len()).find(|&j| self.pending[j].input.fm_matches(fm))
        else {
            return self.unmatched("FLOW_MOD");
        };
        for k in self.fm_next..j {
            if self.pending[k].fm == Got::Wait {
                self.pending[k].fm = Got::Missing;
                self.expired = true;
            }
        }
        self.pending[j].fm = Got::At(now);
        self.fm_next = j + 1;
    }

    /// Finalizes answered entries at the front, and expired ones.
    fn retire(&mut self, now: Instant) {
        while let Some(front) = self.pending.front() {
            let answered = front.po != Got::Wait && front.fm != Got::Wait;
            if !answered && now < front.due + EXPIRE {
                break;
            }
            let p = self.pending.pop_front().expect("front exists");
            self.po_next = self.po_next.saturating_sub(1);
            self.fm_next = self.fm_next.saturating_sub(1);
            self.finalize(p, now);
        }
    }

    fn finalize(&mut self, mut p: Pending<'_>, now: Instant) {
        for got in [&mut p.po, &mut p.fm] {
            if *got == Got::Wait {
                *got = Got::Missing;
                self.expired = true;
            }
        }
        let done = match (p.po, p.fm) {
            (Got::At(a), Got::At(b)) => Some(a.max(b)),
            (Got::At(a), Got::NotNeeded) => Some(a),
            _ => None,
        };
        let t = &mut self.tally;
        match done {
            Some(at) => {
                t.ok += 1;
                match p.phase {
                    Phase::Closed if at <= self.closed_end => t.ok_in_window += 1,
                    Phase::Paced => t.lat_us.push((at - p.due).as_secs_f64() * 1e6),
                    _ => {}
                }
            }
            None => {
                t.failed += 1;
                if p.phase == Phase::Paced {
                    t.lat_us.push(FAILED_LATENCY_US);
                }
            }
        }
        if let Some(tr) = &self.tracer {
            if tr.on() && p.phase != Phase::Warm && p.seq.is_multiple_of(REQUEST_SPAN_EVERY) {
                let id = tr.id();
                self.spans.push(Span {
                    name: "loadgen.request",
                    start: tr.ns(p.due),
                    end: tr.ns(done.unwrap_or(now)),
                    id,
                    parent: 0,
                    req: id,
                    n: 1,
                });
            }
        }
    }
}

/// One emulated switch connection.
pub struct Conn<'a> {
    stream: TcpStream,
    fd: RawFd,
    pub dpid: DatapathId,
    dec: StreamDecoder,
    out: Vec<u8>,
    xid: u32,
    seq: u64,
    /// Position in the timed pool (phases continue where the last stopped).
    pub timed_pos: usize,
    book: Book<'a>,
    /// Set when the connection failed; it then sends nothing more.
    pub error: Option<String>,
}

impl<'a> Conn<'a> {
    /// Connects and runs the switch side of the handshake: HELLO, wait for
    /// FEATURES_REQUEST, answer FEATURES_REPLY claiming `dpid`.
    fn connect(
        addr: SocketAddr,
        dpid: DatapathId,
        tracer: Option<Arc<Tracer>>,
    ) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut frame = Vec::new();
        wire::encode_into(&OfMessage::new(Xid(1), OfBody::Hello), &mut frame);
        stream.write_all(&frame)?;
        let mut dec = StreamDecoder::new();
        let xid = loop {
            if let Some(f) = dec
                .next_frame()
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?
            {
                if f.ty == msg_type::FEATURES_REQUEST {
                    break f.xid;
                }
                continue;
            }
            if dec.read_from(&mut stream)? == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
        };
        frame.clear();
        let reply = OfBody::FeaturesReply {
            datapath_id: dpid,
            ports: vec![PortNo(1), PortNo(2), PortNo(3)],
            table_capacity: 65_536,
        };
        wire::encode_into(&OfMessage::new(xid, reply), &mut frame);
        stream.write_all(&frame)?;
        stream.set_nonblocking(true)?;
        let fd = stream.as_raw_fd();
        let now = Instant::now();
        Ok(Conn {
            stream,
            fd,
            dpid,
            dec,
            out: Vec::with_capacity(16 * 1024),
            xid: 2,
            seq: 0,
            timed_pos: 0,
            book: Book {
                pending: VecDeque::with_capacity(4 * WINDOW),
                po_next: 0,
                fm_next: 0,
                expired: false,
                tally: Tally::default(),
                closed_end: now,
                late_responses: 0,
                other_frames: 0,
                flow_mods: 0,
                packet_outs: 0,
                wrong: Vec::new(),
                tracer,
                spans: Vec::new(),
            },
            error: None,
        })
    }

    fn send(&mut self, input: &'a Input, due: Instant, phase: Phase) {
        let at = self.out.len();
        self.out.extend_from_slice(&input.frame);
        self.out[at + 4..at + 8].copy_from_slice(&self.xid.to_be_bytes());
        self.xid = self.xid.wrapping_add(1);
        self.seq += 1;
        let fm = if input.fm.is_some() {
            Got::Wait
        } else {
            Got::NotNeeded
        };
        self.book.pending.push_back(Pending {
            input,
            due,
            phase,
            seq: self.seq,
            po: Got::Wait,
            fm,
        });
        self.book.tally.sent += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut off = 0;
        while off < self.out.len() {
            match self.stream.write(&self.out[off..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    sys::wait(self.fd, sys::POLLOUT, Duration::from_millis(10));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        Ok(())
    }

    /// Waits until the socket is readable or `until` passes, then reads and
    /// checks everything available and retires finished entries.
    fn pump(&mut self, until: Instant) -> io::Result<()> {
        let now = Instant::now();
        let until = match self.book.pending.front() {
            Some(p) => until.min(p.due + EXPIRE),
            None => until,
        };
        if until > now {
            sys::wait(self.fd, sys::POLLIN, until - now);
        }
        loop {
            match self.dec.read_from(&mut self.stream) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(_) => self.process(Instant::now())?,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.book.retire(Instant::now());
        if !self.out.is_empty() {
            self.flush()?;
        }
        Ok(())
    }

    fn process(&mut self, now: Instant) -> io::Result<()> {
        loop {
            let frame = match self.dec.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => return Ok(()),
                Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e)),
            };
            match frame.ty {
                msg_type::PACKET_OUT => self.book.on_packet_out(frame.body, now),
                msg_type::FLOW_MOD => match frame.message() {
                    Ok(OfMessage {
                        body: OfBody::FlowMod(fm),
                        ..
                    }) => self.book.on_flow_mod(&fm, now),
                    _ => self.book.wrong("undecodable FLOW_MOD".into()),
                },
                msg_type::ECHO_REQUEST => {
                    let reply = OfMessage::new(
                        frame.xid,
                        OfBody::EchoReply(Bytes::copy_from_slice(frame.echo_payload())),
                    );
                    wire::encode_into(&reply, &mut self.out);
                }
                _ => self.book.other_frames += 1,
            }
        }
    }

    fn next_timed(&mut self, pool: &'a [Input]) -> &'a Input {
        let input = &pool[self.timed_pos % pool.len()];
        self.timed_pos += 1;
        input
    }

    /// Closed loop: keeps [`WINDOW`] packet-ins outstanding. With `until`
    /// it cycles the timed pool until then; without, it sends `inputs`
    /// once.
    fn closed(&mut self, inputs: &'a [Input], until: Option<Instant>) -> io::Result<()> {
        let phase = if until.is_some() {
            Phase::Closed
        } else {
            Phase::Warm
        };
        if let Some(end) = until {
            self.book.closed_end = end;
        }
        let mut next = 0usize;
        let far = Instant::now() + Duration::from_secs(3600);
        loop {
            let now = Instant::now();
            match until {
                Some(end) if now >= end => break,
                None if next >= inputs.len() => break,
                _ => {}
            }
            while self.book.pending.len() < WINDOW {
                let input = match until {
                    Some(_) => self.next_timed(inputs),
                    None if next < inputs.len() => {
                        next += 1;
                        &inputs[next - 1]
                    }
                    None => break,
                };
                self.send(input, now, phase);
            }
            self.flush()?;
            self.pump(until.unwrap_or(far))?;
        }
        self.drain()
    }

    /// Open loop: one packet-in every `interval` from `start` until `end`,
    /// whatever the responses do.
    fn paced(
        &mut self,
        pool: &'a [Input],
        start: Instant,
        end: Instant,
        interval: Duration,
    ) -> io::Result<()> {
        let mut due = start;
        while due < end {
            let now = Instant::now();
            while due <= now && due < end {
                let input = self.next_timed(pool);
                self.send(input, due, Phase::Paced);
                self.book
                    .tally
                    .late_us
                    .push((now - due).as_secs_f64() * 1e6);
                due += interval;
            }
            self.flush()?;
            self.pump(due.min(end))?;
        }
        self.drain()
    }

    /// Collects outstanding responses for at most [`GRACE`]; whatever is
    /// still missing then is failed.
    fn drain(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + GRACE;
        while !self.book.pending.is_empty() && Instant::now() < deadline {
            self.pump(deadline)?;
        }
        let now = Instant::now();
        while let Some(p) = self.book.pending.pop_front() {
            self.book.finalize(p, now);
        }
        self.book.po_next = 0;
        self.book.fm_next = 0;
        Ok(())
    }

    /// Runs one phase, recording an I/O failure instead of propagating it;
    /// everything then outstanding is failed.
    fn phase(&mut self, f: impl FnOnce(&mut Self) -> io::Result<()>) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = f(self) {
            self.error = Some(e.to_string());
            let now = Instant::now();
            while let Some(p) = self.book.pending.pop_front() {
                self.book.finalize(p, now);
            }
        }
    }

    fn take_tally(&mut self) -> Tally {
        if let Some(tr) = &self.book.tracer {
            tr.record_all(self.book.spans.drain(..));
        }
        std::mem::take(&mut self.book.tally)
    }
}

/// The controller under test plus its southbound reactor.
struct Server {
    controller: Arc<ShieldedController>,
    handle: SouthboundHandle,
    app: AppId,
}

impl Server {
    /// The configuration `sdnshield southbound serve` ships: default
    /// controller and reactor settings, absorb mode, no journal, L2 under
    /// full mediation on linear(2).
    fn start(manifest: &str, tracer: Option<&Arc<Tracer>>) -> io::Result<Self> {
        let network = Network::new(builders::linear(CONNS as usize), 65_536);
        let controller = Arc::new(ShieldedController::new_with_config(
            network,
            ControllerConfig::default(),
        ));
        controller.kernel().set_absorb_packet_outs(true);
        let app = controller
            .register(
                l2_app(tracer),
                &parse_manifest(manifest).expect("manifest parses"),
            )
            .expect("L2 registers");
        let handle = spawn_southbound(
            Arc::clone(&controller),
            "127.0.0.1:0",
            SouthboundConfig::default(),
        )?;
        Ok(Server {
            controller,
            handle,
            app,
        })
    }

    fn stop(self) {
        self.handle.shutdown();
        self.controller.shutdown();
    }
}

fn l2_app(tracer: Option<&Arc<Tracer>>) -> Box<dyn App> {
    let l2 = Box::new(L2LearningSwitch::new());
    match tracer {
        Some(t) => Box::new(TracedApp::new(l2, Arc::clone(t), "apps.l2.handler")),
        None => l2,
    }
}

/// The manifest L2 runs under in this workload.
pub fn manifest(kind: Kind, negative: bool) -> String {
    match kind {
        Kind::Flood => L2_MANIFEST.to_owned(),
        Kind::FlowSetup => {
            let forwarding = include_str!("../../examples/manifests/forwarding.perm");
            let mut text = String::new();
            let mut replaced = 0;
            for line in forwarding.lines() {
                if negative && line.starts_with("PERM insert_flow") {
                    text.push_str("PERM insert_flow LIMITING SWITCH 1\n");
                    replaced += 1;
                } else {
                    text.push_str(line);
                    text.push('\n');
                }
            }
            assert!(
                !negative || replaced == 1,
                "forwarding.perm must grant insert_flow exactly once"
            );
            // L2 requires the payload token the example leaves out.
            text.push_str("PERM read_payload\n");
            text
        }
    }
}

/// Runs `f` on every connection, one thread each, then reads the audit
/// records the phase left. The log is not read while traffic runs: a read
/// scans the whole retained log under the drain lock, which stalls the
/// deputies' appends.
fn on_each<'a>(
    conns: &mut [Conn<'a>],
    pools: &'a [Pools],
    watch: &mut AuditWatch,
    server: &Server,
    f: impl Fn(&mut Conn<'a>, &'a Pools, usize) + Sync,
) {
    let busy = AtomicUsize::new(conns.len());
    thread::scope(|s| {
        let (f, busy) = (&f, &busy);
        for (i, (c, p)) in conns.iter_mut().zip(pools).enumerate() {
            s.spawn(move || {
                sys::tight_timers();
                f(c, p, i);
                busy.fetch_sub(1, Ordering::AcqRel);
                // Keep answering the reactor's echo probes until every
                // connection is done: its liveness clock counts sweeps,
                // which run fast while the other connection is busy.
                while busy.load(Ordering::Acquire) > 0 && c.error.is_none() {
                    let until = Instant::now() + Duration::from_millis(1);
                    if let Err(e) = c.pump(until) {
                        c.error = Some(e.to_string());
                    }
                }
            });
        }
    });
    watch.poll(&server.controller.kernel());
}

/// One built system, ready for timed traffic.
struct Setup<'a> {
    server: Server,
    conns: Vec<Conn<'a>>,
    watch: AuditWatch,
    warm: Tally,
}

fn setup<'a>(manifest: &str, pools: &'a [Pools], tracer: Option<&Arc<Tracer>>) -> Setup<'a> {
    let server = Server::start(manifest, tracer).expect("start southbound server");
    let addr = server.handle.local_addr();
    let mut conns: Vec<Conn<'a>> = pools
        .iter()
        .map(|p| Conn::connect(addr, p.dpid, tracer.cloned()).expect("switch handshake"))
        .collect();
    let mut watch = AuditWatch::default();
    on_each(&mut conns, pools, &mut watch, &server, |c, p, _| {
        c.phase(|c| c.closed(&p.warm, None));
    });
    let mut warm = Tally::default();
    for c in &mut conns {
        warm.merge(c.take_tally());
    }
    Setup {
        server,
        conns,
        watch,
        warm,
    }
}

fn closed_phase<'a>(
    conns: &mut [Conn<'a>],
    pools: &'a [Pools],
    watch: &mut AuditWatch,
    server: &Server,
    length: Duration,
) -> Tally {
    let end = Instant::now() + length;
    on_each(conns, pools, watch, server, |c, p, _| {
        c.phase(|c| c.closed(&p.timed, Some(end)));
    });
    conns.iter_mut().fold(Tally::default(), |mut t, c| {
        t.merge(c.take_tally());
        t
    })
}

fn paced_phase<'a>(
    conns: &mut [Conn<'a>],
    pools: &'a [Pools],
    watch: &mut AuditWatch,
    server: &Server,
    length: Duration,
) -> Tally {
    let interval = Duration::from_secs_f64(CONNS as f64 / PACED_RATE);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + length;
    on_each(conns, pools, watch, server, |c, p, i| {
        // Offset the connections for an evenly spaced aggregate schedule.
        let s = start + interval * i as u32 / CONNS as u32;
        c.phase(|c| c.paced(&p.timed, s, end, interval));
    });
    conns.iter_mut().fold(Tally::default(), |mut t, c| {
        t.merge(c.take_tally());
        t
    })
}

/// Runs a wire workload: [`Args::systems`] systems, each set up, measured
/// for one closed and one paced slice, verified and torn down.
pub fn run(kind: Kind, args: &Args, duration: Duration) -> Outcome {
    let manifest = manifest(kind, args.negative);
    let pools: Vec<Pools> = (1..=CONNS).map(|d| pools(kind, args.seed, d)).collect();
    let tracer = args.trace.then(|| Tracer::new(false));
    let systems = args.systems();
    // Traced systems run an extra, untraced closed slice.
    let slice = duration / (systems * if args.trace { 3 } else { 2 });
    let mut shed = [0u64; 4];
    let mut o = Outcome::default();
    let mut all = Tally::default();
    let (mut setup_s, mut tput, mut p50, mut p99) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut overhead, mut windows, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let mut m = probes::Layers::default();
    let mut last = None;
    for rep in 0..systems {
        let t0 = Instant::now();
        let Setup {
            server,
            mut conns,
            mut watch,
            warm,
        } = setup(&manifest, &pools, tracer.as_ref());
        setup_s.push(t0.elapsed().as_secs_f64());
        // The self-test's warm-up installs rules on switch 2 too, and those
        // are denied.
        o.check(
            "warm-up fully answered",
            args.negative || (warm.failed == 0 && warm.ok == warm.sent),
            format!("sent={} ok={} failed={}", warm.sent, warm.ok, warm.failed),
        );
        let rate = |t: &Tally| t.ok_in_window as f64 / slice.as_secs_f64();
        if let Some(tr) = &tracer {
            // Untraced, then traced, on the same system: the closed-loop
            // throughput difference is the tracing overhead.
            let off = closed_phase(&mut conns, &pools, &mut watch, &server, slice);
            tr.set_on(true);
            let w0 = tr.now();
            let on = closed_phase(&mut conns, &pools, &mut watch, &server, slice);
            windows.push((w0, tr.now()));
            if rate(&off) > 0.0 {
                overhead.push((rate(&off) - rate(&on)) / rate(&off) * 100.0);
            }
            all.count(&off);
            all.count(&on);
        } else {
            let closed = closed_phase(&mut conns, &pools, &mut watch, &server, slice);
            tput.push(rate(&closed));
            all.count(&closed);
        }
        let paced = paced_phase(&mut conns, &pools, &mut watch, &server, slice);
        if let Some(tr) = &tracer {
            tr.set_on(false);
        }
        let mut lat = paced.lat_us.clone();
        lat.sort_by(f64::total_cmp);
        p50.push(percentile(&lat, 0.5));
        p99.push(percentile(&lat, 0.99));
        all.count(&paced);
        if rep == 0 {
            o.peak_rss_mb = crate::report::peak_rss_mb();
        }
        verify(kind, args.negative, &server, &conns, &pools, &watch, &mut o);
        let st = server.handle.stats();
        let counts = [st.shed, watch.event_shed, st.echo_timeouts, watch.unread];
        for (sum, v) in shed.iter_mut().zip(counts) {
            *sum += v;
        }
        if tracer.is_some() {
            late.extend_from_slice(&paced.late_us);
            m.add("controller.southbound.frames_rx", st.frames_rx as f64);
            m.add("controller.southbound.packet_ins", st.packet_ins as f64);
            m.add(
                "controller.southbound.packet_outs_tx",
                st.packet_outs_tx as f64,
            );
            m.add("controller.southbound.flow_mods_tx", st.flow_mods_tx as f64);
            m.add("controller.southbound.shed", st.shed as f64);
            m.add(
                "controller.southbound.protocol_errors",
                st.protocol_errors as f64,
            );
            m.add(
                "controller.southbound.echo_timeouts",
                st.echo_timeouts as f64,
            );
            m.controller(&server.controller, &watch);
            if rep + 1 == systems {
                let kernel = server.controller.kernel();
                let engine = kernel.engine_snapshot(server.app).expect("L2 engine");
                let live = probes::live_flow_mods(&kernel, CONNS);
                last = Some((server.app, engine, kernel.context_epoch(), live));
            }
        }
        drop(conns);
        server.stop();
    }
    eprintln!("per system: throughput {tput:.0?} p50 {p50:.1?} p99 {p99:.1?} setup {setup_s:.4?}");
    fill_outcome_counts(&mut o, &all);
    o.record.push((
        "shedding".into(),
        format!(
            "{{\"ring_shed\": {}, \"event_shed\": {}, \"echo_timeouts\": {}, \"audit_unread\": {}}}",
            shed[0], shed[1], shed[2], shed[3]
        ),
    ));
    let Some(tr) = &tracer else {
        o.end_to_end(&tput, &p50, &p99, &setup_s);
        return o;
    };

    let (app, engine, epoch, live) = last.expect("last system inspected");
    let wire_p50 = crate::report::lower_quartile(&p50);
    let deliver = in_process_deliver(&manifest, &pools, tr);
    m.set("controller.isolation.deliver_us", percentile(&deliver, 0.5));
    m.set(
        "controller.southbound.wire_tax_us",
        wire_p50 - percentile(&deliver, 0.5),
    );
    late.sort_by(f64::total_cmp);
    m.set("loadgen.late_p50_us", percentile(&late, 0.5));
    m.set("loadgen.late_p99_us", percentile(&late, 0.99));

    let inputs: Vec<(DatapathId, &Input)> = pools
        .iter()
        .flat_map(|p| p.timed.iter().map(move |i| (p.dpid, i)))
        .collect();
    let frames: Vec<&[u8]> = inputs.iter().map(|(_, i)| i.frame.as_slice()).collect();
    let outs: Vec<(DatapathId, PacketOut)> =
        inputs.iter().map(|(d, i)| (*d, i.po.clone())).collect();
    let ops: Vec<FlowOp> = inputs
        .iter()
        .filter_map(|(d, i)| i.fm.clone().map(|flow_mod| FlowOp { dpid: *d, flow_mod }))
        .collect();
    m.set(
        "openflow.southbound.decode_ns",
        probes::decode_ns(tr, &frames),
    );
    m.set(
        "openflow.wire.encode_ns",
        probes::encode_ns(tr, &outs, &ops),
    );
    m.engine(tr, &engine, &probes::wire_calls(app, &outs, &ops), epoch);
    let parsed = parse_manifest(&manifest).expect("manifest parses");
    let kp = probes::KernelProbe::new(CONNS as usize, &parsed);
    m.set(
        "controller.kernel.execute_ns.packet_outs",
        kp.packet_outs(tr, &outs),
    );
    m.set("controller.kernel.execute_ns.batch", kp.batch(tr, &ops));
    drop(kp);
    m.set("netsim.network.flow_entries", live.len() as f64);
    m.set(
        "netsim.network.apply_flow_mod_ns",
        probes::apply_flow_mod_ns(tr, CONNS as usize, &live),
    );
    // L2's compute plus the kernel's, per packet-in, with no crossing: the
    // same stream through the monolithic controller.
    let compute_ns = probes::monolithic_ns(tr, &parsed, &pools);

    // Handler spans of the traced closed slices: the saturating load.
    let spans = tr.spans();
    let handlers: Vec<&Span> = spans
        .iter()
        .filter(|s| {
            s.name == "apps.l2.handler" && windows.iter().any(|&(a, b)| s.start >= a && s.start < b)
        })
        .collect();
    let mut dur: Vec<f64> = handlers.iter().map(|s| s.dur_ns() as f64 / 1e3).collect();
    m.set("apps.handler_us", median(&mut dur));
    let items: u64 = handlers.iter().map(|s| u64::from(s.n)).sum();
    m.set(
        "apps.burst_len",
        items as f64 / handlers.len().max(1) as f64,
    );
    // Per crossing: the handler minus the burst's compute, over the
    // crossings a burst makes (send_packet_outs, plus submit_batch for
    // flow setup).
    let crossings = match kind {
        Kind::Flood => 1.0,
        Kind::FlowSetup => 2.0,
    };
    let mut crossing: Vec<f64> = handlers
        .iter()
        .map(|s| ((s.dur_ns() as f64 - compute_ns * f64::from(s.n)) / crossings / 1e3).max(0.0))
        .collect();
    m.set("controller.isolation.crossing_us", median(&mut crossing));
    m.set(
        "controller.isolation.dispatch_wait_us",
        probes::self_time_p50(&spans, "controller.isolation.deliver"),
    );
    let overhead_pct = median(&mut overhead);
    m.set("trace.overhead_pct", overhead_pct);
    m.set("trace.spans_dropped", tr.dropped() as f64);
    m.emit(&mut o);
    crate::trace::write_dump(tr, &args.workload, args.seed, overhead_pct);
    o
}

fn fill_outcome_counts(o: &mut Outcome, t: &Tally) {
    o.attempted = t.sent;
    o.failed = t.failed;
    o.record.push((
        "timed".into(),
        format!(
            "{{\"sent\": {}, \"ok\": {}, \"failed\": {}}}",
            t.sent, t.ok, t.failed
        ),
    ));
}

/// The output checks every wire run makes.
fn verify(
    kind: Kind,
    negative: bool,
    server: &Server,
    conns: &[Conn],
    pools: &[Pools],
    watch: &AuditWatch,
    o: &mut Outcome,
) {
    let kernel = server.controller.kernel();
    let stats = server.handle.stats();
    for c in conns {
        let b = &c.book;
        o.check(
            format!("dpid {}: every response matches a packet-in sent", c.dpid.0),
            b.wrong.is_empty(),
            if b.wrong.is_empty() {
                format!(
                    "packet_outs={} flow_mods={} late={} other={}",
                    b.packet_outs, b.flow_mods, b.late_responses, b.other_frames
                )
            } else {
                b.wrong.join("; ")
            },
        );
        o.check(
            format!("dpid {}: connection stayed up", c.dpid.0),
            c.error.is_none(),
            c.error.clone().unwrap_or_else(|| "ok".into()),
        );
    }
    o.check(
        "no protocol errors",
        stats.protocol_errors == 0,
        format!("protocol_errors={}", stats.protocol_errors),
    );
    match kind {
        Kind::Flood => {
            let fm: u64 = conns.iter().map(|c| c.book.flow_mods).sum();
            let flows: usize = pools.iter().map(|p| kernel.flow_count(p.dpid)).sum();
            o.check(
                "flood: no FLOW_MOD on the wire and no flow installed",
                fm == 0 && stats.flow_mods_tx == 0 && flows == 0,
                format!(
                    "flow_mods_rx={fm} flow_mods_tx={} flows={flows}",
                    stats.flow_mods_tx
                ),
            );
        }
        Kind::FlowSetup => {
            for (c, p) in conns.iter().zip(pools) {
                let sent: HashSet<EthAddr> = p
                    .warm
                    .iter()
                    .filter(|i| i.fm.is_some())
                    .chain(p.timed.iter().take(c.timed_pos))
                    .map(|i| i.dst)
                    .collect();
                let flows = kernel.flow_count(p.dpid);
                let (want, ok) = if negative && p.dpid != DatapathId(1) {
                    (0, flows == 0)
                } else if negative {
                    (sent.len(), flows <= sent.len())
                } else {
                    (sent.len(), flows == sent.len())
                };
                o.check(
                    format!(
                        "dpid {}: flow_count equals distinct destinations sent",
                        p.dpid.0
                    ),
                    ok,
                    format!("flow_count={flows} expected={want}"),
                );
            }
            if !negative {
                o.check(
                    "flowsetup: no denials",
                    watch.denied == 0,
                    format!("denied={}", watch.denied),
                );
            }
        }
    }
}

/// In-process delivery of the same stream on a wire-less controller with
/// the same configuration: the isolation layer's synchronous
/// `deliver_packet_in`, one request outstanding. Returns the deliver spans'
/// durations (µs, ascending); the spans themselves go to the tracer.
fn in_process_deliver(manifest: &str, pools: &[Pools], tracer: &Arc<Tracer>) -> Vec<f64> {
    let network = Network::new(builders::linear(CONNS as usize), 65_536);
    let controller = ShieldedController::new_with_config(network, ControllerConfig::default());
    controller.kernel().set_absorb_packet_outs(true);
    controller
        .register(
            l2_app(Some(tracer)),
            &parse_manifest(manifest).expect("manifest parses"),
        )
        .expect("L2 registers");
    for p in pools {
        for i in &p.warm {
            controller.deliver_packet_in(p.dpid, i.pi.clone());
        }
    }
    tracer.set_on(true);
    let end = Instant::now() + Duration::from_secs(1);
    let mut lat = Vec::new();
    let mut k = 0usize;
    while Instant::now() < end {
        let p = &pools[k % pools.len()];
        let input = &p.timed[(k / pools.len()) % p.timed.len()];
        k += 1;
        let id = tracer.id();
        tracer.current.store(id, Ordering::Release);
        let start = tracer.now();
        controller.deliver_packet_in(p.dpid, input.pi.clone());
        let stop = tracer.now();
        tracer.current.store(0, Ordering::Release);
        tracer.record(Span {
            name: "controller.isolation.deliver",
            start,
            end: stop,
            id,
            parent: 0,
            req: id,
            n: 1,
        });
        lat.push((stop - start) as f64 / 1e3);
    }
    tracer.set_on(false);
    controller.shutdown();
    lat.sort_by(f64::total_cmp);
    lat
}
