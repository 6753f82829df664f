//! Decision-trace model and text codec (DESIGN.md §14).
//!
//! `shieldcheck certify` replays a trace of runtime permission decisions
//! against the statically computed decision envelope. The kernel records
//! one [`TraceEvent`] per decision (plus registration events carrying the
//! manifest text each engine was compiled from); this module owns the
//! line-oriented interchange format shared by the controller-side recorder
//! and the analysis-side verifier — it lives in `core` because `controller`
//! already depends on `analysis` for the registration lint gate, so the
//! codec cannot live in either without a cycle.
//!
//! Format: one event per line, space-separated `key=value` tokens after a
//! leading event tag. Values are percent-escaped (`%`, space, `=`, and
//! control characters), so manifests and payloads round-trip. Calls
//! serialize their *permission-relevant projection* — the attributes
//! [`crate::eval`] inspects — and reconstruct with neutral defaults for the
//! rest (cookies, timeouts), which the evaluator never reads.

use crate::api::{ApiCall, ApiCallKind, AppId, EventKind};
use sdnshield_openflow::actions::{Action, ActionList};
use sdnshield_openflow::flow_match::{FlowMatch, MaskedIpv4};
use sdnshield_openflow::messages::{FlowMod, FlowModCommand, PacketOut, StatsRequest};
use sdnshield_openflow::types::{BufferId, DatapathId, EthAddr, Ipv4, PortNo, Priority};
use std::fmt;

/// One recorded runtime event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An app registered; `manifest` is the canonical manifest text the
    /// engine was compiled from (post-reconciliation).
    Register {
        /// The kernel-assigned app id the engine is keyed by.
        app: AppId,
        /// Human-readable app name.
        name: String,
        /// Canonical manifest text the engine was compiled from.
        manifest: String,
    },
    /// An app deregistered; later decisions for this id are out of envelope.
    Deregister {
        /// The id whose registration ended.
        app: AppId,
    },
    /// One permission decision. `lane` names the code path that decided
    /// (`deputy` for deputy calls and host sends, `fastlane`, `vectored`,
    /// `batch`).
    Decision {
        /// Code path that made the decision.
        lane: String,
        /// The runtime verdict.
        allowed: bool,
        /// The mediated call, in its permission-relevant projection.
        call: ApiCall,
    },
}

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone)]
pub struct TraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------------
// Escaping
// ---------------------------------------------------------------------------

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b' ' | b'=' | b'\n' | b'\r' | b'\t' => {
                out.push('%');
                out.push_str(&format!("{b:02x}"));
            }
            _ => out.push(b as char),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| "truncated escape".to_owned())?;
            let hex = std::str::from_utf8(hex).map_err(|_| "bad escape".to_owned())?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape %{hex}"))?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| "non-utf8 value".to_owned())
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

fn masked_to_string(m: &MaskedIpv4) -> String {
    format!("{}/{}", m.addr, m.mask)
}

fn masked_from_str(s: &str) -> Result<MaskedIpv4, String> {
    let (a, m) = s
        .split_once('/')
        .ok_or_else(|| format!("bad masked ip {s}"))?;
    let addr: Ipv4 = a.parse().map_err(|_| format!("bad ip {a}"))?;
    let mask: Ipv4 = m.parse().map_err(|_| format!("bad mask {m}"))?;
    Ok(MaskedIpv4::new(addr, mask))
}

fn match_to_string(m: &FlowMatch) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(p) = m.in_port {
        parts.push(format!("in_port:{}", p.0));
    }
    if let Some(e) = m.eth_src {
        parts.push(format!("eth_src:{e}"));
    }
    if let Some(e) = m.eth_dst {
        parts.push(format!("eth_dst:{e}"));
    }
    if let Some(t) = m.eth_type {
        parts.push(format!("eth_type:{t}"));
    }
    if let Some(v) = m.vlan_id {
        parts.push(format!("vlan_id:{v}"));
    }
    if let Some(v) = m.vlan_pcp {
        parts.push(format!("vlan_pcp:{v}"));
    }
    if let Some(ip) = &m.ip_src {
        parts.push(format!("ip_src:{}", masked_to_string(ip)));
    }
    if let Some(ip) = &m.ip_dst {
        parts.push(format!("ip_dst:{}", masked_to_string(ip)));
    }
    if let Some(p) = m.ip_proto {
        parts.push(format!("ip_proto:{p}"));
    }
    if let Some(t) = m.ip_tos {
        parts.push(format!("ip_tos:{t}"));
    }
    if let Some(p) = m.tp_src {
        parts.push(format!("tp_src:{p}"));
    }
    if let Some(p) = m.tp_dst {
        parts.push(format!("tp_dst:{p}"));
    }
    if parts.is_empty() {
        "any".to_owned()
    } else {
        parts.join(",")
    }
}

fn match_from_str(s: &str) -> Result<FlowMatch, String> {
    let mut m = FlowMatch::default();
    if s == "any" {
        return Ok(m);
    }
    for part in s.split(',') {
        let (key, val) = part
            .split_once(':')
            .ok_or_else(|| format!("bad match field {part}"))?;
        let num = |v: &str| v.parse::<u32>().map_err(|_| format!("bad number {v}"));
        match key {
            "in_port" => m.in_port = Some(PortNo(num(val)? as u16)),
            "eth_src" => m.eth_src = Some(val.parse::<EthAddr>().map_err(|e| e.to_string())?),
            "eth_dst" => m.eth_dst = Some(val.parse::<EthAddr>().map_err(|e| e.to_string())?),
            "eth_type" => m.eth_type = Some(num(val)? as u16),
            "vlan_id" => m.vlan_id = Some(num(val)? as u16),
            "vlan_pcp" => m.vlan_pcp = Some(num(val)? as u8),
            "ip_src" => m.ip_src = Some(masked_from_str(val)?),
            "ip_dst" => m.ip_dst = Some(masked_from_str(val)?),
            "ip_proto" => m.ip_proto = Some(num(val)? as u8),
            "ip_tos" => m.ip_tos = Some(num(val)? as u8),
            "tp_src" => m.tp_src = Some(num(val)? as u16),
            "tp_dst" => m.tp_dst = Some(num(val)? as u16),
            _ => return Err(format!("unknown match field {key}")),
        }
    }
    Ok(m)
}

fn actions_to_string(a: &ActionList) -> String {
    if a.0.is_empty() {
        return "drop".to_owned();
    }
    a.0.iter()
        .map(|act| match act {
            Action::Output(p) => format!("output:{}", p.0),
            Action::SetEthSrc(e) => format!("set_eth_src:{e}"),
            Action::SetEthDst(e) => format!("set_eth_dst:{e}"),
            Action::SetIpSrc(ip) => format!("set_ip_src:{ip}"),
            Action::SetIpDst(ip) => format!("set_ip_dst:{ip}"),
            Action::SetTpSrc(p) => format!("set_tp_src:{p}"),
            Action::SetTpDst(p) => format!("set_tp_dst:{p}"),
            Action::SetVlan(v) => format!("set_vlan:{v}"),
            Action::StripVlan => "strip_vlan".to_owned(),
            Action::Enqueue { port, queue_id } => format!("enqueue:{}:{}", port.0, queue_id),
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn actions_from_str(s: &str) -> Result<ActionList, String> {
    if s == "drop" {
        return Ok(ActionList::drop());
    }
    let mut out = Vec::new();
    for part in s.split(',') {
        let (name, val) = match part.split_once(':') {
            Some((n, v)) => (n, v),
            None => (part, ""),
        };
        let num = |v: &str| v.parse::<u32>().map_err(|_| format!("bad number {v}"));
        out.push(match name {
            "output" => Action::Output(PortNo(num(val)? as u16)),
            "set_eth_src" => Action::SetEthSrc(val.parse().map_err(|e| format!("{e:?}"))?),
            "set_eth_dst" => Action::SetEthDst(val.parse().map_err(|e| format!("{e:?}"))?),
            "set_ip_src" => Action::SetIpSrc(val.parse().map_err(|_| format!("bad ip {val}"))?),
            "set_ip_dst" => Action::SetIpDst(val.parse().map_err(|_| format!("bad ip {val}"))?),
            "set_tp_src" => Action::SetTpSrc(num(val)? as u16),
            "set_tp_dst" => Action::SetTpDst(num(val)? as u16),
            "set_vlan" => Action::SetVlan(num(val)? as u16),
            "strip_vlan" => Action::StripVlan,
            "enqueue" => {
                let (p, q) = val
                    .split_once(':')
                    .ok_or_else(|| format!("bad enqueue {val}"))?;
                Action::Enqueue {
                    port: PortNo(num(p)? as u16),
                    queue_id: num(q)?,
                }
            }
            _ => return Err(format!("unknown action {name}")),
        });
    }
    Ok(ActionList(out))
}

fn command_to_str(c: FlowModCommand) -> &'static str {
    match c {
        FlowModCommand::Add => "add",
        FlowModCommand::Modify => "modify",
        FlowModCommand::ModifyStrict => "modify_strict",
        FlowModCommand::Delete => "delete",
        FlowModCommand::DeleteStrict => "delete_strict",
    }
}

fn command_from_str(s: &str) -> Result<FlowModCommand, String> {
    Ok(match s {
        "add" => FlowModCommand::Add,
        "modify" => FlowModCommand::Modify,
        "modify_strict" => FlowModCommand::ModifyStrict,
        "delete" => FlowModCommand::Delete,
        "delete_strict" => FlowModCommand::DeleteStrict,
        _ => return Err(format!("unknown flow-mod command {s}")),
    })
}

fn hex_encode(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_owned();
    }
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex payload".to_owned());
    }
    (0..s.len() / 2)
        .map(|i| {
            u8::from_str_radix(&s[2 * i..2 * i + 2], 16).map_err(|_| "bad hex payload".to_owned())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Event encoding
// ---------------------------------------------------------------------------

fn push_kv(out: &mut String, key: &str, val: &str) {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    out.push_str(&escape(val));
}

fn encode_call(out: &mut String, call: &ApiCall) {
    push_kv(out, "app", &call.app.0.to_string());
    push_kv(out, "kind", call.kind.name());
    match &call.kind {
        ApiCallKind::ReadFlowTable { dpid, query } => {
            push_kv(out, "dpid", &dpid.0.to_string());
            push_kv(out, "match", &match_to_string(query));
        }
        ApiCallKind::InsertFlow { dpid, flow_mod } | ApiCallKind::DeleteFlow { dpid, flow_mod } => {
            push_kv(out, "dpid", &dpid.0.to_string());
            push_kv(out, "cmd", command_to_str(flow_mod.command));
            push_kv(out, "prio", &flow_mod.priority.0.to_string());
            push_kv(out, "match", &match_to_string(&flow_mod.flow_match));
            push_kv(out, "actions", &actions_to_string(&flow_mod.actions));
        }
        ApiCallKind::ReadTopology => {}
        ApiCallKind::ModifyTopology { dpid } | ApiCallKind::ReadPayload { dpid } => {
            push_kv(out, "dpid", &dpid.0.to_string());
        }
        ApiCallKind::ReadStatistics { dpid, request } => {
            push_kv(out, "dpid", &dpid.0.to_string());
            match request {
                StatsRequest::Flow(m) => {
                    push_kv(out, "stats", "flow");
                    push_kv(out, "match", &match_to_string(m));
                }
                StatsRequest::Aggregate(m) => {
                    push_kv(out, "stats", "aggregate");
                    push_kv(out, "match", &match_to_string(m));
                }
                StatsRequest::Port(p) => {
                    push_kv(out, "stats", "port");
                    push_kv(out, "port", &p.0.to_string());
                }
                StatsRequest::Table => push_kv(out, "stats", "table"),
            }
        }
        ApiCallKind::SendPacketOut { dpid, packet_out } => {
            push_kv(out, "dpid", &dpid.0.to_string());
            push_kv(out, "in_port", &packet_out.in_port.0.to_string());
            push_kv(out, "actions", &actions_to_string(&packet_out.actions));
            push_kv(out, "payload", &hex_encode(&packet_out.payload));
        }
        ApiCallKind::Subscribe { kind } => {
            let k = match kind {
                EventKind::PacketIn => "packet_in",
                EventKind::Flow => "flow",
                EventKind::Topology => "topology",
                EventKind::Error => "error",
            };
            push_kv(out, "event", k);
        }
        ApiCallKind::HostConnect { dst_ip, dst_port } => {
            push_kv(out, "dst_ip", &dst_ip.to_string());
            push_kv(out, "dst_port", &dst_port.to_string());
        }
        ApiCallKind::HostSend { conn, len } => {
            push_kv(out, "conn", &conn.to_string());
            push_kv(out, "len", &len.to_string());
        }
        ApiCallKind::FileOpen { path, write } => {
            push_kv(out, "path", path);
            push_kv(out, "write", if *write { "true" } else { "false" });
        }
        ApiCallKind::ProcessExec { program } => {
            push_kv(out, "program", program);
        }
    }
}

/// Encodes one event as a single line (no trailing newline).
pub fn write_event(ev: &TraceEvent) -> String {
    let mut out = String::new();
    match ev {
        TraceEvent::Register {
            app,
            name,
            manifest,
        } => {
            out.push_str("register");
            push_kv(&mut out, "app", &app.0.to_string());
            push_kv(&mut out, "name", name);
            push_kv(&mut out, "manifest", manifest);
        }
        TraceEvent::Deregister { app } => {
            out.push_str("deregister");
            push_kv(&mut out, "app", &app.0.to_string());
        }
        TraceEvent::Decision {
            lane,
            allowed,
            call,
        } => {
            out.push_str("decision");
            push_kv(&mut out, "lane", lane);
            push_kv(&mut out, "allowed", if *allowed { "true" } else { "false" });
            encode_call(&mut out, call);
        }
    }
    out
}

/// Encodes a full trace, one event per line, trailing newline included.
pub fn write_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&write_event(ev));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Event decoding
// ---------------------------------------------------------------------------

struct Fields {
    kvs: Vec<(String, String)>,
}

impl Fields {
    fn get(&self, key: &str) -> Result<&str, String> {
        self.kvs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing field {key}"))
    }
    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("bad number in field {key}"))
    }
    fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("bad bool {other} in field {key}")),
        }
    }
}

fn decode_flow_mod(f: &Fields) -> Result<FlowMod, String> {
    Ok(FlowMod {
        command: command_from_str(f.get("cmd")?)?,
        flow_match: match_from_str(f.get("match")?)?,
        priority: Priority(f.num("prio")?),
        actions: actions_from_str(f.get("actions")?)?,
        cookie: Default::default(),
        idle_timeout: 0,
        hard_timeout: 0,
        notify_when_removed: false,
    })
}

fn decode_call(f: &Fields) -> Result<ApiCall, String> {
    let app = AppId(f.num("app")?);
    let dpid = || -> Result<DatapathId, String> { Ok(DatapathId(f.num("dpid")?)) };
    let kind = match f.get("kind")? {
        "read_flow_table" => ApiCallKind::ReadFlowTable {
            dpid: dpid()?,
            query: match_from_str(f.get("match")?)?,
        },
        "insert_flow" => ApiCallKind::InsertFlow {
            dpid: dpid()?,
            flow_mod: decode_flow_mod(f)?,
        },
        "delete_flow" => ApiCallKind::DeleteFlow {
            dpid: dpid()?,
            flow_mod: decode_flow_mod(f)?,
        },
        "read_topology" => ApiCallKind::ReadTopology,
        "modify_topology" => ApiCallKind::ModifyTopology { dpid: dpid()? },
        "read_payload" => ApiCallKind::ReadPayload { dpid: dpid()? },
        "read_statistics" => {
            let request = match f.get("stats")? {
                "flow" => StatsRequest::Flow(match_from_str(f.get("match")?)?),
                "aggregate" => StatsRequest::Aggregate(match_from_str(f.get("match")?)?),
                "port" => StatsRequest::Port(PortNo(f.num("port")?)),
                "table" => StatsRequest::Table,
                other => return Err(format!("unknown stats kind {other}")),
            };
            ApiCallKind::ReadStatistics {
                dpid: dpid()?,
                request,
            }
        }
        "send_packet_out" => ApiCallKind::SendPacketOut {
            dpid: dpid()?,
            packet_out: PacketOut {
                buffer_id: BufferId::NO_BUFFER,
                in_port: PortNo(f.num("in_port")?),
                actions: actions_from_str(f.get("actions")?)?,
                payload: hex_decode(f.get("payload")?)?.into(),
            },
        },
        "subscribe" => ApiCallKind::Subscribe {
            kind: match f.get("event")? {
                "packet_in" => EventKind::PacketIn,
                "flow" => EventKind::Flow,
                "topology" => EventKind::Topology,
                "error" => EventKind::Error,
                other => return Err(format!("unknown event kind {other}")),
            },
        },
        "host_connect" => ApiCallKind::HostConnect {
            dst_ip: f
                .get("dst_ip")?
                .parse()
                .map_err(|_| "bad dst_ip".to_owned())?,
            dst_port: f.num("dst_port")?,
        },
        "host_send" => ApiCallKind::HostSend {
            conn: f.num("conn")?,
            len: f.num("len")?,
        },
        "file_open" => ApiCallKind::FileOpen {
            path: f.get("path")?.to_owned(),
            write: f.boolean("write")?,
        },
        "process_exec" => ApiCallKind::ProcessExec {
            program: f.get("program")?.to_owned(),
        },
        other => return Err(format!("unknown call kind {other}")),
    };
    Ok(ApiCall { app, kind })
}

fn parse_line(line: &str) -> Result<Option<TraceEvent>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut tokens = line.split(' ');
    let tag = tokens.next().unwrap();
    let mut kvs = Vec::new();
    for tok in tokens {
        if tok.is_empty() {
            continue;
        }
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad token {tok}"))?;
        kvs.push((k.to_owned(), unescape(v)?));
    }
    let f = Fields { kvs };
    let ev = match tag {
        "register" => TraceEvent::Register {
            app: AppId(f.num("app")?),
            name: f.get("name")?.to_owned(),
            manifest: f.get("manifest")?.to_owned(),
        },
        "deregister" => TraceEvent::Deregister {
            app: AppId(f.num("app")?),
        },
        "decision" => TraceEvent::Decision {
            lane: f.get("lane")?.to_owned(),
            allowed: f.boolean("allowed")?,
            call: decode_call(&f)?,
        },
        other => return Err(format!("unknown event tag {other}")),
    };
    Ok(Some(ev))
}

/// Parses a trace. Blank lines and `#` comments are skipped.
pub fn parse_trace(src: &str) -> Result<Vec<TraceEvent>, TraceError> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        match parse_line(line) {
            Ok(Some(ev)) => out.push(ev),
            Ok(None) => {}
            Err(msg) => return Err(TraceError { line: i + 1, msg }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: TraceEvent) {
        let line = write_event(&ev);
        let parsed = parse_trace(&format!("{line}\n")).expect("parse");
        assert_eq!(parsed, vec![ev], "line: {line}");
    }

    #[test]
    fn register_roundtrips_with_escaping() {
        roundtrip(TraceEvent::Register {
            app: AppId(7),
            name: "fwd app".into(),
            manifest: "PERM insert_flow LIMITING SWITCH 1 OR SWITCH 2\nPERM pkt_in_event".into(),
        });
    }

    #[test]
    fn decisions_roundtrip() {
        let fm = FlowMod::add(
            FlowMatch::default()
                .with_ip_dst_prefix(Ipv4::new(10, 0, 0, 0), 24)
                .with_tcp_dst(80),
            Priority(100),
            ActionList::output(PortNo(3)),
        );
        roundtrip(TraceEvent::Decision {
            lane: "deputy".into(),
            allowed: true,
            call: ApiCall {
                app: AppId(1),
                kind: ApiCallKind::InsertFlow {
                    dpid: DatapathId(2),
                    flow_mod: fm,
                },
            },
        });
        roundtrip(TraceEvent::Decision {
            lane: "vectored".into(),
            allowed: false,
            call: ApiCall {
                app: AppId(3),
                kind: ApiCallKind::SendPacketOut {
                    dpid: DatapathId(1),
                    packet_out: PacketOut {
                        buffer_id: BufferId::NO_BUFFER,
                        in_port: PortNo(2),
                        actions: ActionList::output(PortNo(1)),
                        payload: vec![0xde, 0xad, 0xbe, 0xef].into(),
                    },
                },
            },
        });
        roundtrip(TraceEvent::Decision {
            lane: "fastlane".into(),
            allowed: true,
            call: ApiCall {
                app: AppId(1),
                kind: ApiCallKind::ReadStatistics {
                    dpid: DatapathId(1),
                    request: StatsRequest::Aggregate(FlowMatch::default()),
                },
            },
        });
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_trace("register app=1 name=x manifest=y\nbogus\n").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
