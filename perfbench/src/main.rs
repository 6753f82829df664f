//! `sdnshield-perfbench` — the repository benchmark.
//!
//! Drives the shipped controller from outside, through public functions
//! only, with the configuration `sdnshield southbound serve` ships
//! (`ControllerConfig::default()`, `SouthboundConfig::default()`, CBench
//! absorb mode, no journal):
//!
//! * `wire_flood` — CBench flood over loopback: ARP broadcasts, one
//!   PACKET_OUT per packet-in;
//! * `wire_flowsetup` — flow setup over loopback: TCP SYNs to learned hosts,
//!   one FLOW_MOD and one PACKET_OUT per packet-in, under a `SWITCH` filter;
//! * `alto_chain` — the ALTO → TE mediation chain in process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--negative-self-test]
//! ```
//!
//! The last line on stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). A run record (and with `--trace 1` a span
//! dump) lands in `perfbench/results/`. See `perfbench/README.md`.

mod alto;
mod audit;
mod probes;
mod report;
mod trace;
mod wire;

use std::process::ExitCode;
use std::time::Duration;

use report::Metric;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Registers `wire_flowsetup`'s L2 with `insert_flow LIMITING SWITCH 1`:
    /// every dpid-2 flow-mod is denied and must surface as failed
    /// packet-ins.
    pub negative: bool,
}

/// Workload names. `BENCHMARK.json` lists the two wire workloads;
/// `alto_chain` runs by hand (see `perfbench/README.md`).
pub const WORKLOADS: [&str; 3] = ["wire_flood", "wire_flowsetup", "alto_chain"];

impl Args {
    /// Systems the run builds, measures for one slice each, and tears
    /// down: one per measured second. The host's speed shifts in stretches
    /// of seconds, so end-to-end metrics summarize across systems: the
    /// median system's throughput, the lower quartile of the systems' p50,
    /// and the best system's p99 — a host stall of a few milliseconds,
    /// common on a shared host, decides the p99 of any slice it hits, and
    /// only ever raises it. `setup_s` is the median.
    pub fn systems(&self) -> u32 {
        self.seconds as u32
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut negative = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--negative-self-test" {
            negative = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    if negative && workload != "wire_flowsetup" {
        return Err("--negative-self-test applies to wire_flowsetup only".into());
    }
    let seconds: u64 = seconds.ok_or("missing --seconds")?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be within 1..=120".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        negative,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = report::git_commit();
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} negative={} host_parallelism={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.negative,
        host_parallelism,
        commit
    );
    let duration = Duration::from_secs(args.seconds);
    let mut outcome = match args.workload.as_str() {
        "wire_flood" => wire::run(wire::Kind::Flood, &args, duration),
        "wire_flowsetup" => wire::run(wire::Kind::FlowSetup, &args, duration),
        "alto_chain" => alto::run(&args, duration),
        _ => unreachable!("validated in parse_args"),
    };
    if !args.trace {
        let rss = outcome.peak_rss_mb;
        outcome.metrics.push(Metric::new("peak_rss_mb", rss, "MB"));
    }
    if args.negative {
        // The self-test passes when the denied flow-mods surface as failed
        // packet-ins; a clean run would mean denials read as speed.
        let surfaced = outcome.failed > 0;
        outcome.check(
            "negative self-test: denied dpid-2 flow-mods counted as failed",
            surfaced,
            format!(
                "failed={} of attempted={}",
                outcome.failed, outcome.attempted
            ),
        );
    }
    report::write_run_record(&args, host_parallelism, &commit, &outcome);
    for c in &outcome.checks {
        eprintln!(
            "check {}: {} ({})",
            if c.passed { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: wrong output — see the failed checks above");
        ExitCode::from(1)
    }
}
