//! Metrics, output checks, the result line and the run record.

use std::fmt::Write as _;
use std::path::Path;

use crate::Args;

/// Where run records and span dumps go, relative to the checkout root.
pub const RESULTS_DIR: &str = "perfbench/results";

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything a run measured and verified.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed requests (packet-ins or chains) sent.
    pub attempted: u64,
    /// Timed requests missing after the grace drain, answered with the
    /// wrong kind, or denied.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Extra run-record fields (already JSON-encoded values).
    pub record: Vec<(String, String)>,
    /// VmHWM once the first system has been measured: set-up, inputs and
    /// one system under load, before later systems' allocator churn.
    pub peak_rss_mb: f64,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Records a check. A check made again (once per system) passes only
    /// if it passed every time; the detail of the first failure is kept.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        let name = name.into();
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if c.passed && !passed => {
                c.passed = false;
                c.detail = detail.into();
            }
            Some(c) if c.passed => c.detail = detail.into(),
            Some(_) => {}
            None => self.checks.push(Check {
                name,
                passed,
                detail: detail.into(),
            }),
        }
    }

    /// Reports the end-to-end metrics from per-system values — the median
    /// system's throughput, the lower quartile of the systems' p50, the
    /// best system's p99 — and keeps every system's values, with their
    /// spread, in the run record.
    pub fn end_to_end(&mut self, tput: &[f64], p50: &[f64], p99: &[f64], setup_s: &[f64]) {
        self.metric("throughput_rps", median(&mut tput.to_vec()), "1/s");
        self.metric("latency_p50_us", lower_quartile(p50), "us");
        self.metric("latency_p99_us", min(p99), "us");
        self.metric("answered_frac", self.answered_frac(), "frac");
        self.metric("setup_s", median(&mut setup_s.to_vec()), "s");
        for (name, v) in [
            ("systems_throughput_rps", tput),
            ("systems_latency_p50_us", p50),
            ("systems_latency_p99_us", p99),
            ("systems_setup_s", setup_s),
        ] {
            self.record.push((name.into(), json_array(v)));
            self.record.push((format!("{name}_cv"), json_num(cv(v))));
        }
    }

    /// Share of attempted requests that were answered.
    pub fn answered_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Did every output check pass?
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The benchmark's result line.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit Rust's shortest round-trip form gives.
/// Non-finite values cannot be encoded; they indicate a bug upstream.
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x}")
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1); 0 for an
/// empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The smallest value (0 for none).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The lower quartile of `values` (0 for none).
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.25)
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    if mean == 0.0 {
        0.0
    } else {
        var.sqrt() / mean
    }
}

/// JSON array of numbers.
pub fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// Sorts in place and returns the median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// The process's peak resident set so far (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` in the working directory
/// (the benchmark may run from an exported tree without one).
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes `perfbench/results/<workload>-seed<seed>-trace<t>.json`: the run's
/// identity (seed, host parallelism, commit), metrics, checks and extras.
/// A failure to write is reported but does not fail the run.
pub fn write_run_record(args: &Args, host_parallelism: usize, commit: &str, o: &Outcome) {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", json_str(&args.workload));
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(s, "  \"trace\": {},", args.trace);
    let _ = writeln!(s, "  \"negative_self_test\": {},", args.negative);
    let _ = writeln!(s, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(s, "  \"commit\": {},", json_str(commit));
    for (k, v) in &o.record {
        let _ = writeln!(s, "  {}: {},", json_str(k), v);
    }
    s.push_str("  \"checks\": [\n");
    for (i, c) in o.checks.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"passed\": {}, \"detail\": {}}}{}",
            json_str(&c.name),
            c.passed,
            json_str(&c.detail),
            if i + 1 < o.checks.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(s, "  \"result\": {}", o.result_line());
    s.push_str("}\n");
    let path = format!(
        "{RESULTS_DIR}/{}{}-seed{}-trace{}.json",
        args.workload,
        if args.negative { "-negative" } else { "" },
        args.seed,
        args.trace as u8
    );
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, s)) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}
