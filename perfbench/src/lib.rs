//! `perfbench` — the repository's benchmark.
//!
//! One command runs one named workload for a fixed time and prints, as its
//! last line, one JSON object: whether every output checked out, how many
//! operations were attempted and failed, and the metrics. With tracing off
//! the metrics are the end-to-end ones ([`END_TO_END`]); the traced run
//! replays the same inputs through each layer's public calls and reports
//! the per-layer ones ([`PER_LAYER`]). `README.md` next to this crate
//! documents the workloads, the metrics and what each should predict.

pub mod check;
pub mod replay;
pub mod serve;
pub mod sweep;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::path::Path;

pub use workload::{Size, Workload};

/// End-to-end metrics, reported by every workload with tracing off:
/// `(name, unit)`. Times are CPU time of the benchmark's process (see
/// [`cpu_s`]).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_cpu_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// HTTP routes of the results-serve mix, as they appear in metric names.
pub const ROUTES: [&str; 5] = ["summary", "trials_point", "trials", "tail", "runs"];

/// Per-layer metrics of the traced run, reported by every workload (a layer
/// a workload bypasses reads 0): `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("graph.build_s", "s"),
        ("graph.props_s", "s"),
        ("graph.spectral_gap_s", "s"),
        ("markov.chain_build_s", "s"),
        ("markov.step_ns_per_nnz", "ns"),
        ("markov.steps", "count"),
        ("congest.construct_s", "s"),
        ("congest.step_s", "s"),
        ("congest.ns_per_msg", "ns"),
        ("congest.ns_per_round", "ns"),
        ("congest.rounds", "count"),
        ("congest.messages", "count"),
        ("congest.bits", "count"),
        ("congest.active_node_rounds", "count"),
        ("congest.msgs_per_active_node_round", "ratio"),
        ("async.step_s", "s"),
        ("async.ns_per_delivered", "ns"),
        ("async.in_flight_peak", "count"),
        ("async.delivered", "count"),
        ("async.dropped", "count"),
        ("async.duplicated", "count"),
        ("async.ticks", "count"),
        ("core.oracle_s", "s"),
        ("core.trial_s.this-work", "s"),
        ("baselines.trial_s.gilbert18", "s"),
        ("baselines.trial_s.kutten15", "s"),
        ("baselines.trial_s.flood-chg", "s"),
        ("baselines.trial_s.flood-all", "s"),
        ("lab.expand_s", "s"),
        ("lab.bind_s", "s"),
        ("lab.trial_busy_s", "s"),
        ("lab.worker_idle_s", "s"),
        ("store.put_us", "us"),
        ("store.finish_s", "s"),
        ("store.db_bytes", "bytes"),
        ("store.views_bytes", "bytes"),
        ("db.open_read_s", "s"),
        ("db.scan_mb_per_s", "MB/s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for r in ROUTES {
        m.push((format!("serve.handle_ms.{r}"), "ms"));
    }
    for r in ROUTES {
        m.push((format!("serve.bytes.{r}"), "bytes"));
    }
    m.extend(
        [
            ("serve.transport_ms", "ms"),
            ("telemetry.sink_overhead_pct", "%"),
            ("lab.unattributed_s", "s"),
            ("trace.wall_s", "s"),
            ("trace.untraced_s", "s"),
            ("trace.overhead_pct", "%"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    m
}

/// What one run of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (trials or requests) attempted.
    pub attempted: u64,
    /// Operations that errored or failed the output check.
    pub failed: u64,
    /// `(name, value)`; units come from [`END_TO_END`] / [`per_layer`].
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Sets every metric of `names` not recorded yet to 0: the layers a
    /// workload bypasses.
    pub fn zero_unset(&mut self, names: &[(String, &str)]) {
        for (name, _) in names {
            if self.get(name).is_none() {
                self.set(name, 0.0);
            }
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`,
    /// with the metrics in `names` order.
    ///
    /// # Errors
    ///
    /// A named metric that was not recorded, or one that is not finite.
    pub fn to_json(&self, names: &[(String, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to string");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Runs one workload: end to end (`traced == false`) or traced. `work` is
/// a scratch directory the run may fill and must leave to the caller.
///
/// # Errors
///
/// A set-up failure that leaves nothing to measure.
pub fn run(
    w: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    match (w, traced) {
        (Workload::ResultsServe, false) => serve::run_e2e(size, seed, seconds, work),
        (Workload::ResultsServe, true) => serve::run_traced(size, seed, work),
        (_, false) => sweep::run_e2e(w, size, seed, seconds, work),
        (_, true) => trace::run_traced(w, size, seed, work),
    }
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The mean of `v` (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// CPU time used so far by this process, all its threads together, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// A workload runs one worker thread, so this is its wall time on an idle
/// core. Unlike wall time it leaves out time the core spent on other
/// programs and time the hypervisor took from the machine. It does not
/// absorb a host that runs the process's own code slower.
pub fn cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec`, and the clock id is
    // one every Linux kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Creates `dir` afresh (removing what a previous pass left).
///
/// # Errors
///
/// Filesystem failures.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}
