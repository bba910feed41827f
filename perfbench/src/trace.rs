//! The traced run of the sweep workloads.
//!
//! Phase 1 runs the sweep once through the program. For the lab workloads
//! that is `engine::execute` with `--telemetry`, what `ale-lab run`
//! calls, and the lab figures come from the engine's own spans: `expand`
//! (`lab.expand_s`), `bind` (`lab.bind_s`), the trial fleet's
//! `worker-batch` spans (its wall time and `lab.worker_idle_s`), `trial`
//! (`lab.trial_busy_s`) and `store-write` (`store.finish_s`). async-faults
//! has no lab engine: its phase 1 builds the graphs (reported as
//! `lab.bind_s`) and runs the end-to-end run's `run_revocable_async`
//! fleet. Phase 2 is the layer replay of every trial on one thread with a
//! span around each layer call. Phase 3, for the workloads that keep a
//! store, journals phase 1's records again through `RunWriter::put`, which
//! has no span of its own, to time it (`store.put_us`). The phases make up
//! the traced wall time:
//!
//! ```text
//! trace.wall_s = lab.expand_s + lab.bind_s + fleet wall + store.finish_s
//!              + (phase-2 layer spans) + (phase-3 puts) + lab.unattributed_s
//! fleet wall   = (Σ worker-batch wall + lab.worker_idle_s) / workers
//! ```
//!
//! The replay must reproduce phase 1's deterministic counters exactly;
//! each trial on a point that does not counts as failed. The tracing
//! overhead is the replay's wall time against the same replay with its
//! timers off, and the telemetry sink's is phase 1 against the same
//! sweep without `--telemetry`, run before and after it. Both baselines
//! run after a warm-up sweep.

use crate::check::{self, Replay};
use crate::replay::{Counts, Layers, Mode};
use crate::sweep::{async_setup, async_sweep};
use crate::workload::{LabSweep, PlannedPoint, Size, Workload, WORKERS};
use crate::{fresh_dir, workload, Outcome};
use ale_lab::engine::execute;
use ale_lab::json::{self, Value};
use ale_lab::runners::Algorithm;
use ale_lab::scenario::TrialRecord;
use ale_lab::store::{load_manifest, RunWriter, TrialKey};
use std::path::Path;
use std::time::Instant;

/// Timings and outputs of phase 1 (and the puts of phase 3).
#[derive(Debug, Default)]
pub struct ProgramPass {
    pub wall_s: f64,
    pub expand_s: f64,
    pub bind_s: f64,
    pub fleet_s: f64,
    pub busy_s: f64,
    pub idle_s: f64,
    pub finish_s: f64,
    pub put_s: f64,
    pub puts: u64,
    pub db_bytes: u64,
    pub views_bytes: u64,
    /// Per-trial counters in task order (`None` for a trial that erred).
    pub counts: Vec<Option<Counts>>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// A completed span of a telemetry file: name, end and wall time (µs).
struct SpanEvent {
    name: String,
    end_us: u64,
    wall_us: u64,
}

/// Reads the span events of a telemetry JSONL file.
///
/// # Errors
///
/// An unreadable file or a malformed line.
fn spans(path: &Path) -> Result<Vec<SpanEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let v = json::parse(line).map_err(|e| format!("telemetry line: {e}"))?;
        if v.get("ev").and_then(Value::as_str) != Some("span") {
            continue;
        }
        let field = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        out.push(SpanEvent {
            name: v.get("name").and_then(Value::as_str).unwrap_or("").into(),
            end_us: field("ts_us"),
            wall_us: field("wall_us"),
        });
    }
    Ok(out)
}

/// Folds the engine's spans into phase-1 figures.
///
/// # Errors
///
/// A telemetry file without the engine's `expand` or `bind` span.
fn engine_spans(path: &Path, p: &mut ProgramPass) -> Result<(), String> {
    let events = spans(path)?;
    let us = |v: u64| v as f64 / 1e6;
    let one = |name: &str| {
        events
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("telemetry has no {name} span"))
    };
    p.expand_s = us(one("expand")?.wall_us);
    let bind = one("bind")?;
    p.bind_s = us(bind.wall_us);
    // The bind fleet's batches end inside the bind span; the trial
    // fleet's after it.
    let batches: Vec<f64> = events
        .iter()
        .filter(|e| e.name == "worker-batch" && e.end_us > bind.end_us)
        .map(|e| us(e.wall_us))
        .collect();
    p.fleet_s = batches.iter().copied().fold(0.0, f64::max);
    p.idle_s = batches.len() as f64 * p.fleet_s - batches.iter().sum::<f64>();
    let total = |name: &str| {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| us(e.wall_us))
            .fold(0.0, |a, b| a + b)
    };
    p.busy_s = total("trial");
    p.finish_s = total("store-write");
    Ok(())
}

/// Journals `records` again under a fresh copy of the run's manifest,
/// timing each `RunWriter::put`: `(seconds, puts)`.
///
/// # Errors
///
/// Store failures.
fn time_puts(
    run: &Path,
    plan: &[PlannedPoint],
    records: &[TrialRecord],
    dir: &Path,
) -> Result<(f64, u64), String> {
    let manifest = load_manifest(&run.join("manifest.json")).map_err(|e| e.to_string())?;
    let positions = manifest.effective_positions();
    let writer = RunWriter::create(dir, &manifest).map_err(|e| e.to_string())?;
    let mut put_s = 0.0;
    for (r, &(pi, si)) in records.iter().zip(&check::tasks(plan)) {
        let key = TrialKey {
            scenario: manifest.scenario.clone(),
            space_hash: manifest.space_hash,
            position: positions[pi],
            seed_index: si,
        };
        let t = Instant::now();
        writer.put(&key, r).map_err(|e| e.to_string())?;
        put_s += secs(t);
    }
    Ok((put_s, records.len() as u64))
}

/// Phase 1 of a lab workload: `execute` with telemetry into `dir`, then
/// (outside the phase's wall time) its spans and store sizes, and the
/// phase-3 puts.
///
/// # Errors
///
/// Sweep, telemetry or store failures.
fn lab_program_pass(
    w: Workload,
    s: &LabSweep,
    plan: &[PlannedPoint],
    master: u64,
    dir: &Path,
) -> Result<ProgramPass, String> {
    let run = dir.join("run");
    let telemetry = dir.join("telemetry.jsonl");
    let mut spec = s.spec(master, s.store.then(|| run.clone()));
    spec.telemetry = Some(telemetry.clone());
    let t = Instant::now();
    let output = execute(s.scenario.as_ref(), &spec).map_err(|e| e.to_string())?;
    let mut p = ProgramPass {
        wall_s: secs(t),
        counts: output
            .records
            .iter()
            .map(|r| Some(check::counts_of_record(w, r)))
            .collect(),
        ..ProgramPass::default()
    };
    engine_spans(&telemetry, &mut p)?;
    if s.store {
        p.db_bytes = file_len(&run.join("trials.db"));
        p.views_bytes = ["trials.jsonl", "trials.csv", "summary.csv"]
            .iter()
            .map(|f| file_len(&run.join(f)))
            .sum();
        (p.put_s, p.puts) = time_puts(&run, plan, &output.records, &dir.join("puts"))?;
    }
    Ok(p)
}

/// async-faults' phase 1: graph builds in the bind role, then the
/// `run_revocable_async` fleet (no expansion, no store).
fn async_program_pass(plan: &[PlannedPoint], master: u64) -> Result<ProgramPass, String> {
    let mut p = ProgramPass::default();
    let start = Instant::now();
    let graphs = async_setup(plan)?;
    p.bind_s = secs(start);
    let t = Instant::now();
    let results = async_sweep(plan, &graphs, master);
    p.fleet_s = secs(t);
    p.wall_s = secs(start);
    for r in results {
        match r {
            Ok((c, s)) => {
                p.busy_s += s;
                p.counts.push(Some(c));
            }
            Err(_) => p.counts.push(None),
        }
    }
    p.idle_s = (WORKERS as f64 * p.fleet_s - p.busy_s).max(0.0);
    Ok(p)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Records the per-layer metrics a sweep's trace yields.
fn layer_metrics(out: &mut Outcome, p: &ProgramPass, l: &Layers) {
    out.set("graph.build_s", l.graph_build_s);
    out.set("graph.props_s", l.graph_props_s);
    out.set("graph.spectral_gap_s", l.graph_spectral_gap_s);
    out.set("markov.chain_build_s", l.chain_build_s);
    out.set(
        "markov.step_ns_per_nnz",
        ratio(l.chain_step_s * 1e9, l.markov_nnz_steps as f64),
    );
    out.set("markov.steps", l.markov_steps as f64);
    out.set("congest.construct_s", l.construct_s);
    out.set("congest.step_s", l.step_s);
    out.set(
        "congest.ns_per_msg",
        ratio(l.step_s * 1e9, l.messages as f64),
    );
    out.set(
        "congest.ns_per_round",
        ratio(l.step_s * 1e9, l.rounds as f64),
    );
    out.set("congest.rounds", l.rounds as f64);
    out.set("congest.messages", l.messages as f64);
    out.set("congest.bits", l.bits as f64);
    out.set("congest.active_node_rounds", l.active_node_rounds as f64);
    out.set(
        "congest.msgs_per_active_node_round",
        ratio(l.messages as f64, l.active_node_rounds as f64),
    );
    out.set("async.step_s", l.async_step_s);
    out.set(
        "async.ns_per_delivered",
        ratio(l.async_step_s * 1e9, l.async_delivered as f64),
    );
    out.set("async.in_flight_peak", l.async_in_flight_peak as f64);
    out.set("async.delivered", l.async_delivered as f64);
    out.set("async.dropped", l.async_dropped as f64);
    out.set("async.duplicated", l.async_duplicated as f64);
    out.set("async.ticks", l.async_ticks as f64);
    out.set("core.oracle_s", l.oracle_s);
    for (alg, (total, n)) in Algorithm::ALL.iter().zip(l.trial) {
        let layer = if *alg == Algorithm::ThisWork {
            "core"
        } else {
            "baselines"
        };
        out.set(&format!("{layer}.trial_s.{alg}"), ratio(total, n as f64));
    }
    out.set("lab.expand_s", p.expand_s);
    out.set("lab.bind_s", p.bind_s);
    out.set("lab.trial_busy_s", p.busy_s);
    out.set("lab.worker_idle_s", p.idle_s);
    out.set("store.put_us", ratio(p.put_s * 1e6, p.puts as f64));
    out.set("store.finish_s", p.finish_s);
    out.set("store.db_bytes", p.db_bytes as f64);
    out.set("store.views_bytes", p.views_bytes as f64);
}

/// Layer time the reconciliation attributes for a sweep.
fn attributed_s(p: &ProgramPass, l: &Layers) -> f64 {
    p.expand_s + p.bind_s + p.fleet_s + p.finish_s + p.put_s + l.attributed_s()
}

/// Traced run of a sweep workload.
///
/// # Errors
///
/// Set-up, sweep or replay failures.
pub fn run_traced(w: Workload, size: Size, seed: u64, work: &Path) -> Result<Outcome, String> {
    let plan = workload::plan(w, size).map_err(|e| e.to_string())?;
    let sweep = workload::lab_sweep(w, size);
    let dir = work.join("traced");
    fresh_dir(&dir)?;

    let plain_sweep = |name: &str| -> Result<f64, String> {
        let Some(s) = &sweep else {
            return Ok(0.0);
        };
        let t = Instant::now();
        execute(
            s.scenario.as_ref(),
            &s.spec(seed, s.store.then(|| dir.join(name))),
        )
        .map_err(|e| e.to_string())?;
        Ok(secs(t))
    };
    // The process's first sweep pays one-time costs (the allocator's
    // arenas for the fleet's threads, first-touch pages), so it only warms
    // up; both overhead baselines, the untimed replay and the plain sweep,
    // run after it.
    plain_sweep("warm-up")?;
    let untraced = check::replay_all(w, &plan, seed, 1, Mode::Untimed)?;
    // Plain sweeps on both sides of the program pass, so a drift in the
    // host's speed does not read as the sink's overhead.
    let before_s = plain_sweep("before")?;
    let pass = match &sweep {
        Some(s) => lab_program_pass(w, s, &plan, seed, &dir)?,
        None => async_program_pass(&plan, seed)?,
    };
    let plain_s = (before_s + plain_sweep("after")?) / 2.0;
    let replay: Replay = check::replay_all(w, &plan, seed, 1, Mode::Traced)?;
    let wall_s = pass.wall_s + pass.put_s + replay.wall_s;

    let mut out = Outcome {
        attempted: pass.counts.len() as u64,
        ..Outcome::default()
    };
    let reference = check::rows(w, &plan, &replay.counts);
    let observed: Option<Vec<Counts>> = pass.counts.iter().copied().collect();
    out.failed = match observed {
        Some(c) => check::failed_trials(&reference, &check::rows(w, &plan, &c)),
        None => out.attempted,
    };
    layer_metrics(&mut out, &pass, &replay.layers);
    let sink_overhead = if sweep.is_some() {
        100.0 * (pass.wall_s - plain_s) / plain_s
    } else {
        0.0
    };
    out.set("telemetry.sink_overhead_pct", sink_overhead);
    out.set(
        "lab.unattributed_s",
        wall_s - attributed_s(&pass, &replay.layers),
    );
    out.set("trace.wall_s", wall_s);
    out.set("trace.untraced_s", untraced.wall_s);
    out.set(
        "trace.overhead_pct",
        100.0 * (replay.wall_s - untraced.wall_s) / untraced.wall_s,
    );
    out.zero_unset(&crate::per_layer());
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(out)
}
