//! End-to-end runs of the four sweep workloads, tracing off.
//!
//! A run runs whole sweeps until the measuring time is used up, with
//! repeated set-ups between them (`setup_s` is their median), and reads
//! the peak resident set. The time metrics are medians over the sweeps,
//! in CPU seconds. Only then does it compute the reference counters with
//! the layer replay, so the replay's memory stays out of `peak_rss_mb`,
//! and check every sweep's trials against them.

use crate::check;
use crate::replay::{Counts, Mode};
use crate::workload::{self, LabSweep, PlannedPoint, Size, Workload, WORKERS};
use crate::{cpu_s, fresh_dir, median, peak_rss_mb, Outcome};
use ale_core::revocable::run_revocable_async;
use ale_graph::Graph;
use ale_lab::engine::execute;
use ale_lab::fleet;
use std::path::Path;
use std::time::Instant;

/// Set-up repetitions: at least `MIN`, and as many as `BUDGET_S` CPU
/// seconds of set-up hold, so a millisecond set-up is repeated hundreds of
/// times and still gets a steady median.
const SETUP_MIN: usize = 3;
const SETUP_BUDGET_S: f64 = 2.0;

/// Set-up repetitions, timed in CPU seconds.
#[derive(Debug, Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Repeats `f` until at least `min` repetitions and `budget_s` CPU
    /// seconds of set-up are recorded.
    ///
    /// # Errors
    ///
    /// The first failing set-up.
    pub fn until(
        &mut self,
        min: usize,
        budget_s: f64,
        mut f: impl FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        while self.0.len() < min || self.0.iter().sum::<f64>() < budget_s {
            let t = cpu_s();
            f()?;
            self.0.push(cpu_s() - t);
        }
        Ok(())
    }

    /// The median repetition.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Times `f` at least `SETUP_MIN` times, and until `SETUP_BUDGET_S` is
/// used up, and returns the median in CPU seconds.
///
/// # Errors
///
/// The first failing set-up.
pub fn repeated_setup(f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut setups = Setups::default();
    setups.until(SETUP_MIN, SETUP_BUDGET_S, f)?;
    Ok(setups.median())
}

/// The lab engine's set-up: expand the space, then bind every point on
/// the worker fleet — everything before the first trial can start.
///
/// # Errors
///
/// Expansion or bind failures.
pub fn lab_setup(sweep: &LabSweep) -> Result<(), String> {
    let points = sweep
        .scenario
        .space()
        .expand(&sweep.grid)
        .map_err(|e| e.to_string())?
        .points;
    let binders = fleet::run_indexed(points.len(), WORKERS, |i| sweep.scenario.bind(&points[i]));
    binders
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Builds async-faults' graphs (its only set-up).
///
/// # Errors
///
/// Generator failures.
pub fn async_setup(plan: &[PlannedPoint]) -> Result<Vec<Graph>, String> {
    plan.iter()
        .map(|p| {
            let topo = p
                .point
                .topology
                .as_ref()
                .expect("async points have topologies");
            topo.build(Workload::AsyncFaults.graph_seed())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// One async-faults sweep: every trial through `run_revocable_async` on
/// the worker fleet. Returns per-trial `(counts, wall seconds)`, or the
/// trial's error.
pub fn async_sweep(
    plan: &[PlannedPoint],
    graphs: &[Graph],
    master: u64,
) -> Vec<Result<(Counts, f64), String>> {
    let tasks = check::tasks(plan);
    let params = workload::ladder_params();
    let exec = workload::fault_exec();
    fleet::run_indexed(tasks.len(), WORKERS, |t| {
        let (pi, si) = tasks[t];
        let start = Instant::now();
        let run = run_revocable_async(
            &graphs[pi],
            &params,
            fleet::derive_seed(master, pi as u64, si),
            workload::LADDER_MAX_K,
            &exec,
        )
        .map_err(|e| e.to_string())?;
        let m = &run.outcome.metrics;
        Ok((
            Counts {
                rounds: m.rounds,
                messages: m.messages,
                bits: m.bits,
                delivered: m.delivered,
                dropped: m.dropped,
                duplicated: m.duplicated,
                leaders: run.outcome.leader_count() as u64,
                stabilized: u64::from(run.stabilized),
                ..Counts::default()
            },
            start.elapsed().as_secs_f64(),
        ))
    })
}

/// Per-trial results of one pass: `(counts, wall seconds)` in task order,
/// or why the pass failed as a whole.
type Pass = Result<Vec<(Counts, f64)>, String>;

/// Runs one sweep of a lab workload through `ale_lab::engine::execute` —
/// what `ale-lab run` calls — writing its store under `out` if the
/// workload keeps one.
pub fn lab_pass(w: Workload, sweep: &LabSweep, master: u64, out: &Path) -> Pass {
    let out = sweep.store.then(|| out.to_path_buf());
    let records =
        execute(sweep.scenario.as_ref(), &sweep.spec(master, out)).map_err(|e| e.to_string())?;
    Ok(records
        .records
        .iter()
        .map(|r| {
            (
                check::counts_of_record(w, r),
                r.wall_ms.unwrap_or(0.0) / 1e3,
            )
        })
        .collect())
}

/// End-to-end run of a sweep workload.
///
/// # Errors
///
/// Set-up or reference failures.
pub fn run_e2e(
    w: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Outcome, String> {
    let plan = workload::plan(w, size).map_err(|e| e.to_string())?;
    let sweep = workload::lab_sweep(w, size);
    let mut graphs = Vec::new();
    let set_up = |graphs: &mut Vec<Graph>| match &sweep {
        Some(s) => lab_setup(s),
        None => {
            *graphs = async_setup(&plan)?;
            Ok(())
        }
    };
    // Set-ups run in step with the passes, a share of the set-up budget
    // per share of the measuring time, so their median samples the whole
    // run and not one moment of it.
    let mut setups = Setups::default();
    let mut passes = Vec::new();
    let mut cpus = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let share = start.elapsed().as_secs_f64() / seconds;
        setups.until(1, SETUP_BUDGET_S * share, || set_up(&mut graphs))?;
        let dir = work.join(format!("pass-{}", passes.len()));
        fresh_dir(&dir)?;
        let t = cpu_s();
        passes.push(match &sweep {
            Some(s) => lab_pass(w, s, seed, &dir),
            None => async_sweep(&plan, &graphs, seed)
                .into_iter()
                .collect::<Result<Vec<_>, _>>(),
        });
        cpus.push(cpu_s() - t);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    setups.until(SETUP_MIN, SETUP_BUDGET_S, || set_up(&mut graphs))?;
    let peak_rss = peak_rss_mb()?;

    let reference = check::replay_all(w, &plan, seed, WORKERS, Mode::Reference)?;
    let reference = check::rows(w, &plan, &reference.counts);
    let expected: u64 = reference.iter().map(|r| r.trials).sum();
    let mut out = Outcome::default();
    // Per pass: trials that passed the check per CPU second. The run
    // reports the median pass, so a pass the host slowed does not move
    // the figures.
    let mut rates = Vec::new();
    for (pass, cpu) in passes.into_iter().zip(&cpus) {
        let failed = match pass {
            Ok(trials) => {
                let counts: Vec<Counts> = trials.iter().map(|(c, _)| *c).collect();
                check::failed_trials(&reference, &check::rows(w, &plan, &counts))
            }
            Err(e) => {
                eprintln!("perfbench: {} pass failed: {e}", w.name());
                expected
            }
        };
        out.attempted += expected;
        out.failed += failed;
        rates.push(expected.saturating_sub(failed) as f64 / cpu);
    }
    out.set("setup_s", setups.median());
    out.set("pass_cpu_s", median(&cpus));
    out.set("ops_per_cpu_s", median(&rates));
    out.set("peak_rss_mb", peak_rss);
    Ok(out)
}
