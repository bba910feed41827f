//! The output check for sweeps: per grid point, the sums of each trial's
//! deterministic counters must equal the layer replay's for the same
//! master seed.

use crate::replay::{self, Counts, Layers, Mode};
use crate::workload::{PlannedPoint, Workload};
use ale_lab::fleet;
use ale_lab::scenario::TrialRecord;

/// Relative tolerance for the one floating-point column (`max_pot`).
const FLOAT_TOLERANCE: f64 = 1e-9;

/// One grid point's row of the deterministic summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PointRow {
    pub trials: u64,
    pub sum: Counts,
}

impl PointRow {
    fn add(&mut self, c: &Counts) {
        let s = &mut self.sum;
        self.trials += 1;
        s.rounds += c.rounds;
        s.messages += c.messages;
        s.bits += c.bits;
        s.delivered += c.delivered;
        s.dropped += c.dropped;
        s.duplicated += c.duplicated;
        s.leaders += c.leaders;
        s.stabilized += c.stabilized;
        s.whites += c.whites;
        s.max_pot += c.max_pot;
    }

    fn matches(&self, other: &PointRow) -> bool {
        let (a, b) = (&self.sum, &other.sum);
        let close = (a.max_pot - b.max_pot).abs() <= FLOAT_TOLERANCE * a.max_pot.abs().max(1.0);
        self.trials == other.trials
            && Counts { max_pot: 0.0, ..*a } == Counts { max_pot: 0.0, ..*b }
            && close
    }
}

/// The columns a workload's trial records carry; the others are zeroed
/// on both sides of the comparison.
fn project(w: Workload, c: Counts) -> Counts {
    let base = Counts {
        rounds: c.rounds,
        ..Counts::default()
    };
    match w {
        Workload::DenseLadder => Counts {
            messages: c.messages,
            bits: c.bits,
            leaders: c.leaders,
            stabilized: c.stabilized,
            ..base
        },
        Workload::ElectionSweep | Workload::ResultsServe => Counts {
            messages: c.messages,
            bits: c.bits,
            leaders: c.leaders,
            ..base
        },
        Workload::CsrThresholds => Counts {
            whites: c.whites,
            max_pot: c.max_pot,
            ..base
        },
        Workload::AsyncFaults => c,
    }
}

/// Reads a lab trial record's deterministic columns.
pub fn counts_of_record(w: Workload, r: &TrialRecord) -> Counts {
    let extra = |k: &str| r.metric(k).unwrap_or(0.0);
    project(
        w,
        Counts {
            rounds: r.rounds,
            messages: r.messages,
            bits: r.bits,
            delivered: extra("delivered") as u64,
            dropped: extra("dropped") as u64,
            duplicated: extra("duplicated") as u64,
            leaders: r.leaders,
            stabilized: extra("stabilized") as u64,
            whites: extra("whites") as u64,
            max_pot: extra("max_pot"),
        },
    )
}

/// Folds trial counts, in task order, into per-point rows.
pub fn rows(w: Workload, plan: &[PlannedPoint], trials: &[Counts]) -> Vec<PointRow> {
    let mut rows = vec![PointRow::default(); plan.len()];
    let mut it = trials.iter();
    for (row, p) in rows.iter_mut().zip(plan) {
        for c in it.by_ref().take(p.seeds as usize) {
            row.add(&project(w, *c));
        }
    }
    rows
}

/// Number of trials on points whose rows differ from the reference (a
/// missing or extra point fails all of its trials).
pub fn failed_trials(reference: &[PointRow], observed: &[PointRow]) -> u64 {
    let mut failed = 0;
    for (i, r) in reference.iter().enumerate() {
        match observed.get(i) {
            Some(o) if o.matches(r) => {}
            _ => failed += r.trials,
        }
    }
    failed
        + observed
            .iter()
            .skip(reference.len())
            .map(|o| o.trials)
            .sum::<u64>()
}

/// `(point index, seed index)` of every trial, in task order.
pub fn tasks(plan: &[PlannedPoint]) -> Vec<(usize, u64)> {
    plan.iter()
        .enumerate()
        .flat_map(|(pi, p)| (0..p.seeds).map(move |si| (pi, si)))
        .collect()
}

/// A completed layer replay of every trial of a plan.
pub struct Replay {
    /// Per-trial counts, in task order.
    pub counts: Vec<Counts>,
    pub layers: Layers,
    pub wall_s: f64,
}

/// Replays every point's bind and every trial on `workers` threads.
///
/// # Errors
///
/// The first failing bind or trial.
pub fn replay_all(
    w: Workload,
    plan: &[PlannedPoint],
    master: u64,
    workers: usize,
    mode: Mode,
) -> Result<Replay, String> {
    let start = std::time::Instant::now();
    let bound = fleet::run_indexed(plan.len(), workers, |i| {
        let mut l = Layers::new(mode);
        replay::bind(w, &plan[i].point, &mut l).map(|b| (b, l))
    });
    let mut layers = Layers::new(mode);
    let mut binds = Vec::with_capacity(bound.len());
    for b in bound {
        let (b, l) = b?;
        layers.absorb(&l);
        binds.push(b);
    }
    let tasks = tasks(plan);
    let results = fleet::run_indexed(tasks.len(), workers, |t| {
        let (pi, si) = tasks[t];
        let mut l = Layers::new(mode);
        replay::trial(
            &binds[pi],
            fleet::derive_seed(master, pi as u64, si),
            &mut l,
        )
        .map(|c| (c, l))
    });
    let mut counts = Vec::with_capacity(results.len());
    for r in results {
        let (c, l) = r?;
        layers.absorb(&l);
        counts.push(c);
    }
    Ok(Replay {
        counts,
        layers,
        wall_s: start.elapsed().as_secs_f64(),
    })
}
