//! The five workloads: what each runs, at which size, and why.
//!
//! Sizes are chosen so that one pass (a sweep, or one trip through the
//! request mix) takes a few seconds on a 2-core host: a run of the
//! benchmark then measures several passes and reports their median.

use ale_congest::{ExecConfig, FaultSpec, LatencyDist};
use ale_core::revocable::RevocableParams;
use ale_graph::Topology;
use ale_lab::engine::RunSpec;
use ale_lab::scenario::{GridConfig, GridPoint, Knowledge, LabError, Scenario};
use std::path::PathBuf;

/// Worker threads (and serve clients and server workers). One, so that a
/// run keeps a single core busy: on a shared 2-vCPU host a second thread
/// competes with whatever else runs there, and a sweep on two workers
/// then reads up to twice as slow from one run to the next.
pub const WORKERS: usize = 1;
/// The revocable protocol's ε and ξ in the lab's scenarios.
pub const EPS: f64 = 1.0;
pub const XI: f64 = 0.2;
/// Estimate horizon of the mode-4 ladder (`revocable --n`).
pub const LADDER_MAX_K: u64 = 4;
/// Round cap of full-grid thresholds points below the large-n sizes.
pub const THRESHOLDS_ROUND_CAP: u64 = 2_000_000;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ale-lab run revocable --n N --quick`: the mode-4 engine ladder.
    DenseLadder,
    /// `ale-lab run table1 --seeds S --out DIR`: the Table 1 shootout.
    ElectionSweep,
    /// `ale-lab run thresholds --n N --quick`: CSR diffusion, no engine.
    CsrThresholds,
    /// The mode-4 ladder on `AsyncNetwork` with latency and faults.
    AsyncFaults,
    /// A stored table1 sweep served over loopback HTTP.
    ResultsServe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::DenseLadder,
        Workload::ElectionSweep,
        Workload::CsrThresholds,
        Workload::AsyncFaults,
        Workload::ResultsServe,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseLadder => "dense-ladder",
            Workload::ElectionSweep => "election-sweep",
            Workload::CsrThresholds => "csr-thresholds",
            Workload::AsyncFaults => "async-faults",
            Workload::ResultsServe => "results-serve",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The graph seed the scenario's `bind` passes to `Topology::build`.
    pub fn graph_seed(self) -> u64 {
        match self {
            // table1 shares one graph seed across every cell.
            Workload::ElectionSweep | Workload::ResultsServe => 1,
            _ => 0,
        }
    }
}

/// Problem size: `Full` is what the benchmark measures, `Tiny` what its
/// own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The mode-4 ladder's schedule (`revocable` scenario, mode 4).
pub fn ladder_params() -> RevocableParams {
    RevocableParams::paper_blind(EPS, XI).with_scales(0.002, 0.05, 1.0)
}

/// async-faults' adversary: `Uniform{1,3}` latency, drop 5%, duplicate
/// half of that.
pub fn fault_exec() -> ExecConfig {
    ExecConfig {
        latency: LatencyDist::Uniform { min: 1, max: 3 },
        faults: FaultSpec {
            drop: 0.05,
            duplicate: 0.025,
            ..FaultSpec::default()
        },
    }
}

/// The lab invocation behind a sweep workload.
pub struct LabSweep {
    pub scenario: Box<dyn Scenario>,
    pub grid: GridConfig,
    pub seeds: Option<u64>,
    /// Whether the sweep writes a result store (`--out`).
    pub store: bool,
}

impl LabSweep {
    /// The `RunSpec` `ale-lab run` builds for this invocation.
    pub fn spec(&self, master_seed: u64, out: Option<PathBuf>) -> RunSpec {
        RunSpec {
            master_seed,
            seeds: self.seeds,
            workers: WORKERS,
            grid: self.grid.clone(),
            out,
            ..RunSpec::default()
        }
    }
}

fn ladder_grid(n: usize) -> GridConfig {
    GridConfig {
        quick: true,
        ns: vec![n],
        ..GridConfig::default()
    }
}

/// The lab sweep a workload runs; `None` for async-faults, which drives
/// `run_revocable_async` directly.
pub fn lab_sweep(w: Workload, size: Size) -> Option<LabSweep> {
    let find = |name: &str| ale_lab::registry::find(name).expect("scenario is registered");
    let tiny = size == Size::Tiny;
    Some(match w {
        Workload::DenseLadder => LabSweep {
            scenario: find("revocable"),
            grid: ladder_grid(if tiny { 64 } else { 2000 }),
            seeds: None,
            store: false,
        },
        Workload::ElectionSweep => LabSweep {
            scenario: find("table1"),
            grid: GridConfig {
                quick: tiny,
                ..GridConfig::default()
            },
            seeds: Some(if tiny { 1 } else { 4 }),
            store: true,
        },
        Workload::CsrThresholds => LabSweep {
            scenario: find("thresholds"),
            grid: ladder_grid(if tiny { 64 } else { 2000 }),
            seeds: None,
            store: false,
        },
        Workload::ResultsServe => LabSweep {
            scenario: find("table1"),
            grid: GridConfig {
                quick: true,
                ..GridConfig::default()
            },
            seeds: Some(if tiny { 1 } else { 10 }),
            store: true,
        },
        Workload::AsyncFaults => return None,
    })
}

/// One grid point of a sweep with its seed count and its position in the
/// full grid (the seed-stream discriminator).
pub struct PlannedPoint {
    pub point: GridPoint,
    pub seeds: u64,
}

/// Expands a workload's grid the way the lab engine does.
///
/// # Errors
///
/// Expansion failures from the scenario's parameter space.
pub fn plan(w: Workload, size: Size) -> Result<Vec<PlannedPoint>, LabError> {
    let Some(sweep) = lab_sweep(w, size) else {
        return Ok(async_points(size));
    };
    let default = sweep
        .seeds
        .unwrap_or_else(|| sweep.scenario.default_seeds(sweep.grid.quick));
    Ok(sweep
        .scenario
        .space()
        .expand(&sweep.grid)?
        .points
        .into_iter()
        .map(|point| PlannedPoint {
            seeds: point.seeds.unwrap_or(default),
            point,
        })
        .collect())
}

/// async-faults' points: the ladder families (torus, ring, 4-regular
/// expander) at one size, two seeds each.
fn async_points(size: Size) -> Vec<PlannedPoint> {
    let n: usize = if size == Size::Tiny { 36 } else { 500 };
    let side = (n as f64).sqrt().floor() as usize;
    [
        Topology::Grid2d {
            rows: side,
            cols: side,
            torus: true,
        },
        Topology::Cycle { n },
        Topology::RandomRegular { n, d: 4 },
    ]
    .into_iter()
    .map(|topo| PlannedPoint {
        point: GridPoint::new(format!("async/{topo}"))
            .on(topo)
            .knowing(Knowledge::Blind),
        seeds: 2,
    })
    .collect()
}
