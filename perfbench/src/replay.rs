//! Layer replay: every trial of a workload re-run through the public
//! calls of each layer, in the same order the lab's scenario closures and
//! the core drivers make them, with a timer around each call.
//!
//! The replay serves two purposes. With timers on it is the traced run's
//! source of per-layer times and counts. In [`Mode::Reference`] it
//! recomputes each trial's deterministic counters without the lab engine,
//! fleet or store, with the synchronous protocols on `ReferenceNetwork`,
//! the congest crate's equivalence oracle, and with the thresholds
//! diffusion stepped by a plain loop over the graph's adjacency instead of
//! `MarkovChain`: that is the reference the output check compares sweeps
//! with, so a change to the arena engine or the CSR kernel that alters
//! results fails the check.

use crate::workload::{self, Workload};
use ale_congest::{congest_budget, AnyNetwork, AsyncNetwork, EngineKind, ExecConfig, RunStatus};
use ale_core::irrevocable::{IrrevocableConfig, IrrevocableProcess};
use ale_core::revocable::{stabilized, RevocableParams, RevocableProcess};
use ale_graph::{analytic, cuts, spectral_sparse, transition, Graph, GraphProps, NetworkKnowledge};
use ale_lab::runners::{Algorithm, GraphContext};
use ale_lab::scenario::GridPoint;
use ale_markov::MarkovChain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// What a replay is for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mode {
    /// The output check's reference: synchronous protocols run on the
    /// reference engine, nothing is timed.
    #[default]
    Reference,
    /// The traced run: the arena engine, every layer call timed.
    Traced,
    /// The traced run's overhead baseline: the arena engine, no timers.
    Untimed,
}

/// Per-layer time (seconds) and counts accumulated by the replay.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub mode: Mode,
    pub graph_build_s: f64,
    pub graph_props_s: f64,
    pub graph_spectral_gap_s: f64,
    pub chain_build_s: f64,
    pub chain_step_s: f64,
    pub markov_steps: u64,
    /// Σ over chain steps of the transition's non-zeros.
    pub markov_nnz_steps: u64,
    pub construct_s: f64,
    pub step_s: f64,
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub active_node_rounds: u64,
    pub async_step_s: f64,
    pub async_delivered: u64,
    pub async_dropped: u64,
    pub async_duplicated: u64,
    pub async_in_flight_peak: u64,
    pub async_ticks: u64,
    pub oracle_s: f64,
    /// (total seconds, trials) per Table 1 algorithm, in `Algorithm::ALL`
    /// order. The `this-work` entry's time is already counted in the
    /// congest construct/step times it is made of.
    pub trial: [(f64, u64); 5],
}

impl Layers {
    /// An empty accumulator for a replay in `mode`.
    pub fn new(mode: Mode) -> Layers {
        Layers {
            mode,
            ..Layers::default()
        }
    }

    fn clock(&self) -> Option<Instant> {
        (self.mode == Mode::Traced).then(Instant::now)
    }

    fn engine(&self) -> EngineKind {
        match self.mode {
            Mode::Reference => EngineKind::Reference,
            Mode::Traced | Mode::Untimed => EngineKind::Arena,
        }
    }

    /// Folds another worker's accumulator into this one.
    pub fn absorb(&mut self, o: &Layers) {
        self.graph_build_s += o.graph_build_s;
        self.graph_props_s += o.graph_props_s;
        self.graph_spectral_gap_s += o.graph_spectral_gap_s;
        self.chain_build_s += o.chain_build_s;
        self.chain_step_s += o.chain_step_s;
        self.markov_steps += o.markov_steps;
        self.markov_nnz_steps += o.markov_nnz_steps;
        self.construct_s += o.construct_s;
        self.step_s += o.step_s;
        self.rounds += o.rounds;
        self.messages += o.messages;
        self.bits += o.bits;
        self.active_node_rounds += o.active_node_rounds;
        self.async_step_s += o.async_step_s;
        self.async_delivered += o.async_delivered;
        self.async_dropped += o.async_dropped;
        self.async_duplicated += o.async_duplicated;
        self.async_in_flight_peak = self.async_in_flight_peak.max(o.async_in_flight_peak);
        self.async_ticks += o.async_ticks;
        self.oracle_s += o.oracle_s;
        for (a, b) in self.trial.iter_mut().zip(&o.trial) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// Layer time the reconciliation attributes: every timed call, each
    /// counted once (the `this-work` trial time is made of construct and
    /// step time, so only the opaque baseline calls are added).
    pub fn attributed_s(&self) -> f64 {
        self.graph_build_s
            + self.graph_props_s
            + self.graph_spectral_gap_s
            + self.chain_build_s
            + self.chain_step_s
            + self.construct_s
            + self.step_s
            + self.async_step_s
            + self.oracle_s
            + self.trial[1..].iter().map(|t| t.0).sum::<f64>()
    }
}

fn since(t: Option<Instant>) -> f64 {
    t.map_or(0.0, |t| t.elapsed().as_secs_f64())
}

/// The deterministic outputs of one trial that the output check compares.
/// Columns a workload's trial records do not carry stay zero on both sides.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub leaders: u64,
    pub stabilized: u64,
    pub whites: u64,
    /// Largest terminal potential (thresholds); compared with a relative
    /// tolerance, as it is a floating-point sum.
    pub max_pot: f64,
}

/// A grid point prepared for replay: what the scenario's `bind` builds.
pub enum Bound {
    /// Mode-4 revocable ladder point (synchronous arena engine).
    Ladder {
        graph: Graph,
        params: RevocableParams,
    },
    /// Revocable ladder point on the asynchronous engine.
    Async {
        graph: Graph,
        params: RevocableParams,
        exec: ExecConfig,
    },
    /// Table 1 cell.
    Table1 { ctx: GraphContext, alg: Algorithm },
    /// Thresholds point whose max degree exceeds `k^{1+ε}`: no trial work.
    Flagged,
    /// Thresholds point: its diffusion step, `p(k)` and round count.
    Thresholds {
        diffusion: Diffusion,
        n: usize,
        p_white: f64,
        rounds: u64,
    },
}

/// How a thresholds trial steps `pot' = (I − αL)·pot`.
pub enum Diffusion {
    /// The program's CSR kernel, `MarkovChain::step_into`.
    Chain(MarkovChain),
    /// The output check's independent form: a plain loop over the graph's
    /// adjacency, `pot'[v] = (1 − α·deg v)·pot[v] + α·Σ_{u~v} pot[u]`.
    Adjacency { graph: Graph, alpha: f64 },
}

impl Diffusion {
    fn step(&self, pot: &[f64], next: &mut [f64]) -> Result<(), String> {
        match self {
            Diffusion::Chain(chain) => chain
                .step_into(pot, next)
                .map_err(|e| format!("chain step: {e}")),
            Diffusion::Adjacency { graph, alpha } => {
                for (v, out) in next.iter_mut().enumerate() {
                    let around: f64 = graph.neighbors(v).map(|u| pot[u]).sum();
                    *out = (1.0 - alpha * graph.degree(v) as f64) * pot[v] + alpha * around;
                }
                Ok(())
            }
        }
    }

    /// Non-zeros of the transition: the work of one step.
    fn nnz(&self) -> usize {
        match self {
            Diffusion::Chain(chain) => chain.transition().nnz(),
            Diffusion::Adjacency { graph, .. } => graph.n() + 2 * graph.m(),
        }
    }
}

/// Replays `scenario.bind(point)` for a sweep workload's point.
///
/// # Errors
///
/// A description of the failing call.
pub fn bind(w: Workload, point: &GridPoint, l: &mut Layers) -> Result<Bound, String> {
    let topo = point
        .topology
        .ok_or_else(|| format!("{}: point has no topology", point.label))?;
    let t = l.clock();
    let graph = topo.build(w.graph_seed()).map_err(|e| e.to_string())?;
    l.graph_build_s += since(t);
    match w {
        Workload::DenseLadder => Ok(Bound::Ladder {
            graph,
            params: workload::ladder_params(),
        }),
        Workload::AsyncFaults => Ok(Bound::Async {
            graph,
            params: workload::ladder_params(),
            exec: workload::fault_exec(),
        }),
        Workload::ElectionSweep | Workload::ResultsServe => {
            let alg = point
                .algorithm
                .ok_or_else(|| format!("{}: point has no algorithm", point.label))?;
            let t = l.clock();
            let props = GraphProps::compute_for(&graph, &topo).map_err(|e| e.to_string())?;
            l.graph_props_s += since(t);
            let knowledge = NetworkKnowledge::from_props(&props);
            Ok(Bound::Table1 {
                ctx: GraphContext {
                    topology: topo,
                    graph,
                    props,
                    knowledge,
                },
                alg,
            })
        }
        Workload::CsrThresholds => {
            let n = graph.n();
            // The thresholds scenario's i(G) oracle: exact cuts on small
            // graphs, the analytic hint where one exists, else the
            // spectral bound.
            let ig = match cuts::isoperimetric_exact(&graph) {
                Ok(v) => v,
                Err(_) => match analytic::hints(&topo).isoperimetric {
                    Some(v) => v,
                    None => {
                        let t = l.clock();
                        let gap = spectral_sparse::lazy_spectral_gap(&graph, 1e-11, 5_000_000)
                            .map_err(|e| format!("spectral i(G) fallback: {e}"))?;
                        l.graph_spectral_gap_s += since(t);
                        let d_min = (0..n).map(|v| graph.degree(v)).min().unwrap_or(1);
                        (gap * d_min as f64).max(f64::MIN_POSITIVE)
                    }
                },
            };
            let k = point
                .param("k")
                .ok_or_else(|| format!("{}: point has no k", point.label))?
                as u64;
            let params = RevocableParams::paper_with_ig(workload::EPS, workload::XI, ig);
            let k_pow = params.k_pow(k);
            if (0..n).any(|v| graph.degree(v) as f64 > k_pow) {
                return Ok(Bound::Flagged);
            }
            let alpha = 1.0 / (2.0 * k_pow);
            let diffusion = if l.mode == Mode::Reference {
                Diffusion::Adjacency { graph, alpha }
            } else {
                let t = l.clock();
                let chain = transition::diffusion_chain(&graph, alpha)
                    .map_err(|e| format!("diffusion chain: {e}"))?;
                l.chain_build_s += since(t);
                Diffusion::Chain(chain)
            };
            let cap = point
                .param("cap")
                .map_or(workload::THRESHOLDS_ROUND_CAP, |c| c as u64);
            Ok(Bound::Thresholds {
                diffusion,
                n,
                p_white: params.p(k),
                rounds: params.r(k).min(cap),
            })
        }
    }
}

/// Replays one trial of a bound point under `seed`.
///
/// # Errors
///
/// A description of the failing call.
pub fn trial(b: &Bound, seed: u64, l: &mut Layers) -> Result<Counts, String> {
    match b {
        Bound::Ladder { graph, params } => revocable_sync(graph, params, seed, l),
        Bound::Async {
            graph,
            params,
            exec,
        } => revocable_async(graph, params, exec, seed, l),
        Bound::Table1 { ctx, alg } => table1(ctx, *alg, seed, l),
        Bound::Flagged => Ok(Counts::default()),
        Bound::Thresholds {
            diffusion,
            n,
            p_white,
            rounds,
        } => thresholds(diffusion, *n, *p_white, *rounds, seed, l),
    }
}

/// Nodes the arena engine still runs this round (the reference engine
/// does not track them; its replays are not traced).
fn active<P: ale_congest::Process>(net: &AnyNetwork<'_, P>) -> u64 {
    match net {
        AnyNetwork::Arena(n) => n.active_count() as u64,
        _ => 0,
    }
}

/// `run_revocable`'s loop: stabilization checked every 16th round.
fn revocable_sync(
    graph: &Graph,
    params: &RevocableParams,
    seed: u64,
    l: &mut Layers,
) -> Result<Counts, String> {
    let budget = congest_budget(graph.n().max(2), params.congest_factor);
    let p = *params;
    let t = l.clock();
    let mut net = AnyNetwork::from_fn(l.engine(), graph, seed, budget, |deg, _rng| {
        RevocableProcess::with_horizon(p, deg, Some(workload::LADDER_MAX_K))
    });
    l.construct_s += since(t);
    let round_budget = params
        .rounds_through(workload::LADDER_MAX_K)
        .saturating_add(64);
    let mut status = RunStatus::RoundLimit;
    while !net.all_halted() && net.round() < round_budget {
        l.active_node_rounds += active(&net);
        let t = l.clock();
        net.step().map_err(|e| e.to_string())?;
        l.step_s += since(t);
        if net.round().is_multiple_of(16) {
            let t = l.clock();
            let met = stabilized(&net.outputs());
            l.oracle_s += since(t);
            if met {
                status = RunStatus::PredicateMet;
                break;
            }
        }
    }
    let t = l.clock();
    let verdicts = net.outputs();
    let stable = status == RunStatus::PredicateMet && stabilized(&verdicts);
    l.oracle_s += since(t);
    let m = *net.metrics();
    l.rounds += m.rounds;
    l.messages += m.messages;
    l.bits += m.bits;
    Ok(Counts {
        rounds: m.rounds,
        messages: m.messages,
        bits: m.bits,
        leaders: verdicts.iter().filter(|v| v.leader).count() as u64,
        stabilized: u64::from(stable),
        ..Counts::default()
    })
}

/// `run_revocable_async`'s loop on the event-driven engine.
fn revocable_async(
    graph: &Graph,
    params: &RevocableParams,
    exec: &ExecConfig,
    seed: u64,
    l: &mut Layers,
) -> Result<Counts, String> {
    let budget = congest_budget(graph.n().max(2), params.congest_factor);
    let p = *params;
    let t = l.clock();
    let mut net = AsyncNetwork::from_fn_with(graph, seed, budget, *exec, |deg, _rng| {
        RevocableProcess::with_horizon(p, deg, Some(workload::LADDER_MAX_K))
    })
    .map_err(|e| e.to_string())?;
    l.construct_s += since(t);
    let round_budget = params
        .rounds_through(workload::LADDER_MAX_K)
        .saturating_add(64);
    let mut status = RunStatus::RoundLimit;
    while !net.all_halted() && net.round() < round_budget {
        l.active_node_rounds += net.active_count() as u64;
        let t = l.clock();
        net.step().map_err(|e| e.to_string())?;
        l.async_step_s += since(t);
        l.async_in_flight_peak = l.async_in_flight_peak.max(net.in_flight() as u64);
        if net.round().is_multiple_of(16) {
            let t = l.clock();
            let met = stabilized(&net.outputs());
            l.oracle_s += since(t);
            if met {
                status = RunStatus::PredicateMet;
                break;
            }
        }
    }
    let t = l.clock();
    let verdicts = net.outputs();
    let stable = status == RunStatus::PredicateMet && stabilized(&verdicts);
    l.oracle_s += since(t);
    let m = *net.metrics();
    l.rounds += m.rounds;
    l.messages += m.messages;
    l.bits += m.bits;
    l.async_delivered += m.delivered;
    l.async_dropped += m.dropped;
    l.async_duplicated += m.duplicated;
    l.async_ticks += net.round();
    Ok(Counts {
        rounds: m.rounds,
        messages: m.messages,
        bits: m.bits,
        delivered: m.delivered,
        dropped: m.dropped,
        duplicated: m.duplicated,
        leaders: verdicts.iter().filter(|v| v.leader).count() as u64,
        stabilized: u64::from(stable),
        ..Counts::default()
    })
}

/// One Table 1 cell: `run_irrevocable`'s loop for this work, the runner
/// call for the baselines.
fn table1(ctx: &GraphContext, alg: Algorithm, seed: u64, l: &mut Layers) -> Result<Counts, String> {
    let slot = Algorithm::ALL
        .iter()
        .position(|a| *a == alg)
        .expect("ALL lists every algorithm");
    let t = l.clock();
    let (m, leaders) = if alg == Algorithm::ThisWork {
        let cfg = IrrevocableConfig::from_knowledge(ctx.knowledge);
        cfg.validate().map_err(|e| e.to_string())?;
        let budget = congest_budget(cfg.knowledge.n, cfg.congest_factor);
        let tc = l.clock();
        let mut net = AnyNetwork::from_fn(l.engine(), &ctx.graph, seed, budget, |deg, rng| {
            let params = cfg.protocol_params(deg).expect("validated before run");
            IrrevocableProcess::new(params, rng)
        });
        l.construct_s += since(tc);
        let round_budget = cfg.total_rounds() + 4;
        while !net.all_halted() && net.round() < round_budget {
            l.active_node_rounds += active(&net);
            let ts = l.clock();
            net.step().map_err(|e| e.to_string())?;
            l.step_s += since(ts);
        }
        let leaders = net.outputs().iter().filter(|v| v.leader).count() as u64;
        let m = *net.metrics();
        l.rounds += m.rounds;
        l.messages += m.messages;
        l.bits += m.bits;
        (m, leaders)
    } else {
        let outcome = ctx.run(alg, seed).map_err(|e| e.to_string())?;
        (outcome.metrics, outcome.leader_count() as u64)
    };
    l.trial[slot].0 += since(t);
    l.trial[slot].1 += 1;
    Ok(Counts {
        rounds: m.rounds,
        messages: m.messages,
        bits: m.bits,
        leaders,
        ..Counts::default()
    })
}

/// The thresholds trial: colour with `p(k)`, then `rounds` chain steps.
fn thresholds(
    diffusion: &Diffusion,
    n: usize,
    p_white: f64,
    rounds: u64,
    seed: u64,
    l: &mut Layers,
) -> Result<Counts, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pot: Vec<f64> = (0..n)
        .map(|_| if rng.gen_bool(p_white) { 0.0 } else { 1.0 })
        .collect();
    if pot.iter().all(|&x| x == 1.0) {
        pot[rng.gen_range(0..n)] = 0.0;
    }
    let whites = pot.iter().filter(|&&x| x == 0.0).count() as u64;
    let mut next = vec![0.0; n];
    let t = l.clock();
    for _ in 0..rounds {
        diffusion.step(&pot, &mut next)?;
        std::mem::swap(&mut pot, &mut next);
    }
    l.chain_step_s += since(t);
    l.markov_steps += rounds;
    l.markov_nnz_steps += rounds * diffusion.nnz() as u64;
    Ok(Counts {
        rounds,
        whites,
        max_pot: pot.iter().copied().fold(0.0f64, f64::max),
        ..Counts::default()
    })
}
