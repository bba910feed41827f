//! The result store: run manifests, a keyed durable journal, and the
//! JSONL/CSV views derived from it.
//!
//! Layout of one run directory:
//!
//! ```text
//! <out>/
//!   manifest.json   — scenario, master seed, grid + positions, config,
//!                     git stamp, `complete` marker (written LAST)
//!   trials.db       — append-only keyed journal (crate::db::AofDb): one
//!                     entry per trial, durable the moment the trial
//!                     finishes; plus the summary rows after completion
//!   trials.jsonl    — one TrialRecord per line, (point, seed-index) order
//!   trials.csv      — the same records, flat columns (extras unioned)
//!   summary.csv     — per-(point, metric) streaming statistics
//! ```
//!
//! `trials.db` is the canonical record of a run: every record is
//! [`crate::db::Db::put`] under its [`TrialKey`] — `(scenario,
//! space-hash, grid-position, seed-index)` — as soon as a worker produces
//! it, so a killed sweep can be completed by `ale-lab run --resume`
//! instead of restarted. Every program path that reads a run directory
//! back (resume, merge, check, serve) reads the manifest and the journal
//! — trials through [`read_trials`] — and nothing else. The derived views
//! (`trials.jsonl`, `trials.csv`, `summary.csv`) are written for people
//! and external tools at [`RunWriter::finish`] via temp-file + rename,
//! the journal is compacted to its sorted canonical form, and only then
//! is the manifest rewritten with `complete: true` — so an interrupted
//! run is always distinguishable from a finished one. Because record
//! order is deterministic (see [`crate::engine`]), two runs with the same
//! spec — or a killed-and-resumed run — produce byte-identical stores;
//! the property the determinism and resume tests pin.

use crate::agg::RunSummary;
use crate::db::{AofDb, Db as _};
use crate::json::{parse, ToJson, Value};
use crate::scenario::{LabError, TrialRecord};
use crate::table::Table;
use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::Path;

/// Manifest schema version written by this tree, and the only one it
/// reads.
pub const STORE_VERSION: u32 = 2;

/// The raw invocation a run was launched with — enough to re-expand the
/// exact same grid for `run --resume`. Unlike the resolved `space` lines
/// (which record the *output* of expansion, including per-combination
/// linked-axis values that cannot be replayed as overrides), this is the
/// *input*: the `--n`/`--topo`/`--param`/`--algo` overrides as given.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunConfig {
    /// `--n` sizes.
    pub ns: Vec<u64>,
    /// `--topo` overrides in [`ale_graph::Topology::spec`] form (the
    /// round-trippable `family:args` string).
    pub topos: Vec<String>,
    /// Raw `--param key=v1,v2` overrides (minus engine pseudo-axes).
    pub params: Vec<(String, Vec<String>)>,
    /// `--algo` filter, by algorithm name.
    pub algos: Vec<String>,
}

impl RunConfig {
    fn to_json(&self) -> Value {
        Value::obj([
            (
                "ns".to_string(),
                Value::Arr(self.ns.iter().map(|&n| Value::UInt(n)).collect()),
            ),
            (
                "topos".to_string(),
                Value::Arr(self.topos.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "params".to_string(),
                Value::Arr(
                    self.params
                        .iter()
                        .map(|(k, vs)| {
                            Value::Arr(vec![
                                Value::Str(k.clone()),
                                Value::Arr(vs.iter().cloned().map(Value::Str).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "algos".to_string(),
                Value::Arr(self.algos.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<RunConfig, LabError> {
        let strings = |key: &str| -> Result<Vec<String>, LabError> {
            match v.get(key) {
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|i| {
                        i.as_str().map(str::to_string).ok_or_else(|| {
                            LabError::BadRecord(format!("config '{key}' holds a non-string"))
                        })
                    })
                    .collect(),
                None => Ok(Vec::new()),
                Some(_) => Err(LabError::BadRecord(format!(
                    "config '{key}' is not an array"
                ))),
            }
        };
        let ns = match v.get("ns") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|i| {
                    i.as_u64()
                        .ok_or_else(|| LabError::BadRecord("config 'ns' holds a non-u64".into()))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
            Some(_) => return Err(LabError::BadRecord("config 'ns' is not an array".into())),
        };
        let params = match v.get("params") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|pair| {
                    let bad = || {
                        LabError::BadRecord("config 'params' entry is not [key, [values…]]".into())
                    };
                    let Value::Arr(kv) = pair else {
                        return Err(bad());
                    };
                    let [k, vs] = kv.as_slice() else {
                        return Err(bad());
                    };
                    let key = k.as_str().ok_or_else(bad)?.to_string();
                    let Value::Arr(vs) = vs else {
                        return Err(bad());
                    };
                    let values = vs
                        .iter()
                        .map(|s| s.as_str().map(str::to_string).ok_or_else(bad))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok((key, values))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
            Some(_) => {
                return Err(LabError::BadRecord(
                    "config 'params' is not an array".into(),
                ))
            }
        };
        Ok(RunConfig {
            ns,
            topos: strings("topos")?,
            params,
            algos: strings("algos")?,
        })
    }
}

/// Everything needed to interpret (and re-run) a stored run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Scenario name.
    pub scenario: String,
    /// Master seed.
    pub master_seed: u64,
    /// Global seeds per grid point.
    pub seeds: u64,
    /// Worker threads (informational — results don't depend on it).
    pub workers: usize,
    /// Grid-point labels in execution order.
    pub grid: Vec<String>,
    /// Full-grid position of each grid point, parallel to `grid` — the
    /// seed-stream discriminator and the position component of every
    /// [`TrialKey`].
    pub positions: Vec<u64>,
    /// Expected trial count per grid point, parallel to `grid` (points
    /// may override the global `seeds`).
    pub counts: Vec<u64>,
    /// [`git_stamp`] of the producing tree: exact short sha, `-dirty`
    /// when the work tree had uncommitted changes — the same stamp bench
    /// JSON carries, so all artifacts of one run agree.
    pub git: String,
    /// `git describe` of the producing tree (tag-relative; extra
    /// provenance, kept alongside the stamp).
    pub git_describe: String,
    /// Whether the quick grid was used.
    pub quick: bool,
    /// Grid shard this run executed, as `"i/k"` (`"0/1"` = the whole
    /// grid). Shards of one logical sweep share the scenario, master
    /// seed, seed count, quick flag, and resolved space — a merge tool
    /// should verify those before unioning JSONL logs — while `grid`
    /// lists only the labels this shard selected and `workers` may
    /// differ per machine.
    pub shard: String,
    /// The resolved parameter space, one `key=v1,v2,…` line per axis as
    /// reported by [`crate::params::ParamSpace::expand`] — the record of
    /// which sweep this run actually executed once `--quick`/`--param`
    /// overrides were applied.
    pub space: Vec<String>,
    /// [`space_hash`] over (scenario, master seed, seeds, quick, space) —
    /// the sweep identity every [`TrialKey`] embeds.
    pub space_hash: u64,
    /// The raw invocation (see [`RunConfig`]); `None` in merged stores
    /// whose inputs disagreed.
    pub config: Option<RunConfig>,
    /// `false` from [`RunWriter::create`] until [`RunWriter::finish`]
    /// rewrites the manifest — the completion marker that makes an
    /// interrupted run distinguishable from a finished one.
    pub complete: bool,
    /// Manifest schema version.
    pub version: u32,
}

impl RunManifest {
    /// Builds a (complete) manifest for the current tree: every grid
    /// point at its own index with `seeds` trials, and no invocation
    /// config. Sharded, filtered and merged runs set `positions`,
    /// `counts` and `config` directly.
    #[allow(clippy::too_many_arguments)]
    pub fn for_run(
        scenario: &str,
        master_seed: u64,
        seeds: u64,
        workers: usize,
        grid: Vec<String>,
        quick: bool,
        shard: &str,
        space: Vec<String>,
    ) -> Self {
        let hash = space_hash(scenario, master_seed, seeds, quick, &space);
        RunManifest {
            scenario: scenario.to_string(),
            master_seed,
            seeds,
            workers,
            positions: (0..grid.len() as u64).collect(),
            counts: vec![seeds; grid.len()],
            grid,
            git: git_stamp(),
            git_describe: git_describe(),
            quick,
            shard: shard.to_string(),
            space,
            space_hash: hash,
            config: None,
            complete: true,
            version: STORE_VERSION,
        }
    }

    /// The full-grid position of each grid point (`positions`).
    pub fn effective_positions(&self) -> &[u64] {
        &self.positions
    }

    /// The expected trial count of each grid point (`counts`).
    pub fn effective_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Parses a manifest back from JSON.
    ///
    /// # Errors
    ///
    /// [`LabError::BadRecord`] naming the field on a missing or
    /// ill-typed field, `positions`/`counts` not parallel to `grid`, or a
    /// `version` other than [`STORE_VERSION`].
    pub fn from_json(v: &Value) -> Result<RunManifest, LabError> {
        let need = |k: &str| -> Result<&Value, LabError> {
            v.get(k)
                .ok_or_else(|| LabError::BadRecord(format!("manifest missing '{k}'")))
        };
        let string = |k: &str| -> Result<String, LabError> {
            need(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| LabError::BadRecord(format!("'{k}' not a string")))
        };
        let u64_field = |k: &str| -> Result<u64, LabError> {
            need(k)?
                .as_u64()
                .ok_or_else(|| LabError::BadRecord(format!("'{k}' not a u64")))
        };
        let items = |k: &str| -> Result<&[Value], LabError> {
            match need(k)? {
                Value::Arr(items) => Ok(items),
                _ => Err(LabError::BadRecord(format!("'{k}' is not an array"))),
            }
        };
        let string_arr = |k: &str| -> Result<Vec<String>, LabError> {
            items(k)?
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| LabError::BadRecord(format!("non-string entry in '{k}'")))
                })
                .collect()
        };
        let grid = string_arr("grid")?;
        let per_point = |k: &str| -> Result<Vec<u64>, LabError> {
            let values = items(k)?
                .iter()
                .map(|i| {
                    i.as_u64()
                        .ok_or_else(|| LabError::BadRecord(format!("non-u64 entry in '{k}'")))
                })
                .collect::<Result<Vec<u64>, _>>()?;
            if values.len() != grid.len() {
                return Err(LabError::BadRecord(format!(
                    "'{k}' has {} entries for {} grid points",
                    values.len(),
                    grid.len()
                )));
            }
            Ok(values)
        };
        let version = u64_field("version")?;
        if version != u64::from(STORE_VERSION) {
            return Err(LabError::BadRecord(format!(
                "'version' is {version}; this tree reads only store version {STORE_VERSION}"
            )));
        }
        Ok(RunManifest {
            scenario: string("scenario")?,
            master_seed: u64_field("master_seed")?,
            seeds: u64_field("seeds")?,
            workers: u64_field("workers")? as usize,
            positions: per_point("positions")?,
            counts: per_point("counts")?,
            grid,
            git: string("git")?,
            git_describe: string("git_describe")?,
            quick: need("quick")?
                .as_bool()
                .ok_or_else(|| LabError::BadRecord("'quick' not a bool".into()))?,
            shard: string("shard")?,
            space: string_arr("space")?,
            space_hash: u64_field("space_hash")?,
            config: match need("config")? {
                Value::Null => None,
                c => Some(RunConfig::from_json(c)?),
            },
            complete: need("complete")?
                .as_bool()
                .ok_or_else(|| LabError::BadRecord("'complete' not a bool".into()))?,
            version: STORE_VERSION,
        })
    }
}

impl ToJson for RunManifest {
    fn to_json(&self) -> Value {
        Value::obj([
            ("scenario".to_string(), Value::Str(self.scenario.clone())),
            ("master_seed".to_string(), Value::UInt(self.master_seed)),
            ("seeds".to_string(), Value::UInt(self.seeds)),
            ("workers".to_string(), Value::UInt(self.workers as u64)),
            (
                "grid".to_string(),
                Value::Arr(self.grid.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "positions".to_string(),
                Value::Arr(self.positions.iter().map(|&p| Value::UInt(p)).collect()),
            ),
            (
                "counts".to_string(),
                Value::Arr(self.counts.iter().map(|&c| Value::UInt(c)).collect()),
            ),
            ("git".to_string(), Value::Str(self.git.clone())),
            (
                "git_describe".to_string(),
                Value::Str(self.git_describe.clone()),
            ),
            ("quick".to_string(), Value::Bool(self.quick)),
            ("shard".to_string(), Value::Str(self.shard.clone())),
            (
                "space".to_string(),
                Value::Arr(self.space.iter().cloned().map(Value::Str).collect()),
            ),
            ("space_hash".to_string(), Value::UInt(self.space_hash)),
            (
                "config".to_string(),
                self.config.as_ref().map_or(Value::Null, RunConfig::to_json),
            ),
            ("complete".to_string(), Value::Bool(self.complete)),
            ("version".to_string(), Value::UInt(self.version as u64)),
        ])
    }
}

/// FNV-1a over the sweep identity: scenario, master seed, global seed
/// count, quick flag, and the resolved space lines. Every [`TrialKey`]
/// embeds this hash, so records from a drifted space (edited scenario
/// code, different overrides) can never be mistaken for resumable state.
pub fn space_hash(
    scenario: &str,
    master_seed: u64,
    seeds: u64,
    quick: bool,
    space: &[String],
) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        // Field separator: a byte no field can contain alone.
        h ^= 0x1f;
        h = h.wrapping_mul(PRIME);
    };
    eat(scenario.as_bytes());
    eat(&master_seed.to_le_bytes());
    eat(&seeds.to_le_bytes());
    eat(&[u8::from(quick)]);
    for line in space {
        eat(line.as_bytes());
    }
    h
}

/// The key every trial record is stored under: `(scenario, space-hash,
/// full-grid position, seed index)`, encoded fixed-width so the journal's
/// lexicographic key order equals `(position, seed-index)` numeric order.
///
/// ```text
/// t/<scenario>/<space-hash:016x>/<position:08x>/<seed-index:08x>
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TrialKey {
    /// Scenario name.
    pub scenario: String,
    /// [`space_hash`] of the sweep.
    pub space_hash: u64,
    /// The grid point's position in the FULL grid (the seed-stream
    /// discriminator).
    pub position: u64,
    /// Seed index within the point.
    pub seed_index: u64,
}

impl TrialKey {
    /// Renders the key bytes.
    pub fn encode(&self) -> Vec<u8> {
        format!(
            "t/{}/{:016x}/{:08x}/{:08x}",
            self.scenario, self.space_hash, self.position, self.seed_index
        )
        .into_bytes()
    }

    /// Parses key bytes back.
    ///
    /// # Errors
    ///
    /// [`LabError::BadRecord`] on anything that is not an encoded trial
    /// key.
    pub fn decode(key: &[u8]) -> Result<TrialKey, LabError> {
        let bad = || {
            LabError::BadRecord(format!(
                "'{}' is not a trial key (t/<scenario>/<hash>/<pos>/<seed-index>)",
                String::from_utf8_lossy(key)
            ))
        };
        let text = std::str::from_utf8(key).map_err(|_| bad())?;
        let rest = text.strip_prefix("t/").ok_or_else(bad)?;
        // Scenario names are free-form; the three fixed-width tail
        // segments are ours, so split from the right.
        let mut parts = rest.rsplitn(4, '/');
        let seed_index =
            u64::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
        let position = u64::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
        let space_hash =
            u64::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
        let scenario = parts.next().ok_or_else(bad)?.to_string();
        if scenario.is_empty() {
            return Err(bad());
        }
        Ok(TrialKey {
            scenario,
            space_hash,
            position,
            seed_index,
        })
    }
}

/// The key a summary row is stored under after a run completes:
/// `s/<scenario>/<space-hash:016x>/<position:08x>/<metric>`.
pub fn summary_key(scenario: &str, space_hash: u64, position: u64, metric: &str) -> Vec<u8> {
    format!("s/{scenario}/{space_hash:016x}/{position:08x}/{metric}").into_bytes()
}

/// `git describe --always --dirty`, or "unknown" outside a repo.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The exact short sha of `HEAD`, suffixed `-dirty` when the work tree
/// has uncommitted changes (`git status --porcelain` non-empty);
/// "unknown" outside a repo.
///
/// Unlike [`git_describe`], the stamp never moves when tags do, and the
/// dirtiness test sees untracked files — `describe --dirty` only reports
/// modifications to tracked content, so a bench run with new uncommitted
/// sources would previously stamp itself as clean. Run manifests and
/// bench JSON both stamp with this, so artifacts of one run agree.
pub fn git_stamp() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(sha) = git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_string();
    };
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.trim().is_empty());
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha
    }
}

fn io_err(path: &Path, e: std::io::Error) -> LabError {
    LabError::Io(format!("{}: {e}", path.display()))
}

/// Writes `bytes` to `path` via a temp file in the same directory plus an
/// atomic rename, so readers never observe a torn file and a crash
/// mid-write leaves any previous version intact.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), LabError> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().to_string())
        .unwrap_or_else(|| "file".to_string());
    let tmp = path.with_file_name(format!("{name}.tmp"));
    fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

fn jsonl_bytes(records: &[TrialRecord]) -> Vec<u8> {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json().render());
        out.push('\n');
    }
    out.into_bytes()
}

/// Each grid label's full-grid position.
fn positions_by_label(manifest: &RunManifest) -> HashMap<&str, u64> {
    manifest
        .grid
        .iter()
        .map(String::as_str)
        .zip(manifest.positions.iter().copied())
        .collect()
}

/// Assigns every record its [`TrialKey`] from the manifest's grid:
/// position from `positions` (parallel to `grid`), seed index by
/// occurrence order within the point.
fn keyed_records<'a>(
    manifest: &RunManifest,
    records: &'a [TrialRecord],
) -> Result<Vec<(TrialKey, &'a TrialRecord)>, LabError> {
    let pos_of = positions_by_label(manifest);
    let mut next_seed: HashMap<&str, u64> = HashMap::new();
    records
        .iter()
        .map(|r| {
            let &position = pos_of.get(r.point.as_str()).ok_or_else(|| {
                LabError::BadRecord(format!(
                    "record for '{}', which the manifest grid does not list",
                    r.point
                ))
            })?;
            let seed_index = next_seed.entry(r.point.as_str()).or_insert(0);
            let key = TrialKey {
                scenario: manifest.scenario.clone(),
                space_hash: manifest.space_hash,
                position,
                seed_index: *seed_index,
            };
            *seed_index += 1;
            Ok((key, r))
        })
        .collect()
}

/// What [`RunWriter::resume`] hands back: the reopened writer plus the
/// trials that survived the crash in the journal.
pub type ResumedWriter = (RunWriter, JournalTrials);

/// Streams one run to disk as it executes, crash-safely:
/// [`RunWriter::create`] writes the manifest with `complete: false` and
/// opens the `trials.db` journal; [`RunWriter::put`] makes each record
/// durable under its [`TrialKey`] the moment a worker produces it (thread
/// safe — the engine calls it from the fleet); [`RunWriter::finish`]
/// derives `trials.jsonl`/`trials.csv`/`summary.csv` via temp-file +
/// rename, compacts the journal, and only then rewrites the manifest
/// with `complete: true`. A kill at any point leaves either a resumable
/// directory (`complete: false`, journal prefix intact) or a finished
/// one — never a silently torn store. `finish` journals every record it
/// is given, so the finished directory is the same bytes whether the
/// records were [`RunWriter::put`] as they ran (the engine) or not at
/// all (`merge`, which writes through `create` + `finish`).
pub struct RunWriter {
    dir: std::path::PathBuf,
    manifest: RunManifest,
    db: std::sync::Mutex<AofDb>,
}

impl RunWriter {
    fn marked_incomplete(dir: &Path, manifest: &RunManifest) -> Result<RunManifest, LabError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mut m = manifest.clone();
        m.complete = false;
        write_atomic(
            &dir.join("manifest.json"),
            (m.to_json().render_pretty() + "\n").as_bytes(),
        )?;
        Ok(m)
    }

    /// Creates the run directory, writes the manifest (marked
    /// incomplete), and opens a fresh journal.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`LabError::Io`].
    pub fn create(dir: &Path, manifest: &RunManifest) -> Result<RunWriter, LabError> {
        let manifest = Self::marked_incomplete(dir, manifest)?;
        let db = AofDb::create(&dir.join("trials.db"))?;
        Ok(RunWriter {
            dir: dir.to_path_buf(),
            manifest,
            db: std::sync::Mutex::new(db),
        })
    }

    /// Reopens an interrupted run directory for completion: re-marks the
    /// manifest incomplete, recovers the journal's valid prefix (a torn
    /// tail from the crash is dropped), and returns the surviving trials
    /// ([`read_trials`]) alongside the writer.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`LabError::Io`].
    pub fn resume(dir: &Path, manifest: &RunManifest) -> Result<ResumedWriter, LabError> {
        let manifest = Self::marked_incomplete(dir, manifest)?;
        let db = AofDb::open(&dir.join("trials.db"))?;
        let journal = read_trials(&db, &manifest);
        Ok((
            RunWriter {
                dir: dir.to_path_buf(),
                manifest,
                db: std::sync::Mutex::new(db),
            },
            journal,
        ))
    }

    /// Makes one record durable in the journal. Safe to call from worker
    /// threads; entry order in the journal is scheduling-dependent, but
    /// [`RunWriter::finish`] compacts to sorted canonical form.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`LabError::Io`].
    pub fn put(&self, key: &TrialKey, record: &TrialRecord) -> Result<(), LabError> {
        let mut db = self
            .db
            .lock()
            .map_err(|_| LabError::Io("trials.db: journal lock poisoned".into()))?;
        db.put(&key.encode(), record.to_json().render().as_bytes())
    }

    /// Derives the CSV/JSONL views (temp-file + rename), journals every
    /// record and summary row (re-putting a record already journaled
    /// changes nothing: values are pure functions of the records),
    /// compacts the journal to its sorted canonical form, and rewrites the
    /// manifest with `complete: true` — in that order, so the completion
    /// marker is the last thing to land. `records` must be the full record
    /// set in task order.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`LabError::Io`].
    pub fn finish(self, records: &[TrialRecord], summary: &RunSummary) -> Result<(), LabError> {
        let _span = ale_telemetry::Span::begin("store-write").attr("records", records.len());
        let RunWriter {
            dir,
            mut manifest,
            db,
        } = self;
        let mut db = db
            .into_inner()
            .map_err(|_| LabError::Io("trials.db: journal lock poisoned".into()))?;
        write_atomic(&dir.join("trials.jsonl"), &jsonl_bytes(records))?;
        write_atomic(&dir.join("trials.csv"), records_csv(records).as_bytes())?;
        write_atomic(&dir.join("summary.csv"), summary.summary_csv().as_bytes())?;
        for (key, r) in keyed_records(&manifest, records)? {
            db.put(&key.encode(), r.to_json().render().as_bytes())?;
        }
        let pos_of = positions_by_label(&manifest);
        for (label, metric, row) in summary.summary_rows() {
            let &position = pos_of.get(label.as_str()).ok_or_else(|| {
                LabError::BadRecord(format!(
                    "summary row for '{label}', which the manifest grid does not list"
                ))
            })?;
            db.put(
                &summary_key(&manifest.scenario, manifest.space_hash, position, &metric),
                row.render().as_bytes(),
            )?;
        }
        db.compact()?;
        manifest.complete = true;
        write_atomic(
            &dir.join("manifest.json"),
            (manifest.to_json().render_pretty() + "\n").as_bytes(),
        )
    }
}

/// Loads every record from a JSONL trial log, erroring loudly on any
/// malformed line — including a mid-line-truncated final record.
///
/// # Errors
///
/// IO failures and malformed lines (with their line number).
pub fn load_jsonl(path: &Path) -> Result<Vec<TrialRecord>, LabError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            parse(line).map_err(|e| LabError::BadRecord(format!("line {}: {e}", lineno + 1)))?;
        let record = TrialRecord::from_json(&value)
            .map_err(|e| LabError::BadRecord(format!("line {}: {e}", lineno + 1)))?;
        records.push(record);
    }
    Ok(records)
}

/// Loads a run manifest.
///
/// # Errors
///
/// IO failures and malformed JSON.
pub fn load_manifest(path: &Path) -> Result<RunManifest, LabError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let value = parse(&text).map_err(LabError::BadRecord)?;
    RunManifest::from_json(&value)
}

/// One journaled trial that [`read_trials`] accepted.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTrial {
    /// Index of the trial's grid point in the manifest's `grid`.
    pub point: usize,
    /// The trial's seed index within its point.
    pub seed_index: u64,
    /// The journaled payload: one rendered [`TrialRecord`].
    pub payload: String,
}

impl StoredTrial {
    /// Parses the payload into its record.
    ///
    /// # Errors
    ///
    /// [`LabError::BadRecord`] when the payload is not a trial record.
    pub fn record(&self) -> Result<TrialRecord, LabError> {
        TrialRecord::from_json(&parse(&self.payload).map_err(LabError::BadRecord)?)
    }
}

/// The `t/` entries of a run's journal, checked against its manifest by
/// [`read_trials`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournalTrials {
    /// The valid trials in key order: `(position, seed index)` ascending.
    pub trials: Vec<StoredTrial>,
    /// Every other `t/` entry: its raw key and why it was rejected.
    pub rejected: Vec<(Vec<u8>, String)>,
    /// Whether the journal ended in a torn entry ([`AofDb::truncated`]).
    pub truncated: bool,
}

/// Reads the trials of a run's journal and checks each `t/` entry
/// against `manifest`: its key must decode and name the manifest's
/// scenario and space hash, a grid position the manifest lists, and a
/// seed index below that point's count; its payload's `seed` must be
/// [`crate::fleet::derive_seed`] of the key and its `point` the grid
/// label at that position. This is the only path by which a run
/// directory's trials are read back (resume, merge, and the
/// missing-trial count of `check` and `serve`). The payload's two fields
/// are found by a scan, not a parse, because the count runs on every
/// `serve` request; [`StoredTrial::record`] parses.
pub fn read_trials(db: &AofDb, manifest: &RunManifest) -> JournalTrials {
    let point_at: HashMap<u64, usize> = manifest
        .positions
        .iter()
        .enumerate()
        .map(|(i, &pos)| (pos, i))
        .collect();
    let labels: Vec<String> = manifest
        .grid
        .iter()
        .map(|label| Value::Str(label.clone()).render())
        .collect();
    let check = |key: &[u8], value: Vec<u8>| -> Result<StoredTrial, String> {
        let k = TrialKey::decode(key).map_err(|_| "is not a trial key".to_string())?;
        if k.scenario != manifest.scenario || k.space_hash != manifest.space_hash {
            return Err("belongs to a different sweep".into());
        }
        let &point = point_at
            .get(&k.position)
            .ok_or("names a grid position the manifest does not list")?;
        if k.seed_index >= manifest.counts[point] {
            return Err("has a seed index beyond the point's trial count".into());
        }
        let payload = String::from_utf8(value).map_err(|_| "holds a non-UTF-8 payload")?;
        let seed = crate::fleet::derive_seed(manifest.master_seed, k.position, k.seed_index);
        let field = |name: &str| crate::json::raw_field(&payload, name);
        if field("seed").and_then(|s| s.parse::<u64>().ok()) != Some(seed)
            || field("point") != Some(labels[point].as_str())
        {
            return Err("payload disagrees with its key (corruption)".into());
        }
        Ok(StoredTrial {
            point,
            seed_index: k.seed_index,
            payload,
        })
    };
    let mut journal = JournalTrials {
        trials: Vec::new(),
        rejected: Vec::new(),
        truncated: db.truncated(),
    };
    for (key, value) in db.iter_prefix(b"t/") {
        match check(&key, value) {
            Ok(trial) => journal.trials.push(trial),
            Err(why) => journal.rejected.push((key, why)),
        }
    }
    journal
}

/// One summary row served from the durable store (the `summaries` read
/// path `check` consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSummaryRow {
    /// Grid-point label.
    pub point: String,
    /// Metric name.
    pub metric: String,
    /// Streaming mean.
    pub mean: f64,
    /// Samples seen.
    pub count: u64,
}

/// Serves a run directory's summary rows from the keyed store
/// (`trials.db` `s/` prefix), erroring loudly on an incomplete or torn
/// store instead of serving partial statistics.
///
/// # Errors
///
/// [`LabError::BadRecord`] naming the directory on an incomplete run
/// (manifest `complete: false`), a missing or truncated journal, a
/// journal without summary rows, or malformed rows; IO failures as
/// [`LabError::Io`].
pub fn load_summary_rows(dir: &Path) -> Result<Vec<StoredSummaryRow>, LabError> {
    let manifest = load_manifest(&dir.join("manifest.json"))?;
    if !manifest.complete {
        let expected: u64 = manifest.counts.iter().sum();
        let missing = missing_trials(dir, &manifest).unwrap_or(expected);
        return Err(LabError::BadRecord(format!(
            "{}: run is incomplete (crashed or still running; {missing} of {expected} \
             (point, seed-index) trials missing) — finish it with \
             `ale-lab run --resume {}` first",
            dir.display(),
            dir.display()
        )));
    }
    let db_path = dir.join("trials.db");
    if !db_path.exists() {
        return Err(LabError::BadRecord(format!(
            "{}: no trials.db journal to read summary rows from",
            dir.display()
        )));
    }
    let db = AofDb::open_read(&db_path)?;
    if db.truncated() {
        return Err(LabError::BadRecord(format!(
            "{}: trials.db is truncated mid-entry — resume the run before reading summaries",
            dir.display()
        )));
    }
    let mut rows = Vec::new();
    for (key, value) in db.iter_prefix(b"s/") {
        let bad = |what: &str| {
            LabError::BadRecord(format!(
                "{}: summary row '{}' {what}",
                dir.display(),
                String::from_utf8_lossy(&key)
            ))
        };
        let text = std::str::from_utf8(&value).map_err(|_| bad("is not UTF-8"))?;
        let v = parse(text).map_err(|e| bad(&format!("does not parse: {e}")))?;
        let field = |name: &str| v.get(name).ok_or_else(|| bad(&format!("lacks '{name}'")));
        rows.push(StoredSummaryRow {
            point: field("point")?
                .as_str()
                .ok_or_else(|| bad("has a non-string 'point'"))?
                .to_string(),
            metric: field("metric")?
                .as_str()
                .ok_or_else(|| bad("has a non-string 'metric'"))?
                .to_string(),
            mean: field("mean")?
                .as_f64()
                .ok_or_else(|| bad("has a non-numeric 'mean'"))?,
            count: field("count")?
                .as_u64()
                .ok_or_else(|| bad("has a non-u64 'count'"))?,
        });
    }
    if rows.is_empty() {
        return Err(LabError::BadRecord(format!(
            "{}: trials.db holds no summary rows",
            dir.display()
        )));
    }
    Ok(rows)
}

/// Counts the `(point, seed-index)` trials a run directory still lacks:
/// the manifest's expected total (Σ per-point counts) minus the valid
/// trials [`read_trials`] finds in `trials.db`. Entries it rejects are
/// skipped, never an error, and a missing journal leaves everything
/// missing. This is the number `check`'s `--resume` hint and the
/// serve/tail routes both report, so the two views of "what remains"
/// always agree.
///
/// # Errors
///
/// Filesystem failures reading the journal as [`LabError::Io`].
pub fn missing_trials(dir: &Path, manifest: &RunManifest) -> Result<u64, LabError> {
    let expected: u64 = manifest.counts.iter().sum();
    let db_path = dir.join("trials.db");
    if !db_path.exists() {
        return Ok(expected);
    }
    let present = read_trials(&AofDb::open_read(&db_path)?, manifest)
        .trials
        .len();
    Ok(expected.saturating_sub(present as u64))
}

/// Renders records as flat CSV; extra metrics become columns (the union
/// of keys across all records, in first-seen order per sorted set).
pub fn records_csv(records: &[TrialRecord]) -> String {
    let extra_keys: BTreeSet<&str> = records
        .iter()
        .flat_map(|r| r.extra.iter().map(|(k, _)| k.as_str()))
        .collect();
    let mut headers = vec![
        "scenario".to_string(),
        "point".to_string(),
        "family".to_string(),
        "algorithm".to_string(),
        "n".to_string(),
        "seed".to_string(),
        "rounds".to_string(),
        "congest_rounds".to_string(),
        "messages".to_string(),
        "bits".to_string(),
        "leaders".to_string(),
        "ok".to_string(),
    ];
    headers.extend(extra_keys.iter().map(|k| k.to_string()));
    let mut table = Table::new(headers);
    for r in records {
        let mut row = vec![
            r.scenario.clone(),
            r.point.clone(),
            r.family.clone(),
            r.algorithm.clone(),
            r.n.to_string(),
            r.seed.to_string(),
            r.rounds.to_string(),
            r.congest_rounds.to_string(),
            r.messages.to_string(),
            r.bits.to_string(),
            r.leaders.to_string(),
            r.ok.to_string(),
        ];
        for key in &extra_keys {
            row.push(
                r.extra
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(String::new(), |(_, v)| format!("{v}")),
            );
        }
        table.push_row(row);
    }
    table.to_csv()
}

/// Converts a JSONL trial log to CSV (the `ale-lab export` subcommand).
///
/// # Errors
///
/// Propagates load failures.
pub fn csv_from_jsonl(path: &Path) -> Result<String, LabError> {
    Ok(records_csv(&load_jsonl(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridPoint;
    use ale_graph::Topology;

    /// One trial of each of two points, seeded as a master-seed-1 run
    /// seeds them, so the journal checks accept them.
    fn sample_records() -> Vec<TrialRecord> {
        let p0 = GridPoint::new("cell-a").on(Topology::Cycle { n: 8 });
        let p1 = GridPoint::new("cell-b").on(Topology::Complete { n: 4 });
        let mut a = TrialRecord::new("demo", &p0, crate::fleet::derive_seed(1, 0, 0));
        a.messages = 40;
        a.ok = true;
        a.push_extra("territory", 12.5);
        let mut b = TrialRecord::new("demo", &p1, crate::fleet::derive_seed(1, 1, 0));
        b.messages = 7;
        b.push_extra("ratio", 0.5);
        vec![a, b]
    }

    fn sample_summary(records: &[TrialRecord]) -> RunSummary {
        let grid = vec![
            GridPoint::new("cell-a").on(Topology::Cycle { n: 8 }),
            GridPoint::new("cell-b").on(Topology::Complete { n: 4 }),
        ];
        let mut summary = RunSummary::new("demo", &grid, 1, 1, 1);
        summary.record(0, &records[0]);
        summary.record(1, &records[1]);
        summary
    }

    fn sample_manifest(shard: &str, space: Vec<String>) -> RunManifest {
        RunManifest::for_run(
            "demo",
            1,
            1,
            1,
            vec!["cell-a".into(), "cell-b".into()],
            false,
            shard,
            space,
        )
    }

    /// Writes a complete store the way `merge` does: no puts before
    /// `finish`.
    fn write_store(dir: &Path, manifest: &RunManifest, records: &[TrialRecord]) {
        let writer = RunWriter::create(dir, manifest).unwrap();
        writer.finish(records, &sample_summary(records)).unwrap();
    }

    #[test]
    fn jsonl_roundtrip_via_disk() {
        let dir = std::env::temp_dir().join(format!("ale-lab-store-{}", std::process::id()));
        let records = sample_records();
        let manifest = sample_manifest("2/4", vec!["topo=cycle(n=8),complete(n=4)".into()]);
        write_store(&dir, &manifest, &records);

        let loaded = load_jsonl(&dir.join("trials.jsonl")).unwrap();
        assert_eq!(loaded, records);
        let m = load_manifest(&dir.join("manifest.json")).unwrap();
        assert_eq!(m, manifest);
        assert!(m.complete);
        assert_eq!(m.version, STORE_VERSION);

        let csv = csv_from_jsonl(&dir.join("trials.jsonl")).unwrap();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        // Extra columns are the union, sorted.
        assert!(header.ends_with("ok,ratio,territory"));
        assert_eq!(lines.count(), 2);

        // The journal serves both record and summary keys.
        let db = AofDb::open_read(&dir.join("trials.db")).unwrap();
        assert!(!db.truncated());
        assert_eq!(db.iter_prefix(b"t/").len(), 2);
        assert!(!db.iter_prefix(b"s/").is_empty());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_writes_the_same_bytes_with_or_without_puts() {
        let base = std::env::temp_dir().join(format!("ale-lab-stream-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let records = sample_records();
        let summary = sample_summary(&records);
        let manifest = sample_manifest("0/1", Vec::new());
        let batch_dir = base.join("batch");
        write_store(&batch_dir, &manifest, &records);
        let stream_dir = base.join("stream");
        let writer = RunWriter::create(&stream_dir, &manifest).unwrap();
        // Mid-run, the manifest says incomplete.
        let midway = load_manifest(&stream_dir.join("manifest.json")).unwrap();
        assert!(!midway.complete);
        for (key, r) in keyed_records(&manifest, &records).unwrap() {
            writer.put(&key, r).unwrap();
        }
        writer.finish(&records, &summary).unwrap();
        for file in [
            "manifest.json",
            "trials.jsonl",
            "trials.csv",
            "summary.csv",
            "trials.db",
        ] {
            let batch = std::fs::read(batch_dir.join(file)).unwrap();
            let stream = std::fs::read(stream_dir.join(file)).unwrap();
            assert_eq!(batch, stream, "{file} diverged");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn read_trials_checks_every_entry_against_the_manifest() {
        let dir = std::env::temp_dir().join(format!("ale-lab-readtrials-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let records = sample_records();
        let mut manifest = sample_manifest("0/1", Vec::new());
        write_store(&dir, &manifest, &records);
        let path = dir.join("trials.db");
        let journal = read_trials(&AofDb::open_read(&path).unwrap(), &manifest);
        assert!(journal.rejected.is_empty(), "{:?}", journal.rejected);
        assert!(!journal.truncated);
        let got: Vec<(usize, u64, TrialRecord)> = journal
            .trials
            .iter()
            .map(|t| (t.point, t.seed_index, t.record().unwrap()))
            .collect();
        assert_eq!(
            got,
            [(0, 0, records[0].clone()), (1, 0, records[1].clone())]
        );

        // Append one entry per failed check, each under a key that sorts
        // between or after the good ones.
        let key = |space_hash: u64, position: u64, seed_index: u64| {
            TrialKey {
                scenario: "demo".into(),
                space_hash,
                position,
                seed_index,
            }
            .encode()
        };
        let hash = manifest.space_hash;
        let payload = records[0].to_json().render();
        let mut wrong_seed = records[0].clone();
        wrong_seed.seed ^= 1;
        let mut wrong_point = records[0].clone();
        wrong_point.point = "cell-b".into();
        let bad: Vec<(Vec<u8>, String, &str)> = vec![
            (b"t/not-a-key".to_vec(), payload.clone(), "not a trial key"),
            (key(hash ^ 1, 0, 0), payload.clone(), "different sweep"),
            (key(hash, 7, 0), payload.clone(), "does not list"),
            (
                key(hash, 0, 1),
                payload.clone(),
                "beyond the point's trial count",
            ),
            (key(hash, 1, 0), "{".into(), "disagrees with its key"),
        ];
        let mut db = AofDb::open(&path).unwrap();
        for (k, v, _) in &bad {
            db.put(k, v.as_bytes()).unwrap();
        }
        drop(db);
        let journal = read_trials(&AofDb::open_read(&path).unwrap(), &manifest);
        // The unreadable payload replaced cell-b's good record.
        assert_eq!(journal.trials.len(), 1);
        assert_eq!(journal.rejected.len(), bad.len());
        for (k, _, why) in &bad {
            let (_, reason) = journal.rejected.iter().find(|(rk, _)| rk == k).unwrap();
            assert!(reason.contains(why), "{reason} should say {why}");
        }
        // Payloads must agree with their keys: seed and point label.
        let mut db = AofDb::open(&path).unwrap();
        for r in [&wrong_seed, &wrong_point] {
            db.put(&key(hash, 0, 0), r.to_json().render().as_bytes())
                .unwrap();
            let journal = read_trials(&db, &manifest);
            let (_, reason) = journal
                .rejected
                .iter()
                .find(|(k, _)| k == &key(hash, 0, 0))
                .unwrap();
            assert!(reason.contains("disagrees with its key"), "{reason}");
        }
        // A raised count admits seed index 1; its payload seed is still
        // checked.
        manifest.counts = vec![2, 1];
        db.put(&key(hash, 0, 1), payload.as_bytes()).unwrap();
        let journal = read_trials(&db, &manifest);
        assert!(journal.trials.iter().all(|t| t.seed_index == 0));
        drop(db);

        // A torn tail is reported, and the valid prefix still reads.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        let journal = read_trials(&AofDb::open_read(&path).unwrap(), &manifest);
        assert!(journal.truncated);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trial_keys_roundtrip_and_sort_numerically() {
        let key = TrialKey {
            scenario: "ablation-cautious".into(),
            space_hash: 0xdead_beef_0123_4567,
            position: 300,
            seed_index: 7,
        };
        assert_eq!(TrialKey::decode(&key.encode()).unwrap(), key);
        // Fixed-width hex: byte order == numeric order.
        let lo = TrialKey {
            position: 9,
            ..key.clone()
        };
        let hi = TrialKey {
            position: 10,
            ..key.clone()
        };
        assert!(lo.encode() < hi.encode());
        for bad in [&b"t/x/zz/00/00"[..], b"s/x/0/0/0", b"t/", b"nope"] {
            assert!(TrialKey::decode(bad).is_err(), "{:?}", bad);
        }
    }

    #[test]
    fn space_hash_is_sensitive_to_every_component() {
        let space = vec!["n=8,16".to_string()];
        let base = space_hash("s", 1, 4, false, &space);
        assert_eq!(base, space_hash("s", 1, 4, false, &space));
        assert_ne!(base, space_hash("t", 1, 4, false, &space));
        assert_ne!(base, space_hash("s", 2, 4, false, &space));
        assert_ne!(base, space_hash("s", 1, 5, false, &space));
        assert_ne!(base, space_hash("s", 1, 4, true, &space));
        assert_ne!(base, space_hash("s", 1, 4, false, &["n=8,32".to_string()]));
    }

    #[test]
    fn git_stamp_is_a_sha_with_optional_dirty_suffix() {
        let stamp = git_stamp();
        assert!(!stamp.is_empty());
        if stamp != "unknown" {
            let sha = stamp.strip_suffix("-dirty").unwrap_or(&stamp);
            assert!(sha.len() >= 4, "short sha expected, got '{stamp}'");
            assert!(sha.chars().all(|c| c.is_ascii_hexdigit()), "'{stamp}'");
        }
    }

    #[test]
    fn manifests_stamp_git_like_bench_json_does() {
        // The provenance-drift fix: manifest.git is the exact stamp (the
        // same function bench JSON uses), with describe kept alongside.
        let manifest =
            RunManifest::for_run("demo", 1, 1, 1, vec!["a".into()], false, "0/1", Vec::new());
        assert_eq!(manifest.git, git_stamp());
        assert_eq!(manifest.git_describe, git_describe());
    }

    #[test]
    fn pre_v2_manifests_are_rejected() {
        let manifest =
            RunManifest::for_run("demo", 1, 2, 3, vec!["a".into()], true, "0/1", Vec::new());
        assert_eq!(manifest.effective_positions(), [0]);
        assert_eq!(manifest.effective_counts(), [2]);
        let v = manifest.to_json();
        assert_eq!(RunManifest::from_json(&v).unwrap(), manifest);
        // `field` dropped (`None`) or replaced; returns the parse error.
        let edited = |field: &str, replacement: Option<Value>| {
            let Value::Obj(pairs) = &v else {
                unreachable!("a manifest renders as an object")
            };
            let pairs = pairs
                .iter()
                .filter_map(|(k, val)| match (k == field, &replacement) {
                    (false, _) => Some((k.clone(), val.clone())),
                    (true, r) => r.clone().map(|r| (k.clone(), r)),
                })
                .collect::<Vec<_>>();
            RunManifest::from_json(&Value::Obj(pairs))
                .unwrap_err()
                .to_string()
        };
        // Every field a pre-v2 manifest lacked is now required.
        for field in [
            "shard",
            "space",
            "space_hash",
            "positions",
            "counts",
            "config",
            "complete",
            "git_describe",
        ] {
            let err = edited(field, None);
            assert!(err.contains(&format!("'{field}'")), "{field}: {err}");
        }
        // Per-point fields must be parallel to the grid.
        for field in ["positions", "counts"] {
            let err = edited(field, Some(Value::Arr(Vec::new())));
            assert!(err.contains(&format!("'{field}' has 0 entries")), "{err}");
        }
        // Another schema version is refused by name.
        let err = edited("version", Some(Value::UInt(1)));
        assert!(err.contains("'version' is 1"), "{err}");
    }

    #[test]
    fn manifest_roundtrips_with_durable_store_fields() {
        let mut manifest = RunManifest::for_run(
            "demo",
            1,
            2,
            3,
            vec!["a".into(), "b".into()],
            true,
            "1/2",
            vec!["n=8,16".into()],
        );
        manifest.positions = vec![1, 3];
        manifest.counts = vec![2, 5];
        manifest.complete = false;
        manifest.config = Some(RunConfig {
            ns: vec![8, 16],
            topos: vec!["cycle:8".into()],
            params: vec![("gamma".into(), vec!["0.1".into(), "0.3".into()])],
            algos: vec!["this-work".into()],
        });
        let back = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.effective_positions(), [1, 3]);
        assert_eq!(back.effective_counts(), [2, 5]);
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let path = std::env::temp_dir().join(format!("ale-lab-bad-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"scenario\": \"x\"}\n").unwrap();
        let err = load_jsonl(&path).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_rows_are_served_from_the_store() {
        let dir = std::env::temp_dir().join(format!("ale-lab-sumrows-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let records = sample_records();
        let manifest = sample_manifest("0/1", Vec::new());
        write_store(&dir, &manifest, &records);
        let rows = load_summary_rows(&dir).unwrap();
        let msgs: Vec<&StoredSummaryRow> = rows.iter().filter(|r| r.metric == "messages").collect();
        assert_eq!(msgs.len(), 2);
        let a = msgs.iter().find(|r| r.point == "cell-a").unwrap();
        assert_eq!(a.mean, 40.0);
        assert_eq!(a.count, 1);

        // The journaled trials all count as present.
        assert_eq!(missing_trials(&dir, &manifest).unwrap(), 0);

        // An incomplete manifest blocks the read path loudly, naming the
        // missing-trial count next to the --resume hint.
        let mut m = manifest.clone();
        m.complete = false;
        write_atomic(
            &dir.join("manifest.json"),
            (m.to_json().render_pretty() + "\n").as_bytes(),
        )
        .unwrap();
        let err = load_summary_rows(&dir).unwrap_err().to_string();
        assert!(err.contains("incomplete"), "{err}");
        assert!(err.contains("--resume"), "{err}");
        assert!(err.contains("0 of 2 (point, seed-index) trials"), "{err}");

        // Raising a point's expected count reopens a gap, and a missing
        // journal leaves everything missing.
        let mut wider = manifest.clone();
        wider.counts = vec![3, 1];
        assert_eq!(missing_trials(&dir, &wider).unwrap(), 2);
        let empty = std::env::temp_dir().join(format!("ale-lab-nodb-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert_eq!(missing_trials(&empty, &manifest).unwrap(), 2);
        std::fs::remove_dir_all(&empty).ok();

        // Without a journal there is nothing to serve: an error naming
        // the journal, not a fallback.
        std::fs::remove_file(dir.join("trials.db")).unwrap();
        write_atomic(
            &dir.join("manifest.json"),
            (manifest.to_json().render_pretty() + "\n").as_bytes(),
        )
        .unwrap();
        let err = load_summary_rows(&dir).unwrap_err();
        assert!(matches!(err, LabError::BadRecord(_)), "{err}");
        assert!(err.to_string().contains("no trials.db journal"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
