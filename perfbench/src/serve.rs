//! The results-serve workload: a stored table1 sweep mounted the way
//! `ale-lab serve` mounts it (`ServeApp` behind an `ale_serve::Server`),
//! loaded over loopback by a closed loop of one client.
//!
//! Every response is checked byte for byte against the store it serves:
//! `/trials` bodies against the journal's `t/` rows, the row arrays of
//! `/summary` and `/tail` against its `s/` and `t/` rows, and `/runs`
//! against the route table's own in-process answer.

use crate::sweep::repeated_setup;
use crate::workload::{self, Size, Workload, WORKERS};
use crate::{cpu_s, fresh_dir, mean, median, peak_rss_mb, Outcome, ROUTES};
use ale_lab::db::scan_entries;
use ale_lab::engine::execute;
use ale_lab::serve::ServeApp;
use ale_lab::store::{load_manifest, TrialKey};
use ale_serve::{Body, Request, Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The mount id of the served run (its directory name).
const RUN_ID: &str = "sweep";
/// Requests of each route in one pass of the mix. The mix is uniform
/// over [`ROUTES`] by choice: the repository documents no traffic to
/// derive weights from. The seed picks points, cursors and the order.
const PER_ROUTE: usize = 10;
/// Client socket timeout; a request that exceeds it fails.
const TIMEOUT: Duration = Duration::from_secs(10);

/// One request of the mix and the body it must return.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Index into [`ROUTES`].
    pub route: usize,
    /// Request target (path and query).
    pub target: String,
    /// The exact body (`/trials`, `/runs`), or the exact tail of the body
    /// from its row array on (`/summary`, `/tail`). Shared by the repeats
    /// of one target.
    pub body: Arc<[u8]>,
}

impl Expect {
    /// Whether a response matches the store.
    pub fn accepts(&self, status: u16, body: &[u8]) -> bool {
        let marker: &[u8] = match ROUTES[self.route] {
            "summary" => b"\"rows\":[",
            "tail" => b"\"records\":[",
            _ => return status == 200 && body == &self.body[..],
        };
        let Some(at) = find(body, marker) else {
            return false;
        };
        status == 200
            && find(&body[..at], b"\"complete\":true").is_some()
            && body[at + marker.len()..] == self.body[..]
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn joined<'a>(values: impl Iterator<Item = &'a [u8]>, close: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(v);
    }
    out.extend_from_slice(close);
    out
}

fn jsonl<'a>(rows: impl Iterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    for v in rows {
        out.extend_from_slice(v);
        out.push(b'\n');
    }
    out
}

/// Every target the mix can draw, per route in [`ROUTES`] order: each
/// grid point for `/trials?point=…` and each trial row's journal offset
/// for `/tail?from=…`.
///
/// # Errors
///
/// Unreadable store files.
pub fn targets(dir: &Path) -> Result<Vec<Vec<String>>, String> {
    let manifest = load_manifest(&dir.join("manifest.json")).map_err(|e| e.to_string())?;
    let data = std::fs::read(dir.join("trials.db")).map_err(|e| e.to_string())?;
    let (entries, _) = scan_entries(&data);
    let base = format!("/runs/{RUN_ID}");
    Ok(vec![
        vec![format!("{base}/summary")],
        manifest
            .grid
            .iter()
            .map(|label| format!("{base}/trials?point={label}"))
            .collect(),
        vec![format!("{base}/trials")],
        entries
            .iter()
            .filter(|e| e.key.starts_with(b"t/"))
            .map(|e| format!("{base}/tail?from={}", e.offset))
            .collect(),
        vec!["/runs".to_string()],
    ])
}

/// One pass of the mix for `seed`: [`PER_ROUTE`] requests of each route,
/// drawn and shuffled by the seed, as `(route, target)`.
pub fn mix(targets: &[Vec<String>], seed: u64) -> Vec<(usize, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pass = Vec::new();
    for (route, choices) in targets.iter().enumerate() {
        for _ in 0..PER_ROUTE {
            pass.push((route, choices[rng.gen_range(0..choices.len())].clone()));
        }
    }
    pass.shuffle(&mut rng);
    pass
}

/// The expected response of each drawn request, read from the run
/// directory's journal. Only the drawn targets get a body, each once.
///
/// # Errors
///
/// Unreadable store files, or a target [`targets`] does not make.
pub fn expectations(
    dir: &Path,
    app: &ServeApp,
    drawn: &[(usize, String)],
) -> Result<Vec<Expect>, String> {
    let manifest = load_manifest(&dir.join("manifest.json")).map_err(|e| e.to_string())?;
    let data = std::fs::read(dir.join("trials.db")).map_err(|e| e.to_string())?;
    let (entries, _) = scan_entries(&data);
    // Key order, as the store's prefix scans return rows.
    let sorted: BTreeMap<&[u8], &[u8]> = entries
        .iter()
        .map(|e| (e.key.as_slice(), e.value.as_slice()))
        .collect();
    let trials = || {
        sorted
            .iter()
            .filter(|(k, _)| k.starts_with(b"t/"))
            .map(|(k, v)| (*k, *v))
    };
    let body = |route: usize, target: &str| -> Result<Vec<u8>, String> {
        let arg = |key: &str| target.split_once(key).map(|(_, v)| v);
        Ok(match ROUTES[route] {
            "summary" => joined(
                sorted
                    .iter()
                    .filter(|(k, _)| k.starts_with(b"s/"))
                    .map(|(_, v)| *v),
                b"]}\n",
            ),
            "trials_point" => {
                let label = arg("?point=").ok_or("no point")?;
                let at = manifest
                    .grid
                    .iter()
                    .position(|l| l == label)
                    .ok_or_else(|| format!("unknown point {label}"))?;
                let pos = manifest.effective_positions()[at];
                jsonl(
                    trials()
                        .filter(|(k, _)| TrialKey::decode(k).is_ok_and(|key| key.position == pos))
                        .map(|(_, v)| v),
                )
            }
            "trials" => jsonl(trials().map(|(_, v)| v)),
            "tail" => {
                let from: u64 = arg("?from=")
                    .and_then(|v| v.parse().ok())
                    .ok_or("no cursor")?;
                joined(
                    entries
                        .iter()
                        .filter(|e| e.offset >= from && e.key.starts_with(b"t/"))
                        .map(|e| e.value.as_slice()),
                    b"]}\n",
                )
            }
            _ => handle(app, target)?.1,
        })
    };
    let mut made: BTreeMap<&str, Arc<[u8]>> = BTreeMap::new();
    drawn
        .iter()
        .map(|(route, target)| {
            let shared = match made.get(target.as_str()) {
                Some(b) => Arc::clone(b),
                None => {
                    let b: Arc<[u8]> = body(*route, target)?.into();
                    made.insert(target, Arc::clone(&b));
                    b
                }
            };
            Ok(Expect {
                route: *route,
                target: target.clone(),
                body: shared,
            })
        })
        .collect()
}

/// The checked pass of the mix for `seed`.
///
/// # Errors
///
/// Unreadable store files.
pub fn checked_mix(s: &Served, seed: u64) -> Result<Vec<Expect>, String> {
    let drawn = mix(&targets(&s.dir)?, seed);
    expectations(&s.dir, &s.app, &drawn)
}

/// `GET target` over a fresh connection (the server closes after each
/// response): `(status, de-chunked body)`. The connection is reset once
/// the whole response is read; see [`reset_on_close`].
///
/// # Errors
///
/// Socket errors, timeouts and malformed responses.
pub fn get(addr: SocketAddr, target: &str) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(s, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    reset_on_close(&s)?;
    let head_end = find(&raw, b"\r\n\r\n").ok_or("response has no head")?;
    let head = String::from_utf8_lossy(&raw[..head_end]).to_ascii_lowercase();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("bad status line")?;
    let body = &raw[head_end + 4..];
    if head.contains("transfer-encoding: chunked") {
        Ok((status, dechunk(body)?))
    } else {
        Ok((status, body.to_vec()))
    }
}

/// Makes closing `s` send a reset instead of a FIN (`SO_LINGER` of 0).
///
/// The server closes first, so a normal close leaves its side of every
/// connection in `TIME_WAIT` for a minute: a run's ~10⁴ connections would
/// still be in the kernel's tables during the next run and make its
/// requests cost more CPU than the first run's. The reset ends the
/// server's side at once, so every run starts from the same state.
fn reset_on_close(s: &TcpStream) -> Result<(), String> {
    use std::os::fd::AsRawFd;
    /// `struct linger`.
    #[repr(C)]
    struct Linger {
        onoff: i32,
        linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        onoff: 1,
        linger: 0,
    };
    // SAFETY: the descriptor is `s`'s open socket, and `linger` is a valid
    // `struct linger` that outlives the call.
    let rc = unsafe {
        setsockopt(
            s.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "setsockopt(SO_LINGER): {}",
            std::io::Error::last_os_error()
        ))
    }
}

fn dechunk(mut b: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let eol = find(b, b"\r\n").ok_or("truncated chunk size")?;
        let size = usize::from_str_radix(
            std::str::from_utf8(&b[..eol]).map_err(|e| e.to_string())?,
            16,
        )
        .map_err(|e| e.to_string())?;
        b = &b[eol + 2..];
        if size == 0 {
            return Ok(out);
        }
        if b.len() < size + 2 {
            return Err("truncated chunk".into());
        }
        out.extend_from_slice(&b[..size]);
        b = &b[size + 2..];
    }
}

/// Calls the route table in-process, draining a streamed body.
///
/// # Errors
///
/// A failing stream.
pub fn handle(app: &ServeApp, target: &str) -> Result<(u16, Vec<u8>), String> {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let req = Request {
        method: "GET".into(),
        path: path.into(),
        query: query
            .split('&')
            .filter(|q| !q.is_empty())
            .map(|q| {
                let (k, v) = q.split_once('=').unwrap_or((q, ""));
                (k.to_string(), v.to_string())
            })
            .collect(),
        headers: Vec::new(),
    };
    let resp = app.handle(&req);
    let body = match resp.body {
        Body::Full(b) => b,
        Body::Stream(f) => {
            let mut b = Vec::new();
            f(&mut b).map_err(|e| e.to_string())?;
            b
        }
    };
    Ok((resp.status, body))
}

/// A served store.
pub struct Served {
    pub dir: PathBuf,
    pub app: Arc<ServeApp>,
    pub server: ServerHandle,
}

/// Builds the table1 store under `work/<RUN_ID>` and serves it on an
/// ephemeral loopback port, returning once `/healthz` answers.
///
/// # Errors
///
/// Sweep, mount or bind failures.
pub fn start(size: Size, seed: u64, work: &Path) -> Result<Served, String> {
    let sweep = workload::lab_sweep(Workload::ResultsServe, size).expect("serve has a sweep");
    fresh_dir(work)?;
    let dir = work.join(RUN_ID);
    execute(
        sweep.scenario.as_ref(),
        &sweep.spec(seed, Some(dir.clone())),
    )
    .map_err(|e| e.to_string())?;
    let app = Arc::new(ServeApp::new(std::slice::from_ref(&dir)).map_err(|e| e.to_string())?);
    let cfg = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
    let shared = Arc::clone(&app);
    let server = server
        .spawn(Arc::new(move |req| shared.handle(req)))
        .map_err(|e| e.to_string())?;
    let deadline = Instant::now() + TIMEOUT;
    while get(server.addr(), "/healthz").map(|(s, _)| s) != Ok(200) {
        if Instant::now() > deadline {
            server.shutdown();
            return Err("/healthz never answered".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Served { dir, app, server })
}

/// One pass of the closed loop through the mix.
struct PassLoad {
    cpu_s: f64,
    /// Requests that returned the expected body.
    ok: usize,
}

/// Closed loop of one client: sends the next request of the repeating
/// `pass` as soon as the previous one completes, in whole passes, until
/// `seconds` pass. A pass's CPU time is the client's and the server's
/// during the requests; checking the bodies is left out.
fn load(addr: SocketAddr, pass: &[Expect], seconds: f64) -> Vec<PassLoad> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut load = PassLoad { cpu_s: 0.0, ok: 0 };
        for e in pass {
            let t = cpu_s();
            let response = get(addr, &e.target);
            load.cpu_s += cpu_s() - t;
            load.ok += usize::from(response.is_ok_and(|(s, b)| e.accepts(s, &b)));
        }
        passes.push(load);
    }
    passes
}

/// End-to-end run of results-serve. The time metrics are medians over
/// the passes through the mix, in CPU seconds.
///
/// # Errors
///
/// Set-up failures.
pub fn run_e2e(size: Size, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut served: Option<Served> = None;
    let setup_s = repeated_setup(|| {
        if let Some(s) = served.take() {
            s.server.shutdown();
        }
        served = Some(start(size, seed, work)?);
        Ok(())
    })?;
    let s = served.expect("set up at least once");
    let pass = checked_mix(&s, seed);
    let passes = match &pass {
        Ok(pass) => load(s.server.addr(), pass, seconds),
        Err(_) => Vec::new(),
    };
    s.server.shutdown();
    let per_pass = pass?.len();
    let ok: usize = passes.iter().map(|p| p.ok).sum();
    let attempted = passes.len() * per_pass;
    let mut out = Outcome {
        attempted: attempted as u64,
        failed: (attempted - ok) as u64,
        ..Outcome::default()
    };
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.ok as f64 / p.cpu_s).collect();
    out.set("setup_s", setup_s);
    out.set("pass_cpu_s", median(&cpus));
    out.set("ops_per_cpu_s", median(&rates));
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

/// Passes of the mix the traced run replays, in process and over the
/// socket, and journal reads it times.
const TRACED_PASSES: usize = 20;
const TRACED_READS: usize = 20;

/// Traced run of results-serve: journal reads, the route table in
/// process, and the same requests over one socket client, so the socket
/// time minus the handler's is the transport's.
///
/// # Errors
///
/// Set-up failures.
pub fn run_traced(size: Size, seed: u64, work: &Path) -> Result<Outcome, String> {
    let s = start(size, seed, work)?;
    let result = traced(&s, seed);
    s.server.shutdown();
    result
}

fn traced(s: &Served, seed: u64) -> Result<Outcome, String> {
    let pass = checked_mix(s, seed)?;
    let journal = s.dir.join("trials.db");
    let mut out = Outcome::default();
    // The route table without timers, run before and after the traced
    // passes so a drift in the host's speed does not read as overhead.
    let untimed = || -> Result<f64, String> {
        let t = Instant::now();
        for _ in 0..TRACED_PASSES {
            for e in &pass {
                std::hint::black_box(handle(&s.app, &e.target)?);
            }
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let before_s = untimed()?;
    let wall = Instant::now();

    let t = Instant::now();
    for _ in 0..TRACED_READS {
        ale_lab::db::AofDb::open_read(&journal).map_err(|e| e.to_string())?;
    }
    let open_s = t.elapsed().as_secs_f64();
    let data = std::fs::read(&journal).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for _ in 0..TRACED_READS {
        std::hint::black_box(scan_entries(std::hint::black_box(&data)));
    }
    let scan_s = t.elapsed().as_secs_f64();

    let mut handle_ms = [const { Vec::new() }; 5];
    let mut bytes = [const { Vec::new() }; 5];
    let check = |out: &mut Outcome, e: &Expect, status: u16, body: &[u8]| {
        out.attempted += 1;
        out.failed += u64::from(!e.accepts(status, body));
    };
    let handled = Instant::now();
    for _ in 0..TRACED_PASSES {
        for e in &pass {
            let t = Instant::now();
            let (status, body) = handle(&s.app, &e.target)?;
            handle_ms[e.route].push(t.elapsed().as_secs_f64() * 1e3);
            bytes[e.route].push(body.len() as f64);
            check(&mut out, e, status, &body);
        }
    }
    let traced_s = handled.elapsed().as_secs_f64();

    let mut socket_ms = Vec::new();
    for _ in 0..TRACED_PASSES {
        for e in &pass {
            let t = Instant::now();
            let (status, body) = get(s.server.addr(), &e.target)?;
            socket_ms.push((e.route, t.elapsed().as_secs_f64() * 1e3));
            check(&mut out, e, status, &body);
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();

    let untraced_s = (before_s + untimed()?) / 2.0;

    let transport: Vec<f64> = socket_ms
        .iter()
        .map(|(r, ms)| ms - mean(&handle_ms[*r]))
        .collect();
    let attributed = open_s
        + scan_s
        + handle_ms.iter().flatten().sum::<f64>() / 1e3
        + socket_ms.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3;

    out.set("db.open_read_s", open_s / TRACED_READS as f64);
    out.set(
        "db.scan_mb_per_s",
        (data.len() * TRACED_READS) as f64 / 1e6 / scan_s,
    );
    for (i, r) in ROUTES.iter().enumerate() {
        out.set(&format!("serve.handle_ms.{r}"), mean(&handle_ms[i]));
        out.set(&format!("serve.bytes.{r}"), mean(&bytes[i]));
    }
    out.set("serve.transport_ms", mean(&transport));
    out.set("lab.unattributed_s", wall_s - attributed);
    out.set("trace.wall_s", wall_s);
    out.set("trace.untraced_s", untraced_s);
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    out.zero_unset(&crate::per_layer());
    Ok(out)
}
