//! The benchmark's own tests, on tiny sizes: every workload emits every
//! metric with its unit, the traced run reconciles, the output checks
//! reject tampered results, and `BENCHMARK.json` names what the harness
//! emits. Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::check;
use perfbench::replay::Mode;
use perfbench::serve;
use perfbench::workload::{self, LabSweep};
use perfbench::{per_layer, run, Outcome, Size, Workload, END_TO_END};
use std::path::PathBuf;

fn work(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    perfbench::fresh_dir(&dir).expect("scratch dir");
    dir
}

fn assert_emits(out: &Outcome, names: &[(String, &str)], what: &str) {
    let line = out.to_json(names).unwrap_or_else(|e| panic!("{what}: {e}"));
    for (name, unit) in names {
        let field = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&field)
            .unwrap_or_else(|| panic!("{what}: no {name}"));
        let rest = &line[at..];
        assert!(
            rest[..rest.find('}').expect("closed")].ends_with(&format!("\"unit\": \"{unit}\"")),
            "{what}: {name} lacks unit {unit}"
        );
    }
    assert!(out.attempted >= 1, "{what}: nothing attempted");
    assert_eq!(out.failed, 0, "{what}: output check failed");
}

/// One test for every run, so the traced runs' global telemetry sink is
/// never installed twice at once.
#[test]
fn every_workload_emits_every_metric_and_the_trace_reconciles() {
    let e2e: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    let layers = per_layer();
    for w in Workload::ALL {
        let dir = work(w.name());
        let out = run(w, Size::Tiny, 7, 0.01, false, &dir).expect("untraced run");
        assert_emits(&out, &e2e, w.name());
        for (name, _) in &e2e {
            assert!(out.get(name).unwrap() > 0.0, "{}: {name} is 0", w.name());
        }

        let out = run(w, Size::Tiny, 7, 0.01, true, &dir).expect("traced run");
        assert_emits(&out, &layers, w.name());
        let wall = out.get("trace.wall_s").unwrap();
        let rest = out.get("lab.unattributed_s").unwrap();
        // The remainder is what the named spans leave of the wall time:
        // it can only be negative if two spans counted the same time.
        assert!(
            wall > 0.0 && rest >= -1e-9 && rest <= wall,
            "{}: {rest} of {wall}",
            w.name()
        );
    }
}

#[test]
fn output_check_rejects_a_tampered_summary_row() {
    let w = Workload::ElectionSweep;
    let plan = workload::plan(w, Size::Tiny).unwrap();
    let replay = check::replay_all(w, &plan, 3, 2, Mode::Reference).unwrap();
    let reference = check::rows(w, &plan, &replay.counts);
    let sweep: LabSweep = workload::lab_sweep(w, Size::Tiny).unwrap();
    let dir = work("tamper-summary");
    let pass = perfbench::sweep::lab_pass(w, &sweep, 3, &dir.join("run")).expect("sweep");
    let counts: Vec<_> = pass.iter().map(|(c, _)| *c).collect();
    let mut observed = check::rows(w, &plan, &counts);
    assert_eq!(check::failed_trials(&reference, &observed), 0);

    observed[1].sum.messages += 1;
    assert_eq!(
        check::failed_trials(&reference, &observed),
        observed[1].trials
    );
    observed.pop();
    assert!(check::failed_trials(&reference, &observed) > observed[1].trials);

    // Another master seed draws other trials: its rows must not pass.
    let other = check::replay_all(w, &plan, 4, 2, Mode::Reference).unwrap();
    assert!(check::failed_trials(&reference, &check::rows(w, &plan, &other.counts)) > 0);
}

#[test]
fn output_check_rejects_a_tampered_served_body() {
    let s = serve::start(Size::Tiny, 5, &work("tamper-serve")).expect("serve");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let firsts: Vec<(usize, String)> = serve::targets(&s.dir)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(route, choices)| (route, choices[0].clone()))
            .collect();
        for e in &serve::expectations(&s.dir, &s.app, &firsts).unwrap() {
            let (status, body) = serve::get(s.server.addr(), &e.target).unwrap();
            assert!(e.accepts(status, &body), "{} rejected", e.target);
            assert!(!e.accepts(404, &body), "{}: non-2xx accepted", e.target);
            let mut tampered = body.clone();
            let last = tampered.len() - 3;
            tampered[last] ^= 1;
            assert!(
                !e.accepts(status, &tampered),
                "{}: tampered body accepted",
                e.target
            );
            assert!(
                !e.accepts(status, &body[..body.len() - 1]),
                "{}: short body",
                e.target
            );
        }
    }));
    s.server.shutdown();
    result.unwrap();
}

#[test]
fn benchmark_json_names_what_the_harness_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = ale_lab::json::parse(&text).expect("valid JSON");
    let list = |key: &str| -> Vec<(String, String)> {
        let Some(ale_lab::json::Value::Arr(items)) = doc.get(key) else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    let e2e: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    assert_eq!(list("end_to_end"), owned(e2e));
    assert_eq!(list("per_layer"), owned(per_layer()));
    let names: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}
