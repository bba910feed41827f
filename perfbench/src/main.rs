//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints the result object as the last line of
//! standard output. Exits 1 when an output check failed, 2 on bad
//! arguments or a run that could not be measured.

use perfbench::{per_layer, Size, Workload, END_TO_END};
use std::path::Path;
use std::process::ExitCode;

/// Scratch space, relative to the directory the benchmark runs from.
const WORK_DIR: &str = ".perfbench-work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(WORK_DIR).join(args.workload.name());
    let result = perfbench::fresh_dir(&work).and_then(|()| {
        perfbench::run(
            args.workload,
            Size::Full,
            args.seed,
            args.seconds,
            args.traced,
            &work,
        )
    });
    // Best effort: a leftover scratch directory is harmless and ignored.
    let _ = std::fs::remove_dir_all(WORK_DIR);
    let names: Vec<(String, &str)> = if args.traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    match result.and_then(|out| out.to_json(&names).map(|line| (out.failed, line))) {
        Ok((failed, line)) => {
            println!("{line}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {failed} operations failed the output check");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
