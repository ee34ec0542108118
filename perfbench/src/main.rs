//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, and prints a human-readable
//! table on stderr and the result as one JSON line, the last line of
//! stdout. A traced run also writes its Chrome trace under
//! `perfbench/out/` (override with `--trace-dir`). Exits non-zero when a
//! check fails.

use perfbench::{run, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--trace-dir <dir>]",
        Workload::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    let mut trace_dir = String::from("perfbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--trace-dir" => trace_dir = value.clone(),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(name) = workload else {
        return usage("missing --workload");
    };
    let Some(spec) = Workload::named(&name) else {
        return usage(&format!("unknown workload {name}"));
    };
    let (Some(seed), Some(seconds)) = (seed, seconds) else {
        return usage("--seed and --seconds take a whole number and a positive number");
    };

    let result = run(&spec, seed, seconds, traced);
    if let Some(json) = &result.trace_json {
        let path = std::path::Path::new(&trace_dir).join(format!("{name}-seed{seed}.json"));
        let written =
            std::fs::create_dir_all(&trace_dir).and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    eprint!("{}", result.outcome.table());
    println!("{}", result.outcome.result_json(traced));
    if result.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
