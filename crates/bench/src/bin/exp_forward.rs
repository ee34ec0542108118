//! Data-plane traffic benchmark: batched flat-name lookups through
//! compiled forwarding tables while the protocol boots, churns and drains
//! underneath. Each node's RIB selection is compiled into a flat
//! [`disco_core::forward::ForwardingTable`] behind an epoch-stamped
//! double-buffer; checkpoints republish (debounced on the control
//! revision), sample Zipf+uniform flows over the live nodes and walk every
//! packet hop-by-hop through the *published* epochs. Reported per phase:
//! lookups/sec (headline), mean hop stretch vs BFS shortest paths, p50/p99
//! per-packet latency of one walk in 16, and packets lost to stale epochs
//! — which must be **zero** after the drain.
//!
//! ```text
//! --nodes N             network size (default 4096)
//! --seed S              experiment seed (default 1)
//! --flows F             flows per checkpoint (default 4096)
//! --debounce T          republish debounce in sim-time units (default 5)
//! --shards K            run on the sharded engine with K worker shards
//!                       (default 0 = sequential; tables compile on their
//!                       owner shards and ship to the coordinator)
//! --dynamic-n           run the live synopsis-diffusion n-estimation
//!                       gossip too (exp_churn's subject; dominates
//!                       control cost ~70x at n=512 and does not change
//!                       the data plane being measured — off by default)
//! --json PATH           write the JSON report to PATH
//! --trace PATH          export the run as a Chrome trace_event timeline
//!                       with the delivered-lookups data-plane track
//!                       (sequential legs only)
//! --smoke [BASELINE]    n=256 regression gate: lookups/sec must clear
//!                       both 1M/sec and the `min_lookups_per_sec` floor
//!                       recorded in BASELINE (default
//!                       BENCH_exp_forward.json), the drain batch must
//!                       lose zero packets to stale epochs, and the trace
//!                       export must validate as JSON. With --shards K it
//!                       instead re-runs sequentially and requires every
//!                       deterministic column to match bit-for-bit.
//! ```
//!
//! Run with: `cargo run --release -p disco-bench --bin exp_forward`

use disco_bench::forward::{run_one, ForwardConfig, ForwardResult};
use std::fmt::Write as _;

struct Args {
    nodes: usize,
    seed: u64,
    flows: usize,
    debounce: f64,
    shards: usize,
    json: Option<String>,
    trace: Option<String>,
    smoke: Option<String>,
    dynamic_n: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        nodes: 4096,
        seed: 1,
        flows: 4096,
        debounce: 5.0,
        shards: 0,
        json: None,
        trace: None,
        smoke: None,
        dynamic_n: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--nodes" | "-n" => out.nodes = value("--nodes").parse().expect("--nodes"),
            "--seed" | "-s" => out.seed = value("--seed").parse().expect("--seed"),
            "--flows" => out.flows = value("--flows").parse().expect("--flows"),
            "--debounce" => out.debounce = value("--debounce").parse().expect("--debounce"),
            "--shards" => out.shards = value("--shards").parse().expect("--shards"),
            "--dynamic-n" => out.dynamic_n = true,
            "--json" => out.json = Some(value("--json")),
            "--trace" => out.trace = Some(value("--trace")),
            "--smoke" => {
                out.nodes = 256;
                out.flows = out.flows.min(2048);
                out.smoke = Some("BENCH_exp_forward.json".to_string());
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --nodes N --seed S --flows F --debounce T --shards K \
                     --dynamic-n --json PATH --trace PATH --smoke"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    out
}

fn render_json(args: &Args, result: &ForwardResult) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"experiment\": \"exp_forward\",");
    let _ = writeln!(j, "  \"seed\": {},", args.seed);
    let _ = writeln!(j, "  \"flows\": {},", args.flows);
    let _ = writeln!(j, "  \"debounce\": {},", args.debounce);
    let _ = writeln!(j, "  \"dynamic_n\": {},", args.dynamic_n);
    // The smoke gate: half the slowest phase's measured lookup rate,
    // rounded down — CI fails an exp_forward --smoke run that regresses
    // lookups/sec by >50% (the data plane is wall-clock noisier than the
    // control plane: each checkpoint's timed batch is only a few ms).
    let _ = writeln!(
        j,
        "  \"min_lookups_per_sec\": {},",
        (result.min_phase_lookups_per_sec() * 0.5) as u64
    );
    let _ = writeln!(j, "  \"results\": [");
    let _ = writeln!(j, "    {}", result.to_json());
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    j
}

fn print_table(r: &ForwardResult) {
    println!(
        "{:>6} {:>6} {:>9} {:>9} {:>6} {:>6} {:>7} {:>13} {:>8} {:>8} {:>7} {:>7} {:>6}",
        "phase",
        "walks",
        "delivered",
        "stale",
        "miss",
        "unrch",
        "hops",
        "lookups/sec",
        "stretch",
        "p50_ns",
        "p99_ns",
        "repubs",
        "ckpts"
    );
    for p in [&r.boot, &r.churn, &r.drain] {
        println!(
            "{:>6} {:>6} {:>9} {:>9} {:>6} {:>6} {:>7.2} {:>13.0} {:>8.3} {:>8} {:>7} {:>7} {:>6}",
            p.phase,
            p.walks,
            p.delivered,
            p.stale_loss,
            p.miss,
            p.unreachable,
            p.mean_hops(),
            p.lookups_per_sec,
            p.mean_stretch(),
            p.p50_ns,
            p.p99_ns,
            p.republishes,
            p.checkpoints
        );
    }
    eprintln!(
        "n={} shards={} landmarks={} table_entries={} table_bytes={} \
         (hash-map FIB would pay {}, {:.1}x) sim_end={:.1}",
        r.n,
        r.shards,
        r.landmarks,
        r.table_entries,
        r.table_bytes,
        r.hash_fib_bytes,
        r.hash_fib_bytes as f64 / (r.table_bytes as f64).max(1.0),
        r.sim_end
    );
}

/// Sequential smoke gates: the recorded + absolute lookups/sec floors,
/// zero stale loss after drain, and a validating trace export.
fn smoke_sequential(args: &Args, r: &ForwardResult, trace_path: &str) {
    let mut failures = Vec::new();
    let baseline = args.smoke.as_deref().unwrap_or("BENCH_exp_forward.json");
    let recorded = std::fs::read_to_string(baseline).ok().and_then(|s| {
        s.lines()
            .find(|l| l.contains("\"min_lookups_per_sec\""))
            .and_then(|l| {
                l.split(':')
                    .nth(1)?
                    .trim()
                    .trim_end_matches(',')
                    .parse::<f64>()
                    .ok()
            })
    });
    let floor = match recorded {
        Some(f) => f.max(1_000_000.0),
        None => {
            eprintln!("smoke: no min_lookups_per_sec in {baseline}; gating on 1M/sec only");
            1_000_000.0
        }
    };
    let got = r.min_phase_lookups_per_sec();
    if got < floor {
        failures.push(format!(
            "{got:.0} lookups/sec (slowest phase) is below the floor {floor:.0}"
        ));
    }
    if r.drain.stale_loss != 0 || r.drain.miss != 0 {
        failures.push(format!(
            "drain batch lost packets on a quiesced network: stale_loss={} miss={}",
            r.drain.stale_loss, r.drain.miss
        ));
    }
    match std::fs::read_to_string(trace_path) {
        Err(e) => failures.push(format!("trace export missing at {trace_path}: {e}")),
        Ok(s) => {
            if let Err(e) = disco_telemetry::validate_json(&s) {
                failures.push(format!("trace export is not valid JSON: {e}"));
            }
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("smoke FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "smoke OK: {got:.0} lookups/sec >= floor {floor:.0}, drain lost 0/{} \
         walks, trace validates",
        r.drain.walks
    );
}

/// Sharded smoke gate (`--shards K --smoke`): re-run the same leg on the
/// sequential engine and require every deterministic column — walks,
/// deliveries, stale losses, misses, lookup counts, hop sums, republish
/// decisions, table totals and simulation end — to match bit-for-bit.
fn smoke_sharded(args: &Args, multi: &ForwardResult) {
    let seq = run_one(&ForwardConfig {
        n: multi.n,
        seed: args.seed,
        flows: args.flows,
        debounce: args.debounce,
        shards: 0,
        trace: None,
        dynamic_n: args.dynamic_n,
    });
    let mut failures = Vec::new();
    for (a, b) in [
        (&seq.boot, &multi.boot),
        (&seq.churn, &multi.churn),
        (&seq.drain, &multi.drain),
    ] {
        if a.deterministic_key() != b.deterministic_key() {
            failures.push(format!(
                "phase {} diverged at shards={}: sequential {:?} vs sharded {:?}",
                a.phase,
                args.shards,
                a.deterministic_key(),
                b.deterministic_key()
            ));
        }
    }
    if seq.table_entries != multi.table_entries
        || seq.table_bytes != multi.table_bytes
        || seq.sim_end != multi.sim_end
    {
        failures.push(format!(
            "end-state diverged at shards={}: entries {} vs {}, bytes {} vs {}, \
             sim_end {} vs {}",
            args.shards,
            seq.table_entries,
            multi.table_entries,
            seq.table_bytes,
            multi.table_bytes,
            seq.sim_end,
            multi.sim_end
        ));
    }
    if multi.drain.stale_loss != 0 || multi.drain.miss != 0 {
        failures.push(format!(
            "drain batch lost packets on a quiesced network: stale_loss={} miss={}",
            multi.drain.stale_loss, multi.drain.miss
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("smoke FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "smoke OK: shards={} matches the sequential engine bit-for-bit on \
         every deterministic column; drain lost 0/{} walks",
        args.shards, multi.drain.walks
    );
}

fn main() {
    let mut args = parse_args();
    // The sequential smoke leg always exports a trace so the gate can
    // validate it; an explicit --trace keeps the user's path.
    let smoke_trace = if args.smoke.is_some() && args.shards == 0 {
        let path = args.trace.clone().unwrap_or_else(|| {
            std::env::temp_dir()
                .join("exp_forward_trace.json")
                .to_string_lossy()
                .into_owned()
        });
        args.trace = Some(path.clone());
        Some(path)
    } else {
        None
    };
    let cfg = ForwardConfig {
        n: args.nodes,
        seed: args.seed,
        flows: args.flows,
        debounce: args.debounce,
        shards: args.shards,
        trace: args.trace.clone().filter(|_| args.shards == 0),
        dynamic_n: args.dynamic_n,
    };
    let r = run_one(&cfg);
    print_table(&r);

    if let Some(path) = &args.json {
        std::fs::write(path, render_json(&args, &r)).expect("write json");
        eprintln!("wrote {path}");
    }

    if args.smoke.is_some() {
        if args.shards > 0 {
            smoke_sharded(&args, &r);
        } else {
            smoke_sequential(&args, &r, smoke_trace.as_deref().unwrap());
        }
    }
}
