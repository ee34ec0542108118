//! The repository's benchmark: end-to-end and per-layer metrics of the
//! disco routing system on two workloads.
//!
//! * `churn-n256` — the control plane's write path: boot, Poisson node
//!   churn, drain to quiescence, with flat-name walks at checkpoints. Each
//!   run also repeats the lifecycle on the sharded engine with 2 shards,
//!   whose deterministic outputs must equal the sequential ones.
//! * `serve-n1024` — the data plane's read path: batches of flat-name
//!   walks through published tables, with link flaps and republishes in
//!   between.
//!
//! Every layer is timed from outside, around calls into the public
//! functions of `disco-graph`, `disco-sim`, `disco-core` and
//! `disco-dynamics`; the traced pass adds the engine's `FullRecorder`.

pub mod churn;
pub mod report;
pub mod serve;
pub mod setup;
pub mod sim;
pub mod spans;
pub mod walk;

use churn::{ChurnSpec, Life, Mode, SETUP_BURST};
use disco_sim::NoopRecorder;
use disco_telemetry::{validate_json, FullRecorder};
use report::{peak_rss_mb, Metrics, Outcome};
use serve::{ServeSpec, Served};
use setup::{iq_mean, median, UPCALL_CLASSES};
use sim::UpcallTotals;
use spans::Tracer;
use walk::{quantile, WalkAcc};

/// Shards of the sharded lifecycle that every churn run compares with its
/// sequential lifecycles (`nproc` on the 2-core VM the benchmark targets).
pub const COMPARE_SHARDS: usize = 2;
/// Set-ups sampled per serve run (each boots n=1024 to quiescence).
const SERVE_SETUP_REPS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Churn lifecycles (`churn-n256`).
    Churn(ChurnSpec),
    /// The serving loop (`serve-n1024`).
    Serve(ServeSpec),
}

impl Workload {
    /// Workload names, as `BENCHMARK.json` lists them.
    pub const NAMES: [&'static str; 2] = ["churn-n256", "serve-n1024"];

    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "churn-n256" => Some(Workload::Churn(ChurnSpec::n256())),
            "serve-n1024" => Some(Workload::Serve(ServeSpec::n1024())),
            _ => None,
        }
    }
}

/// A run's result plus its trace document (traced runs only).
pub struct Run {
    /// Verdict and metrics.
    pub outcome: Outcome,
    /// Chrome trace of the traced pass, already validated.
    pub trace_json: Option<String>,
}

/// Run `workload` for about `seconds` of measured work at `seed`; when
/// `traced`, add the traced pass and the per-layer metrics.
pub fn run(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> Run {
    match workload {
        Workload::Churn(spec) => run_churn(spec, seed, seconds, traced),
        Workload::Serve(spec) => run_serve(spec, seed, seconds, traced),
    }
}

/// Collects failed checks.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

fn run_churn(spec: &ChurnSpec, seed: u64, seconds: f64, traced: bool) -> Run {
    let mut checks = Checks::default();
    let mut off = Tracer::new(false);
    // Set-ups are sampled at the start and after every checkpoint of the
    // measured lifecycles, so that they spread over the run.
    let mut setups = Vec::new();
    churn::sample_setups(spec, seed, SETUP_BURST, &mut setups);
    // Every lifecycle at the seed must repeat the first one's deterministic
    // outputs, so a run always makes a second lifecycle to compare, even
    // when the first outlasts `seconds`.
    let mut lives: Vec<Life<NoopRecorder>> = Vec::new();
    let mut measured = 0.0;
    while lives.len() < 2 || measured < seconds {
        let mode = Mode::SampleSetups(&mut setups);
        let (_, life) = churn::run_once::<NoopRecorder>(spec, seed, &mut off, mode);
        let life = life.expect("lifecycle ran");
        measured += life.wall_s;
        check_life(&mut checks, "lifecycle", &life, lives.first());
        lives.push(life);
        if !checks.0.is_empty() {
            break;
        }
    }
    let rss = peak_rss_mb();

    // The same lifecycle on the sharded engine must give the same outputs.
    // Its host time is a per-layer metric only: on two shared vCPUs its
    // barriers make it several times noisier than the sequential engine.
    let sharded_spec = ChurnSpec {
        shards: COMPARE_SHARDS,
        ..spec.clone()
    };
    let (_, sharded) =
        churn::run_once::<NoopRecorder>(&sharded_spec, seed, &mut off, Mode::Lifecycle);
    let sharded = sharded.expect("lifecycle ran");
    check_life(&mut checks, "sharded lifecycle", &sharded, lives.first());

    let first = &lives[0];
    let n = spec.n as f64;
    let live = first.gauges.live.max(1) as f64;
    let all_walks = lives.iter().fold(WalkAcc::default(), |mut a, l| {
        a.absorb(&l.walks);
        a
    });
    let mut e2e = Metrics::default();
    e2e.put("setup_s", iq_mean(&totals(&setups)), "s");
    e2e.put(
        "anns_per_s",
        median(&lives.iter().map(Life::anns_per_s).collect::<Vec<_>>()),
        "1/s",
    );
    e2e.put("pkts_per_s", median(&all_walks.pass_rates), "1/s");
    put_latency(&mut e2e, &all_walks);
    e2e.put("peak_rss_mb", rss, "MB");
    e2e.put("quiesce_sim_t", first.det.quiesce_sim_t, "sim_units");
    put_state(
        &mut e2e,
        first.det.delivered,
        first.det.bytes,
        n,
        first.det.rib_candidates,
        first.det.table_entries,
        live,
    );
    e2e.put("hop_stretch", first.walks.hop_stretch(), "ratio");
    e2e.put("delivered_frac", first.walks.delivered_frac(), "ratio");

    let mut outcome = Outcome {
        correct: checks.0.is_empty(),
        attempted: all_walks.walks + sharded.walks.walks,
        failed: lives
            .iter()
            .chain([&sharded])
            .map(|l| l.final_walks.lost())
            .sum(),
        end_to_end: e2e,
        per_layer: Metrics::default(),
        failures: checks.0,
    };
    if !traced || !outcome.correct {
        return Run {
            outcome,
            trace_json: None,
        };
    }

    let mut tracer = Tracer::new(true);
    let (_, t) = churn::run_once::<FullRecorder>(spec, seed, &mut tracer, Mode::Lifecycle);
    let t = t.expect("lifecycle ran");
    let mut checks = Checks::default();
    check_life(&mut checks, "traced lifecycle", &t, Some(first));

    let med =
        |f: &dyn Fn(&Life<NoopRecorder>) -> f64| median(&lives.iter().map(f).collect::<Vec<_>>());
    let mut pl = Metrics::default();
    pl.put(
        "graph.generate_s",
        median(&setups.iter().map(|s| s.generate_s).collect::<Vec<_>>()),
        "s",
    );
    pl.put(
        "graph.arena.peak_cells",
        first.gauges.arena_peak_cells as f64,
        "cells",
    );
    pl.put(
        "graph.arena.intern_bytes",
        first.gauges.arena_intern_bytes as f64,
        "B",
    );
    pl.put("sim.engine.boot_s", med(&|l| l.boot_s), "s");
    pl.put("sim.engine.churn_s", med(&|l| l.churn_s), "s");
    pl.put("sim.engine.drain_s", med(&|l| l.drain_s), "s");
    put_engine(&mut pl, first.counters, engine_self_s(&tracer));
    put_sharded(
        &mut pl,
        [
            sharded.counters.events as f64,
            sharded.boot_s + sharded.churn_s + sharded.drain_s,
            sharded.compile_s + sharded.addresses_s,
            sharded.finish_s,
            sharded.finished.arena_reclaimed_cells as f64,
            sharded.anns_per_s(),
        ],
    );
    pl.put(
        "core.protocol.new_s",
        median(&setups.iter().map(|s| s.construct_s).collect::<Vec<_>>()),
        "s",
    );
    put_upcalls(&mut pl, &t.finished.recorder);
    put_core_state(&mut pl, &first.gauges);
    pl.put("core.forward.compile_s", med(&|l| l.compile_s), "s");
    pl.put("core.forward.tables", first.compiled.tables as f64, "count");
    pl.put(
        "core.forward.compile_ns_per_entry",
        med(&|l| l.compile_s * 1e9 / l.compiled.entries.max(1) as f64),
        "ns",
    );
    pl.put("core.forward.probe_ns", t.probe_ns, "ns");
    pl.put(
        "core.forward.bytes_per_entry",
        first.table_bytes as f64 / first.det.table_entries.max(1) as f64,
        "B",
    );
    pl.put(
        "dynamics.schedule_s",
        median(&setups.iter().map(|s| s.schedule_s).collect::<Vec<_>>()),
        "s",
    );
    put_walks(&mut pl, &all_walks, &first.walks);
    pl.put("dynamics.addresses_s", med(&|l| l.addresses_s), "s");
    pl.put(
        "dynamics.bfs_s",
        med(&|l| l.walks.bfs_ns as f64 * 1e-9),
        "s",
    );
    pl.put(
        "telemetry.trace_overhead",
        t.wall_s / med(&|l| l.wall_s),
        "ratio",
    );
    finish_traced(&mut outcome, pl, checks, &tracer)
}

/// Check one lifecycle, called `what` in failure messages, and compare it
/// with the run's first.
fn check_life<R, Q>(checks: &mut Checks, what: &str, life: &Life<R>, first: Option<&Life<Q>>) {
    checks.require(life.quiesced, || format!("the {what} did not quiesce"));
    checks.require(life.final_walks.lost() == 0, || {
        format!(
            "the {what}'s post-drain batch lost {} routable packets ({} stale, {} miss)",
            life.final_walks.lost(),
            life.final_walks.stale,
            life.final_walks.miss
        )
    });
    if let Some(first) = first {
        checks.require(life.det == first.det, || {
            format!(
                "the {what} differs from the first lifecycle at the same seed: {:?} vs {:?}",
                life.det, first.det
            )
        });
    }
}

fn run_serve(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> Run {
    let mut checks = Checks::default();
    let mut off = Tracer::new(false);
    let batches = spec.batches(seconds);
    let mut setups = Vec::new();
    for _ in 1..SERVE_SETUP_REPS {
        setups.push(serve::run_once::<NoopRecorder>(spec, seed, 0, &mut off).0);
    }
    let (setup, served) = serve::run_once::<NoopRecorder>(spec, seed, batches, &mut off);
    let s = served.expect("serving ran");
    setups.push(setup);
    let rss = peak_rss_mb();
    check_served(&mut checks, &s);
    checks.require(
        setups
            .iter()
            .all(|x| x.boot_delivered == setup.boot_delivered),
        || "repeated boots at the same seed delivered different message counts".to_string(),
    );

    let n = spec.n as f64;
    let live = s.gauges.live.max(1) as f64;
    let mut e2e = Metrics::default();
    e2e.put(
        "setup_s",
        median(&setups.iter().map(|x| x.total()).collect::<Vec<_>>()),
        "s",
    );
    e2e.put("anns_per_s", s.anns_per_s(), "1/s");
    e2e.put("pkts_per_s", s.pkts_per_s(), "1/s");
    put_latency(&mut e2e, &s.walks);
    e2e.put("peak_rss_mb", rss, "MB");
    e2e.put("quiesce_sim_t", s.det.quiesce_sim_t, "sim_units");
    put_state(
        &mut e2e,
        s.det.delivered,
        s.det.bytes,
        n,
        s.det.rib_candidates,
        s.det.table_entries,
        live,
    );
    e2e.put("hop_stretch", s.walks.hop_stretch(), "ratio");
    e2e.put("delivered_frac", s.walks.delivered_frac(), "ratio");

    let mut outcome = Outcome {
        correct: checks.0.is_empty(),
        attempted: s.walks.walks,
        failed: s.walks.lost(),
        end_to_end: e2e,
        per_layer: Metrics::default(),
        failures: checks.0,
    };
    if !traced || !outcome.correct {
        return Run {
            outcome,
            trace_json: None,
        };
    }

    let mut tracer = Tracer::new(true);
    let (_, t) = serve::run_once::<FullRecorder>(spec, seed, batches, &mut tracer);
    let t = t.expect("serving ran");
    let mut checks = Checks::default();
    check_served(&mut checks, &t);
    checks.require(t.det == s.det, || {
        format!("the traced run differs: {:?} vs {:?}", t.det, s.det)
    });

    let med =
        |f: &dyn Fn(&serve::ServeSetup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let mut pl = Metrics::default();
    pl.put("graph.generate_s", med(&|x| x.times.generate_s), "s");
    pl.put(
        "graph.arena.peak_cells",
        s.gauges.arena_peak_cells as f64,
        "cells",
    );
    pl.put(
        "graph.arena.intern_bytes",
        s.gauges.arena_intern_bytes as f64,
        "B",
    );
    pl.put("sim.engine.boot_s", med(&|x| x.boot_s), "s");
    pl.put("sim.engine.churn_s", s.flap_s, "s");
    pl.put("sim.engine.drain_s", 0.0, "s");
    put_engine(&mut pl, s.counters, engine_self_s(&tracer));
    put_sharded(&mut pl, [0.0; 6]);
    pl.put("core.protocol.new_s", med(&|x| x.times.construct_s), "s");
    put_upcalls(&mut pl, &t.finished.recorder);
    put_core_state(&mut pl, &s.gauges);
    pl.put("core.forward.compile_s", s.compile_s + setup.compile_s, "s");
    pl.put("core.forward.tables", s.compiled.tables as f64, "count");
    pl.put(
        "core.forward.compile_ns_per_entry",
        (s.compile_s + setup.compile_s) * 1e9 / s.compiled.entries.max(1) as f64,
        "ns",
    );
    pl.put("core.forward.probe_ns", t.probe_ns, "ns");
    pl.put(
        "core.forward.bytes_per_entry",
        s.table_bytes as f64 / s.det.table_entries.max(1) as f64,
        "B",
    );
    pl.put("dynamics.schedule_s", med(&|x| x.times.schedule_s), "s");
    put_walks(&mut pl, &s.walks, &s.walks);
    pl.put("dynamics.addresses_s", s.addresses_s, "s");
    pl.put("dynamics.bfs_s", s.walks.bfs_ns as f64 * 1e-9, "s");
    pl.put("telemetry.trace_overhead", t.wall_s / s.wall_s, "ratio");
    finish_traced(&mut outcome, pl, checks, &tracer)
}

fn check_served<R>(checks: &mut Checks, s: &Served<R>) {
    checks.require(s.quiesced, || {
        "the boot or a flap did not quiesce".to_string()
    });
    checks.require(s.walks.lost() == 0, || {
        format!(
            "walks after quiescence lost {} routable packets ({} stale, {} miss)",
            s.walks.lost(),
            s.walks.stale,
            s.walks.miss
        )
    });
}

fn totals(setups: &[setup::SetupTimes]) -> Vec<f64> {
    setups.iter().map(|s| s.total()).collect()
}

fn put_latency(m: &mut Metrics, walks: &WalkAcc) {
    m.put("pkt_ns_p50", quantile(&walks.latency_ns, 0.50), "ns");
    m.put("pkt_ns_p99", quantile(&walks.latency_ns, 0.99), "ns");
}

fn put_state(
    m: &mut Metrics,
    delivered: u64,
    bytes: u64,
    n: f64,
    rib_candidates: u64,
    table_entries: u64,
    live: f64,
) {
    m.put("ctrl_msgs_per_node", delivered as f64 / n, "msgs");
    m.put("ctrl_bytes_per_node", bytes as f64 / n, "B");
    m.put(
        "rib_cands_per_node",
        rib_candidates as f64 / live,
        "entries",
    );
    m.put(
        "table_entries_per_node",
        table_entries as f64 / live,
        "entries",
    );
}

fn put_engine(m: &mut Metrics, c: sim::Counters, self_s: f64) {
    m.put("sim.engine.events", c.events as f64, "count");
    m.put(
        "sim.engine.anns_per_event",
        c.delivered as f64 / c.events.max(1) as f64,
        "ratio",
    );
    m.put("sim.engine.self_s", self_s, "s");
    m.put("sim.engine.drops", c.drops as f64, "count");
    m.put(
        "sim.engine.stale_timer_pops",
        c.stale_timer_pops as f64,
        "count",
    );
    m.put("sim.queue.live", c.queue_live as f64, "count");
    m.put("sim.queue.dead", c.queue_dead as f64, "count");
}

/// `sim.sharded.{events, run_s, visit_s, finish_s, arena_reclaimed_cells,
/// anns_per_s}` of the sharded lifecycle (all 0 where none runs).
fn put_sharded(m: &mut Metrics, values: [f64; 6]) {
    let names = [
        ("events", "count"),
        ("run_s", "s"),
        ("visit_s", "s"),
        ("finish_s", "s"),
        ("arena_reclaimed_cells", "cells"),
        ("anns_per_s", "1/s"),
    ];
    for ((name, unit), v) in names.into_iter().zip(values) {
        m.put(format!("sim.sharded.{name}"), v, unit);
    }
}

/// Engine self time summed over the traced engine spans.
fn engine_self_s(tracer: &Tracer) -> f64 {
    tracer
        .spans()
        .iter()
        .filter_map(|s| s.engine_self_ns())
        .sum::<f64>()
        * 1e-9
}

fn put_upcalls(m: &mut Metrics, rec: &FullRecorder) {
    let totals = rec
        .upcall_totals()
        .expect("the full recorder times upcalls");
    for c in UPCALL_CLASSES {
        let (count, ns) = totals[c.index()];
        m.put(
            format!("core.upcall.{}.count", c.name()),
            count as f64,
            "count",
        );
        m.put(
            format!("core.upcall.{}.total_s", c.name()),
            ns as f64 * 1e-9,
            "s",
        );
    }
}

fn put_core_state(m: &mut Metrics, g: &sim::Gauges) {
    let live = g.live.max(1) as f64;
    m.put("core.rib.bytes_per_node", g.rib_bytes as f64 / live, "B");
    m.put(
        "core.loc_rib_bytes_per_node",
        g.loc_rib_bytes as f64 / live,
        "B",
    );
    m.put(
        "core.dissem_bytes_per_node",
        g.dissem_bytes as f64 / live,
        "B",
    );
    m.put(
        "core.estimate_n.rel_err",
        g.estimate_abs_err as f64 / live / live,
        "ratio",
    );
}

fn put_walks(m: &mut Metrics, all: &WalkAcc, one: &WalkAcc) {
    let walks = all.walks.max(1) as f64;
    m.put(
        "dynamics.walk.ns_per_pkt",
        all.walk_ns as f64 / all.timed.max(1) as f64,
        "ns",
    );
    m.put(
        "dynamics.walk.probes_per_pkt",
        all.probes as f64 / walks,
        "count",
    );
    m.put(
        "dynamics.walk.hops_per_pkt",
        all.hops as f64 / all.delivered.max(1) as f64,
        "count",
    );
    m.put("dynamics.walk.stale", one.stale as f64, "count");
    m.put("dynamics.walk.miss", one.miss as f64, "count");
    m.put("dynamics.walk.unreachable", one.unreachable as f64, "count");
    m.put(
        "dynamics.walk.latency_samples",
        all.latency_ns.len() as f64,
        "count",
    );
    m.put("loss_frac", one.loss_frac(), "ratio");
}

fn finish_traced(
    outcome: &mut Outcome,
    per_layer: Metrics,
    checks: Checks,
    tracer: &Tracer,
) -> Run {
    let json = tracer.chrome_json(&format!("{{\"per_layer\": {}}}", per_layer.to_json()));
    let mut checks = checks;
    for s in tracer.spans() {
        checks.require(s.engine_self_ns().is_none_or(|ns| ns >= 0.0), || {
            format!("{} span: upcall time exceeds the span", s.name)
        });
    }
    if let Err(e) = validate_json(&json) {
        checks
            .0
            .push(format!("the exported trace is not valid JSON: {e}"));
    }
    outcome.per_layer = per_layer;
    outcome.correct &= checks.0.is_empty();
    outcome.failures.extend(checks.0);
    Run {
        outcome: outcome.clone(),
        trace_json: Some(json),
    }
}
