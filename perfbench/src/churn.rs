//! The churn workload: boot, `exp_churn`'s Poisson node churn, drain to
//! quiescence, with flat-name walks through the published tables at fixed
//! checkpoints and once more after the drain.

use crate::setup::{
    self, address_book, engine_span, publishers, Body, Inputs, Rec, SetupTimes, INSTANCE_SEED,
};
use crate::sim::{Compiled, Counters, Finished, Gauges, Sim};
use crate::spans::Tracer;
use crate::walk::{probe_ns, walk_batch, Batch, FlowGen, WalkAcc};
use disco_dynamics::models::PoissonChurn;
use disco_dynamics::Schedule;
use disco_graph::PathArena;
use disco_sim::NoopRecorder;
use std::time::Instant;

/// Mean downtime before a churned node rejoins (`exp_churn`'s).
const MEAN_DOWNTIME: f64 = 150.0;
/// Walk checkpoints spread over the churn window.
const CHECKPOINTS: usize = 8;
/// Set-ups sampled back to back at each sampling point.
pub const SETUP_BURST: usize = 3;
/// Walk batch settings. A batch is only milliseconds of walking, so each
/// is timed in several passes and `pkts_per_s` is the median pass rate.
const BATCH: Batch = Batch {
    passes: 8,
    sample_every: 4,
    stretch_sample: 512,
};

/// Parameters of a churn workload.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Network size.
    pub n: usize,
    /// Worker shards (0 = the sequential engine).
    pub shards: usize,
    /// Per-node leave rate during the churn window.
    pub leave_rate: f64,
    /// Length of the churn window (simulation time).
    pub horizon: f64,
    /// Flows walked per checkpoint.
    pub flows: usize,
    /// Flows walked after the drain (all must arrive).
    pub final_flows: usize,
}

impl ChurnSpec {
    /// `churn-n256`.
    pub fn n256() -> Self {
        ChurnSpec {
            n: 256,
            shards: 0,
            leave_rate: 2e-4,
            horizon: 400.0,
            flows: 8192,
            final_flows: 16384,
        }
    }

    /// The same workload at a tiny size, for the benchmark's own tests.
    pub fn tiny() -> Self {
        ChurnSpec {
            n: 48,
            shards: 0,
            leave_rate: 1e-3,
            horizon: 300.0,
            flows: 128,
            final_flows: 256,
        }
    }

    fn model(&self) -> PoissonChurn {
        PoissonChurn {
            leave_rate_per_node: self.leave_rate,
            mean_downtime: MEAN_DOWNTIME,
            horizon: self.horizon,
            ..PoissonChurn::default()
        }
    }

    /// Generate the workload's inputs (the set-up before engine
    /// construction): the instance and its churn schedule. The run's seed
    /// drives the traffic.
    pub fn inputs(&self, tracer: &mut Tracer) -> Inputs<Schedule> {
        let model = self.model();
        setup::inputs(self.n, true, tracer, |g| model.compile(g, INSTANCE_SEED))
    }
}

/// The seed-determined outputs of one lifecycle: equal across repeated
/// lifecycles and across shard counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Det {
    /// Simulation time at final quiescence.
    pub quiesce_sim_t: f64,
    /// Messages delivered.
    pub delivered: u64,
    /// Control bytes sent.
    pub bytes: u64,
    /// Live nodes at the end.
    pub live: usize,
    /// Path-vector candidates over the live nodes at the end.
    pub rib_candidates: u64,
    /// Compiled table entries over the live nodes at the end.
    pub table_entries: u64,
    /// Topology-independent walk counts, every batch.
    pub walks: [u64; 9],
    /// Walk counts of the post-drain batch.
    pub final_walks: [u64; 9],
    /// Tables compiled.
    pub tables_compiled: u64,
}

/// Everything one lifecycle measured.
pub struct Life<R> {
    /// Seed-determined outputs.
    pub det: Det,
    /// Host seconds in `run` (boot).
    pub boot_s: f64,
    /// Host seconds in the churn window's `run_to` calls.
    pub churn_s: f64,
    /// Host seconds in the drain's `run_until`.
    pub drain_s: f64,
    /// Host seconds of the whole lifecycle (set-up excluded).
    pub wall_s: f64,
    /// Host seconds shutting the engine down.
    pub finish_s: f64,
    /// Host seconds republishing (compile + publish).
    pub compile_s: f64,
    /// Host seconds resolving addresses.
    pub addresses_s: f64,
    /// Walks of every batch.
    pub walks: WalkAcc,
    /// Walks of the post-drain batch.
    pub final_walks: WalkAcc,
    /// Tables and entries compiled.
    pub compiled: Compiled,
    /// Final engine counters.
    pub counters: Counters,
    /// Final protocol gauges.
    pub gauges: Gauges,
    /// Published bytes over the live nodes' final tables.
    pub table_bytes: u64,
    /// Pure-lookup cost over the post-drain mix (traced lifecycles only).
    pub probe_ns: f64,
    /// Whether boot converged and the drain quiesced.
    pub quiesced: bool,
    /// The run's recorder and shutdown gauges.
    pub finished: Finished<R>,
}

impl<R> Life<R> {
    /// Delivered messages per host second in the engine, start to
    /// quiescence.
    pub fn anns_per_s(&self) -> f64 {
        self.det.delivered as f64 / (self.boot_s + self.churn_s + self.drain_s)
    }
}

/// What [`run_once`] does once the engine is built.
pub enum Mode<'a> {
    /// Nothing more: the call samples set-up only.
    SetupOnly,
    /// One lifecycle.
    Lifecycle,
    /// One lifecycle that also samples [`SETUP_BURST`] set-ups into the
    /// vector after each checkpoint's walks. Set-up takes under a
    /// millisecond and its speed changes with the host within a second, so
    /// the samples are spread over the run.
    SampleSetups(&'a mut Vec<SetupTimes>),
}

/// Sample `count` set-ups of `spec` back to back into `out`.
pub fn sample_setups(spec: &ChurnSpec, seed: u64, count: usize, out: &mut Vec<SetupTimes>) {
    let mut off = Tracer::new(false);
    for _ in 0..count {
        out.push(run_once::<NoopRecorder>(spec, seed, &mut off, Mode::SetupOnly).0);
    }
}

/// The lifecycle body: boot, churn with checkpoints, drain, final walks.
struct Lifecycle<'a> {
    spec: &'a ChurnSpec,
    seed: u64,
    schedule: &'a Schedule,
    mode: Mode<'a>,
}

impl<R: Rec> Body<R> for Lifecycle<'_> {
    type Out = Option<Life<R>>;

    fn run<S: Sim<Rec = R>>(self, mut sim: S, tracer: &mut Tracer) -> Option<Life<R>> {
        let mut setups = match self.mode {
            Mode::SetupOnly => {
                sim.finish();
                return None;
            }
            Mode::Lifecycle => None,
            Mode::SampleSetups(v) => Some(v),
        };
        let spec = self.spec;
        let t_life = Instant::now();
        let life_span = tracer.begin("lifecycle", 0);
        PathArena::reset_peak();
        let mut pubs = publishers(sim.graph().node_count());
        let (booted, boot_s) = engine_span(&mut sim, tracer, "sim.boot", 0, |s| s.boot());
        sim.apply(self.schedule);
        let start = sim.now();

        let mut walks = WalkAcc::default();
        let mut compiled = Compiled::default();
        let (mut compile_s, mut addresses_s, mut churn_s) = (0.0, 0.0, 0.0);
        let mut traffic = |sim: &mut S, tracer: &mut Tracer, group: u64, flows: usize| {
            let now = sim.now();
            let s = tracer.begin("core.forward.republish", group);
            let c = sim.republish(&mut pubs, now);
            compile_s += tracer.end_with(s, || {
                vec![
                    ("tables".to_string(), c.tables as f64),
                    ("entries".to_string(), c.entries as f64),
                ]
            });
            compiled.tables += c.tables;
            compiled.entries += c.entries;
            let s = tracer.begin("dynamics.addresses", group);
            let book = address_book(sim);
            addresses_s += tracer.end(s);
            let flows = FlowGen::new(sim.live_nodes()).flows(flows, self.seed, group);
            let mut acc = WalkAcc::default();
            let s = tracer.begin("dynamics.walk", group);
            walk_batch(&*sim, &pubs, &book, &flows, BATCH, &mut acc);
            tracer.end_with(s, || {
                vec![
                    ("walks".to_string(), acc.walks as f64),
                    ("walk_ns".to_string(), acc.walk_ns as f64),
                    ("bfs_ns".to_string(), acc.bfs_ns as f64),
                ]
            });
            (acc, book, flows)
        };

        for i in 1..=CHECKPOINTS {
            let t = start + spec.horizon * i as f64 / CHECKPOINTS as f64;
            let ((), secs) = engine_span(&mut sim, tracer, "sim.run_to", i as u64, |s| s.run_to(t));
            churn_s += secs;
            let (acc, _, _) = traffic(&mut sim, tracer, i as u64, spec.flows);
            walks.absorb(&acc);
            if let Some(out) = setups.as_deref_mut() {
                sample_setups(spec, self.seed, SETUP_BURST, out);
            }
        }

        let group = CHECKPOINTS as u64 + 1;
        let (drained, drain_s) = engine_span(&mut sim, tracer, "sim.drain", group, |s| s.drain());
        let (final_walks, book, flows) = traffic(&mut sim, tracer, group, spec.final_flows);
        walks.absorb(&final_walks);
        let wall_s = t_life.elapsed().as_secs_f64();
        tracer.end(life_span);

        let probe_ns = if tracer.is_on() {
            probe_ns(&sim, &pubs, &book, &flows, 2_000_000)
        } else {
            0.0
        };
        let counters = sim.counters();
        let gauges = sim.gauges();
        let live = sim.live_nodes();
        let table_entries = live.iter().map(|v| pubs[v.0].table().len() as u64).sum();
        let table_bytes = live
            .iter()
            .map(|v| pubs[v.0].table().approx_bytes() as u64)
            .sum();
        let det = Det {
            quiesce_sim_t: sim.now(),
            delivered: counters.delivered,
            bytes: counters.bytes,
            live: gauges.live,
            rib_candidates: gauges.rib_candidates,
            table_entries,
            walks: walks.key(),
            final_walks: final_walks.key(),
            tables_compiled: compiled.tables,
        };
        let s = tracer.begin("sim.finish", group);
        let finished = sim.finish();
        let finish_s = tracer.end(s);
        Some(Life {
            det,
            boot_s,
            churn_s,
            drain_s,
            wall_s,
            finish_s,
            compile_s,
            addresses_s,
            walks,
            final_walks,
            compiled,
            counters,
            gauges,
            table_bytes,
            probe_ns,
            quiesced: booted && drained,
            finished,
        })
    }
}

/// Set up the workload once (inputs + engine construction) and, as `mode`
/// says, run one lifecycle on it. Returns the set-up timings and the
/// lifecycle.
pub fn run_once<R: Rec>(
    spec: &ChurnSpec,
    seed: u64,
    tracer: &mut Tracer,
    mode: Mode<'_>,
) -> (SetupTimes, Option<Life<R>>) {
    let mut inputs = spec.inputs(tracer);
    let schedule = std::mem::take(&mut inputs.plan);
    let life = setup::with_engine::<_, R, _>(
        &mut inputs,
        spec.shards,
        seed,
        tracer,
        Lifecycle {
            spec,
            seed,
            schedule: &schedule,
            mode,
        },
    );
    (inputs.times, life)
}
