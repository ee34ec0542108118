//! The serve workload: a static-n network booted to quiescence with every
//! table compiled during set-up, then a closed loop from one generator —
//! back-to-back walk batches, with a seeded link flap between batches that
//! runs the engine to quiescence and republishes the changed tables.

use crate::setup::{
    self, address_book, engine_span, median, publishers, Body, Inputs, Rec, SetupTimes,
};
use crate::sim::{Compiled, Counters, Finished, Gauges, Sim};
use crate::spans::Tracer;
use crate::walk::{probe_ns, walk_batch, Batch, FlowGen, WalkAcc};
use disco_graph::{Graph, NodeId, PathArena};
use disco_sim::rng::rng_for;
use disco_sim::TopologyEvent;
use rand::Rng;
use std::time::Instant;

/// RNG stream of the flap plan.
const STREAM_FLAPS: u64 = 0xf1a9;

/// Delay from a flap step to its topology event (simulation time).
const FLAP_DELAY: f64 = 1.0;

/// Batches per throughput chunk (an even number, so that every chunk takes
/// its links down and up again).
const CHUNK_BATCHES: usize = 40;

/// Parameters of the serve workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Network size.
    pub n: usize,
    /// Flows per batch.
    pub flows: usize,
    /// Batches (each followed by one flap step) per `--seconds` second.
    pub batches_per_second: f64,
    /// Walk batch settings.
    pub batch: Batch,
}

impl ServeSpec {
    /// `serve-n1024`.
    pub fn n1024() -> Self {
        ServeSpec {
            n: 1024,
            flows: 8192,
            batches_per_second: 40.0,
            batch: Batch {
                passes: 1,
                sample_every: 64,
                stretch_sample: 32,
            },
        }
    }

    /// The same workload at a tiny size, for the benchmark's own tests.
    pub fn tiny() -> Self {
        ServeSpec {
            n: 64,
            flows: 256,
            batches_per_second: 8.0,
            batch: Batch {
                passes: 1,
                sample_every: 4,
                stretch_sample: 16,
            },
        }
    }

    /// Batches a `seconds`-long run serves (at least 2: one flap down, one
    /// back up).
    pub fn batches(&self, seconds: f64) -> usize {
        ((seconds * self.batches_per_second).ceil() as usize).max(2)
    }

    /// Generate the workload's inputs: the instance, and the plan of
    /// `flaps` links to flap drawn from `seed` (links whose endpoints both
    /// keep degree ≥ 3).
    pub fn inputs(
        &self,
        seed: u64,
        flaps: usize,
        tracer: &mut Tracer,
    ) -> Inputs<Vec<(NodeId, NodeId)>> {
        setup::inputs(self.n, false, tracer, |g| flap_plan(g, seed, flaps))
    }
}

/// `count` seeded links to flap, each down in one step and up in the next.
fn flap_plan(g: &Graph, seed: u64, count: usize) -> Vec<(NodeId, NodeId)> {
    let edges: Vec<(NodeId, NodeId)> = g
        .edges()
        .map(|(_, e)| (e.u, e.v))
        .filter(|&(u, v)| g.degree(u) >= 3 && g.degree(v) >= 3)
        .collect();
    let mut rng = rng_for(seed, STREAM_FLAPS, 0);
    (0..count)
        .map(|_| edges[rng.gen_range(0..edges.len())])
        .collect()
}

/// The seed-determined outputs of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct Det {
    /// Simulation time at the end.
    pub quiesce_sim_t: f64,
    /// Messages delivered (boot + flaps).
    pub delivered: u64,
    /// Messages delivered by the boot.
    pub boot_delivered: u64,
    /// Control bytes sent.
    pub bytes: u64,
    /// Path-vector candidates over the live nodes at the end.
    pub rib_candidates: u64,
    /// Compiled table entries over the live nodes at the end.
    pub table_entries: u64,
    /// Walk counts.
    pub walks: [u64; 9],
    /// Tables compiled while serving.
    pub tables_compiled: u64,
}

/// Everything one serve run measured.
pub struct Served<R> {
    /// Seed-determined outputs.
    pub det: Det,
    /// Host seconds of the boot (set-up).
    pub boot_s: f64,
    /// Walks per host second of each chunk of [`CHUNK_BATCHES`] batches,
    /// counting the chunk's walk batches, flaps and republishes.
    pub chunk_rates: Vec<f64>,
    /// Host seconds in the flaps' engine runs.
    pub flap_s: f64,
    /// Host seconds republishing after flaps.
    pub compile_s: f64,
    /// Host seconds resolving addresses.
    pub addresses_s: f64,
    /// Host seconds of the whole serving loop, classification included.
    pub wall_s: f64,
    /// Walks.
    pub walks: WalkAcc,
    /// Tables and entries compiled, set-up included.
    pub compiled: Compiled,
    /// Final engine counters.
    pub counters: Counters,
    /// Final protocol gauges.
    pub gauges: Gauges,
    /// Published bytes over the final tables.
    pub table_bytes: u64,
    /// Pure-lookup cost over the last batch's mix (traced runs only).
    pub probe_ns: f64,
    /// Whether the boot and every flap reached quiescence.
    pub quiesced: bool,
    /// The run's recorder.
    pub finished: Finished<R>,
}

impl<R> Served<R> {
    /// Walks per host second of the serving phase: the median chunk rate,
    /// which a slow spell of the host in one chunk does not move.
    pub fn pkts_per_s(&self) -> f64 {
        median(&self.chunk_rates)
    }

    /// Delivered messages per host second in the engine, from start to
    /// the last flap's quiescence (the boot and every flap).
    pub fn anns_per_s(&self) -> f64 {
        self.det.delivered as f64 / (self.boot_s + self.flap_s)
    }
}

/// Set-up timings of one serve run; the boot and first compile belong to
/// set-up here.
#[derive(Debug, Clone, Copy)]
pub struct ServeSetup {
    /// Inputs and construction.
    pub times: SetupTimes,
    /// Boot to quiescence.
    pub boot_s: f64,
    /// First compile of every table.
    pub compile_s: f64,
    /// Messages the boot delivered (equal across repeated set-ups).
    pub boot_delivered: u64,
}

impl ServeSetup {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.times.total() + self.boot_s + self.compile_s
    }
}

struct Serve<'a> {
    spec: &'a ServeSpec,
    seed: u64,
    flaps: &'a [(NodeId, NodeId)],
    /// Batches to serve (0 = set-up only).
    batches: usize,
}

impl<R: Rec> Body<R> for Serve<'_> {
    type Out = (f64, f64, u64, Option<Served<R>>);

    fn run<S: Sim<Rec = R>>(self, mut sim: S, tracer: &mut Tracer) -> Self::Out {
        let spec = self.spec;
        PathArena::reset_peak();
        let (booted, boot_s) = engine_span(&mut sim, tracer, "sim.boot", 0, |s| s.boot());
        let boot_delivered = sim.counters().delivered;
        let mut pubs = publishers(sim.graph().node_count());
        let s = tracer.begin("core.forward.republish", 0);
        let now = sim.now();
        let mut compiled = sim.republish(&mut pubs, now);
        let first_compile_s = tracer.end(s);
        if self.batches == 0 {
            sim.finish();
            return (boot_s, first_compile_s, boot_delivered, None);
        }

        let t_loop = Instant::now();
        let loop_span = tracer.begin("serve", 0);
        let gen = FlowGen::new(sim.live_nodes());
        let s = tracer.begin("dynamics.addresses", 0);
        let mut book = address_book(&mut sim);
        let mut addresses_s = tracer.end(s);
        let mut walks = WalkAcc::default();
        let (mut flap_s, mut compile_s) = (0.0, 0.0);
        let mut quiesced = booted;
        let mut flows = Vec::new();
        let (mut chunk_walks, mut chunk_s, mut chunk_rates) = (0, 0.0, Vec::new());
        for b in 0..self.batches {
            let group = b as u64 + 1;
            flows = gen.flows(spec.flows, self.seed, group);
            let s = tracer.begin("dynamics.walk", group);
            let before = (walks.walk_ns, walks.bfs_ns);
            walk_batch(&sim, &pubs, &book, &flows, spec.batch, &mut walks);
            tracer.end_with(s, || {
                vec![
                    ("walks".to_string(), flows.len() as f64),
                    ("walk_ns".to_string(), (walks.walk_ns - before.0) as f64),
                    ("bfs_ns".to_string(), (walks.bfs_ns - before.1) as f64),
                ]
            });

            let (u, v) = self.flaps[b / 2 % self.flaps.len()];
            let ev = if b % 2 == 0 {
                TopologyEvent::LinkDown { u, v }
            } else {
                TopologyEvent::LinkUp { u, v, weight: 1.0 }
            };
            let at = sim.now() + FLAP_DELAY;
            sim.schedule(at, ev);
            let (done, secs) = engine_span(&mut sim, tracer, "sim.flap", group, |s| s.drain());
            flap_s += secs;
            quiesced &= done;

            let now = sim.now();
            let s = tracer.begin("core.forward.republish", group);
            let c = sim.republish(&mut pubs, now);
            let republish_s = tracer.end_with(s, || {
                vec![
                    ("tables".to_string(), c.tables as f64),
                    ("entries".to_string(), c.entries as f64),
                ]
            });
            compile_s += republish_s;
            chunk_walks += flows.len();
            chunk_s += (walks.walk_ns - before.0) as f64 * 1e-9 + secs + republish_s;
            if (b + 1) % CHUNK_BATCHES == 0 || b + 1 == self.batches {
                chunk_rates.push(chunk_walks as f64 / chunk_s);
                (chunk_walks, chunk_s) = (0, 0.0);
            }
            compiled.tables += c.tables;
            compiled.entries += c.entries;

            let s = tracer.begin("dynamics.addresses", group);
            book = address_book(&mut sim);
            addresses_s += tracer.end(s);
        }
        let wall_s = t_loop.elapsed().as_secs_f64();
        tracer.end(loop_span);

        let probe_ns = if tracer.is_on() {
            probe_ns(&sim, &pubs, &book, &flows, 4_000_000)
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
            boot_delivered,
            bytes: counters.bytes,
            rib_candidates: gauges.rib_candidates,
            table_entries,
            walks: walks.key(),
            tables_compiled: compiled.tables,
        };
        let finished = sim.finish();
        let served = Served {
            det,
            boot_s,
            chunk_rates,
            flap_s,
            compile_s,
            addresses_s,
            wall_s,
            walks,
            compiled,
            counters,
            gauges,
            table_bytes,
            probe_ns,
            quiesced,
            finished,
        };
        (boot_s, first_compile_s, boot_delivered, Some(served))
    }
}

/// Set up the serve workload once and, when `batches > 0`, serve that many
/// batches on it.
pub fn run_once<R: Rec>(
    spec: &ServeSpec,
    seed: u64,
    batches: usize,
    tracer: &mut Tracer,
) -> (ServeSetup, Option<Served<R>>) {
    let mut inputs = spec.inputs(seed, batches.div_ceil(2).max(1), tracer);
    let flaps = std::mem::take(&mut inputs.plan);
    let (boot_s, compile_s, boot_delivered, served) = setup::with_engine::<_, R, _>(
        &mut inputs,
        0,
        seed,
        tracer,
        Serve {
            spec,
            seed,
            flaps: &flaps,
            batches,
        },
    );
    let setup = ServeSetup {
        times: inputs.times,
        boot_s,
        compile_s,
        boot_delivered,
    };
    (setup, served)
}
