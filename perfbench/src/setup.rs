//! Workload inputs and engine construction, timed layer by layer.

use crate::sim::{Sim, UpcallTotals, Upcalls};
use crate::spans::{Open, Tracer};
use disco_core::config::DiscoConfig;
use disco_core::forward::TablePublisher;
use disco_core::landmark::{landmark_set, select_landmarks};
use disco_core::protocol::{DiscoProtocol, PhaseTimers};
use disco_dynamics::forward::FlowAddress;
use disco_graph::{generators, FxHashSet, Graph, NodeId};
use disco_sim::{Engine, MergeRecorder, MessageClass, Recorder, ShardedEngine, TimerWheel};

/// Average degree of every workload's G(n, m) graph (the `exp_*` bins'
/// generator; unit link weights).
pub const AVG_DEGREE: f64 = 8.0;

/// Seed of each workload's network instance: the graph, the landmark
/// draw, the protocol's own randomness and the churn schedule. Fixed, so
/// that every run measures the same control-plane work; `--seed` drives
/// what happens on the instance (traffic and link flaps). At n = 256 the
/// default config's message count moves by up to ±30% between graph or
/// churn-schedule seeds (gossip-driven landmark re-elections), which would
/// drown any regression the benchmark is meant to catch.
pub const INSTANCE_SEED: u64 = 1;

/// Host seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `generators::gnm_average_degree`.
    pub generate_s: f64,
    /// `select_landmarks` + `landmark_set`.
    pub landmarks_s: f64,
    /// Schedule compile.
    pub schedule_s: f64,
    /// Engine construction, including the n protocol replicas.
    pub construct_s: f64,
}

impl SetupTimes {
    /// All steps.
    pub fn total(&self) -> f64 {
        self.generate_s + self.landmarks_s + self.schedule_s + self.construct_s
    }
}

/// One workload instance's generated inputs.
pub struct Inputs<T> {
    /// The topology.
    pub graph: Graph,
    /// Protocol configuration.
    pub cfg: DiscoConfig,
    /// Landmark set drawn at construction.
    pub landmarks: FxHashSet<NodeId>,
    /// The workload's compiled event plan.
    pub plan: T,
    /// Set-up timings so far (construction is added by [`with_engine`]).
    pub times: SetupTimes,
}

/// Generate a workload's inputs: the instance's graph and landmark draw,
/// and the event plan `plan(graph)`.
pub fn inputs<T>(
    n: usize,
    dynamic_n: bool,
    tracer: &mut Tracer,
    plan: impl FnOnce(&Graph) -> T,
) -> Inputs<T> {
    let mut times = SetupTimes::default();
    let s = tracer.begin("graph.generate", 0);
    let graph = generators::gnm_average_degree(n, AVG_DEGREE, INSTANCE_SEED);
    times.generate_s = tracer.end(s);
    let s = tracer.begin("core.landmarks", 0);
    let cfg = DiscoConfig::seeded(INSTANCE_SEED).with_dynamic_n_estimation(dynamic_n);
    let landmarks = landmark_set(&select_landmarks(n, &cfg));
    times.landmarks_s = tracer.end(s);
    let s = tracer.begin("dynamics.schedule", 0);
    let plan = plan(&graph);
    times.schedule_s = tracer.end(s);
    Inputs {
        graph,
        cfg,
        landmarks,
        plan,
        times,
    }
}

/// A workload body generic over the engine it drives.
pub trait Body<R> {
    /// What the body returns.
    type Out;
    /// Drive `sim` (and shut it down).
    fn run<S: Sim<Rec = R>>(self, sim: S, tracer: &mut Tracer) -> Self::Out;
}

/// What a run needs of its recorder.
pub trait Rec: Recorder + MergeRecorder + UpcallTotals + Default + Send + 'static {}
impl<R: Recorder + MergeRecorder + UpcallTotals + Default + Send + 'static> Rec for R {}

/// Construct the engine for `inputs` — sequential when `shards == 0`,
/// else sharded — time the construction into `inputs.times`, and run
/// `body` on it.
pub fn with_engine<T, R: Rec, B: Body<R>>(
    inputs: &mut Inputs<T>,
    shards: usize,
    seed: u64,
    tracer: &mut Tracer,
    body: B,
) -> B::Out {
    let n = inputs.graph.node_count();
    let cfg = inputs.cfg.clone();
    let landmarks = inputs.landmarks.clone();
    let factory = move |v: NodeId| {
        DiscoProtocol::new(v, landmarks.contains(&v), n, &cfg, PhaseTimers::default())
    };
    let s = tracer.begin("core.protocol.new", 0);
    if shards == 0 {
        let engine = Engine::with_recorder(&inputs.graph, factory, TimerWheel::new(), R::default());
        inputs.times.construct_s = tracer.end(s);
        body.run(engine, tracer)
    } else {
        let engine =
            ShardedEngine::with_recorder(&inputs.graph, shards, seed, factory, |_| R::default());
        inputs.times.construct_s = tracer.end(s);
        body.run(engine, tracer)
    }
}

/// Publisher debounce of every workload (simulation time).
const DEBOUNCE: f64 = 5.0;

/// One publisher per node.
pub fn publishers(n: usize) -> Vec<TablePublisher> {
    (0..n)
        .map(|v| TablePublisher::new(NodeId(v), DEBOUNCE))
        .collect()
}

/// Every node's detached address, indexed by node id (`None` for nodes
/// that are down or unaddressed).
pub fn address_book<S: Sim>(sim: &mut S) -> Vec<Option<FlowAddress>> {
    let live = sim.live_nodes();
    let mut book = vec![None; sim.graph().node_count()];
    for (v, a) in live.iter().zip(sim.addresses(&live)) {
        book[v.0] = a;
    }
    book
}

/// Run `f` on `sim` inside an engine span: the span records the per-class
/// upcall time its interval contains (traced runs only) and returns its
/// host seconds.
pub fn engine_span<S: Sim, T>(
    sim: &mut S,
    tracer: &mut Tracer,
    name: &'static str,
    group: u64,
    f: impl FnOnce(&mut S) -> T,
) -> (T, f64) {
    let before = if tracer.is_on() { sim.upcalls() } else { None };
    let open: Open = tracer.begin(name, group);
    let out = f(sim);
    let secs = tracer.end_with(open, || match (before, sim.upcalls()) {
        (Some(b), Some(a)) => upcall_args(&b, &a),
        _ => Vec::new(),
    });
    (out, secs)
}

/// The upcall classes whose time the per-layer metrics report.
pub const UPCALL_CLASSES: [MessageClass; 7] = [
    MessageClass::Deliver,
    MessageClass::Flood,
    MessageClass::Batch,
    MessageClass::Withdraw,
    MessageClass::Gossip,
    MessageClass::Timer,
    MessageClass::Topology,
];

fn upcall_args(before: &Upcalls, after: &Upcalls) -> Vec<(String, f64)> {
    let mut args = Vec::new();
    let mut total = 0u64;
    for c in MessageClass::ALL {
        let ns = after[c.index()].1 - before[c.index()].1;
        total += ns;
        if ns > 0 {
            args.push((format!("upcall_{}_ns", c.name()), ns as f64));
        }
    }
    args.push(("upcall_ns".to_string(), total as f64));
    args
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Mean of the middle half of `v` (the interquartile mean). Steadier than
/// the median when the samples fall into two modes of similar weight,
/// where the median jumps from one mode to the other.
pub fn iq_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = s.len() / 4;
    let mid = &s[q..s.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}
