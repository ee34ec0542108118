//! Flat-name traffic: seeded flow generation, batch-timed packet walks
//! through the published tables, and outcome classification against BFS
//! reachability (outside the timed window).

use crate::sim::Sim;
use disco_core::forward::TablePublisher;
use disco_dynamics::forward::{hop_distances, FlowAddress, PacketWalker, WalkOutcome};
use disco_graph::{FxHashMap, NodeId};
use disco_sim::rng::rng_for;
use rand::seq::SliceRandom;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Walk TTL: transient loops across mixed epochs count as stale losses.
pub const TTL: u32 = 128;

/// RNG stream of the flow generator.
const STREAM_FLOWS: u64 = 0xf10;

/// Seeded generator of `(source, destination)` flows over one live set:
/// sources uniform; destinations alternate between a Zipf(1) draw over a
/// popularity ranking that each batch reshuffles and a uniform draw.
pub struct FlowGen {
    live: Vec<NodeId>,
    cdf: Vec<f64>,
}

impl FlowGen {
    /// A generator over `live`.
    pub fn new(live: Vec<NodeId>) -> Self {
        let mut acc = 0.0;
        let cdf = (0..live.len())
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        FlowGen { live, cdf }
    }

    /// Batch `batch`'s `count` flows, deterministic in `(seed, batch)`.
    pub fn flows(&self, count: usize, seed: u64, batch: u64) -> Vec<(NodeId, NodeId)> {
        let n = self.live.len();
        if n < 2 {
            return Vec::new();
        }
        let mut rng = rng_for(seed, STREAM_FLOWS, batch);
        let mut ranked = self.live.clone();
        ranked.shuffle(&mut rng);
        let total = self.cdf[n - 1];
        (0..count)
            .map(|i| {
                let s = self.live[rng.gen_range(0..n)];
                let t = loop {
                    let t = if i % 2 == 0 {
                        let x = rng.gen::<f64>() * total;
                        ranked[self.cdf.partition_point(|&c| c < x).min(n - 1)]
                    } else {
                        self.live[rng.gen_range(0..n)]
                    };
                    if t != s {
                        break t;
                    }
                };
                (s, t)
            })
            .collect()
    }
}

/// Walk counts accumulated over batches. Everything but the `*_ns`
/// fields and `latency_ns` is a pure function of the seed.
#[derive(Debug, Clone, Default)]
pub struct WalkAcc {
    /// Packets walked.
    pub walks: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Routable packets lost to a stale hop or an epoch-mixing loop.
    pub stale: u64,
    /// Routable packets dropped with no stale hop to blame.
    pub miss: u64,
    /// Packets whose pair had no live path.
    pub unreachable: u64,
    /// Table probes.
    pub probes: u64,
    /// Hops of delivered packets.
    pub hops: u64,
    /// Delivered hops over the stretch subsample.
    pub stretch_hops: u64,
    /// BFS hops over the same subsample.
    pub stretch_dist: u64,
    /// Walks timed: packets times [`Batch::passes`].
    pub timed: u64,
    /// Host nanoseconds inside the timed walk passes.
    pub walk_ns: u64,
    /// Packets per host second of each timed pass.
    pub pass_rates: Vec<f64>,
    /// Host nanoseconds classifying outcomes (BFS).
    pub bfs_ns: u64,
    /// Host nanoseconds of the individually clocked walks (1 in
    /// [`Batch::sample_every`]) that delivered.
    pub latency_ns: Vec<u64>,
}

impl WalkAcc {
    /// Routable packets lost (stale + miss).
    pub fn lost(&self) -> u64 {
        self.stale + self.miss
    }

    /// Packets whose pair was routable.
    pub fn routable(&self) -> u64 {
        self.walks - self.unreachable
    }

    /// Delivered share of the routable packets.
    pub fn delivered_frac(&self) -> f64 {
        1.0 - self.loss_frac()
    }

    /// Lost share of the routable packets.
    pub fn loss_frac(&self) -> f64 {
        self.lost() as f64 / self.routable().max(1) as f64
    }

    /// Delivered hops over BFS hops on the stretch subsample.
    pub fn hop_stretch(&self) -> f64 {
        self.stretch_hops as f64 / self.stretch_dist.max(1) as f64
    }

    /// Fold in another accumulator.
    pub fn absorb(&mut self, o: &WalkAcc) {
        self.walks += o.walks;
        self.delivered += o.delivered;
        self.stale += o.stale;
        self.miss += o.miss;
        self.unreachable += o.unreachable;
        self.probes += o.probes;
        self.hops += o.hops;
        self.stretch_hops += o.stretch_hops;
        self.stretch_dist += o.stretch_dist;
        self.timed += o.timed;
        self.walk_ns += o.walk_ns;
        self.pass_rates.extend_from_slice(&o.pass_rates);
        self.bfs_ns += o.bfs_ns;
        self.latency_ns.extend_from_slice(&o.latency_ns);
    }

    /// The seed-determined counts, for exact comparisons.
    pub fn key(&self) -> [u64; 9] {
        [
            self.walks,
            self.delivered,
            self.stale,
            self.miss,
            self.unreachable,
            self.probes,
            self.hops,
            self.stretch_hops,
            self.stretch_dist,
        ]
    }
}

/// Settings of a walk batch.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Timed passes over the flows. The outcomes come from the first; the
    /// tables do not change in between, so every pass walks the same paths.
    pub passes: usize,
    /// Clock one walk in this many individually (the latency sample).
    pub sample_every: usize,
    /// Leading flows of each batch whose hop stretch is measured.
    pub stretch_sample: usize,
}

/// Walk `flows` through the published tables and classify the outcomes.
/// `addrs[v]` is node `v`'s detached address. Each pass of the walk loop is
/// timed as a whole; only every `sample_every`-th walk reads the clock on
/// its own.
pub fn walk_batch<S: Sim>(
    sim: &S,
    pubs: &[TablePublisher],
    addrs: &[Option<FlowAddress>],
    flows: &[(NodeId, NodeId)],
    batch: Batch,
    acc: &mut WalkAcc,
) {
    let walker = PacketWalker {
        graph: sim.graph(),
        is_active: |v: NodeId| sim.is_active(v),
        table_of: |v: NodeId| {
            let p = &pubs[v.0];
            p.has_published().then(|| p.table())
        },
        ttl: TTL,
    };
    let mut outcomes = Vec::with_capacity(flows.len());
    let mut probes = 0u64;
    for pass in 0..batch.passes {
        let t0 = Instant::now();
        for (i, &(s, t)) in flows.iter().enumerate() {
            let addr = addrs[t.0].as_ref();
            let out = if i % batch.sample_every == 0 {
                let w0 = Instant::now();
                let out = walker.walk(s, t, addr, |_| probes += 1);
                let ns = w0.elapsed().as_nanos() as u64;
                // Lost packets have no latency; `delivered_frac` counts them.
                if out.delivered() {
                    acc.latency_ns.push(ns);
                }
                out
            } else {
                walker.walk(s, t, addr, |_| probes += 1)
            };
            if pass == 0 {
                outcomes.push(black_box(out));
            } else {
                black_box(out);
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        acc.walk_ns += ns;
        acc.pass_rates
            .push(flows.len() as f64 / (ns.max(1) as f64 * 1e-9));
    }
    acc.timed += (flows.len() * batch.passes) as u64;
    acc.probes += probes / batch.passes.max(1) as u64;

    let t1 = Instant::now();
    let mut bfs: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
    let mut dist = |s: NodeId, t: NodeId| {
        bfs.entry(s)
            .or_insert_with(|| hop_distances(sim.graph(), |v| sim.is_active(v), s))[t.0]
    };
    for (i, (&(s, t), out)) in flows.iter().zip(&outcomes).enumerate() {
        acc.walks += 1;
        match *out {
            WalkOutcome::Delivered { hops } => {
                acc.delivered += 1;
                acc.hops += u64::from(hops);
                if i < batch.stretch_sample {
                    let d = dist(s, t);
                    if d != u32::MAX && d > 0 {
                        acc.stretch_hops += u64::from(hops);
                        acc.stretch_dist += u64::from(d);
                    }
                }
            }
            lost => {
                if dist(s, t) == u32::MAX {
                    acc.unreachable += 1;
                } else if lost.stale_loss() {
                    acc.stale += 1;
                } else {
                    acc.miss += 1;
                }
            }
        }
    }
    acc.bfs_ns += t1.elapsed().as_nanos() as u64;
}

/// Mean host nanoseconds of one pure `ForwardingTable::lookup`, timed as a
/// batch over the `(node, destination)` probes the flows' walks make at
/// each hop (the direct-destination probe of every hop).
pub fn probe_ns<S: Sim>(
    sim: &S,
    pubs: &[TablePublisher],
    addrs: &[Option<FlowAddress>],
    flows: &[(NodeId, NodeId)],
    min_probes: usize,
) -> f64 {
    // Replay the walks once, untimed, to learn which tables they probe.
    let visited = std::cell::RefCell::new(Vec::new());
    let walker = PacketWalker {
        graph: sim.graph(),
        is_active: |v: NodeId| sim.is_active(v),
        table_of: |v: NodeId| {
            visited.borrow_mut().push(v);
            let p = &pubs[v.0];
            p.has_published().then(|| p.table())
        },
        ttl: TTL,
    };
    let mut mix: Vec<(NodeId, NodeId)> = Vec::new();
    for &(s, t) in flows {
        walker.walk(s, t, addrs[t.0].as_ref(), |_| {});
        mix.extend(visited.borrow_mut().drain(..).map(|v| (v, t)));
    }
    let mix: Vec<_> = mix
        .into_iter()
        .filter(|&(v, _)| pubs[v.0].has_published())
        .map(|(v, t)| (pubs[v.0].table(), t))
        .collect();
    if mix.is_empty() {
        return 0.0;
    }
    let rounds = min_probes.div_ceil(mix.len()).max(1);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for &(table, t) in &mix {
            black_box(table.lookup(black_box(t)));
        }
    }
    t0.elapsed().as_nanos() as f64 / (rounds * mix.len()) as f64
}

/// Exact `q`-quantile (nearest rank) of unsorted samples.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}
