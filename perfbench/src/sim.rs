//! One driving surface over the sequential [`Engine`] and the
//! [`ShardedEngine`], so every workload runs the identical decision
//! sequence on both and the benchmark can compare their deterministic
//! outputs exactly.

use disco_core::forward::{ForwardingTable, TablePublisher};
use disco_core::protocol::{DiscoMsg, DiscoProtocol};
use disco_dynamics::forward::FlowAddress;
use disco_dynamics::Schedule;
use disco_graph::{Graph, NodeId, PathArena};
use disco_sim::{
    Engine, MessageClass, NoopRecorder, Protocol, Recorder, ShardedEngine, TimerWheel,
    TopologyEvent,
};
use disco_telemetry::FullRecorder;

/// Per-class `(engine events, summed upcall wall nanoseconds)`.
pub type Upcalls = [(u64, u64); MessageClass::COUNT];

/// Read per-class upcall totals from a recorder, where it keeps them.
pub trait UpcallTotals {
    /// `None` for recorders that time nothing.
    fn upcall_totals(&self) -> Option<Upcalls>;
}

impl UpcallTotals for NoopRecorder {
    fn upcall_totals(&self) -> Option<Upcalls> {
        None
    }
}

impl UpcallTotals for FullRecorder {
    fn upcall_totals(&self) -> Option<Upcalls> {
        let mut out = [(0, 0); MessageClass::COUNT];
        for c in MessageClass::ALL {
            let h = self.registry.latency(c);
            out[c.index()] = (h.count(), h.sum());
        }
        Some(out)
    }
}

/// Engine counters read at the end of a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Messages delivered to `on_message` upcalls.
    pub delivered: u64,
    /// Queue pops (summed over shards on a sharded engine).
    pub events: u64,
    /// Messages lost in flight plus cancelled timers.
    pub drops: u64,
    /// Epoch-dead timers that slipped past eager cancellation.
    pub stale_timer_pops: u64,
    /// Live queue entries.
    pub queue_live: usize,
    /// Cancelled-but-unreclaimed queue entries.
    pub queue_dead: usize,
    /// Accounted control bytes sent (`MessageStats::total_bytes`).
    pub bytes: u64,
}

/// Protocol-state gauges summed over the live nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauges {
    /// Live nodes.
    pub live: usize,
    /// Path-vector candidates held.
    pub rib_candidates: u64,
    /// Adj-RIB-In bytes (`RibStats::approx_bytes`).
    pub rib_bytes: u64,
    /// Loc-RIB view bytes (`PathVectorNode::loc_rib_bytes`).
    pub loc_rib_bytes: u64,
    /// Dissemination bookkeeping bytes.
    pub dissem_bytes: u64,
    /// Summed `|live estimate − live n|`.
    pub estimate_abs_err: u64,
    /// Path-arena peak live cells (summed over shard threads).
    pub arena_peak_cells: u64,
    /// Path-arena intern-table bytes (summed over shard threads).
    pub arena_intern_bytes: u64,
}

/// Tables compiled by one republish sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Compiled {
    /// Tables compiled and published.
    pub tables: u64,
    /// Entries across the compiled tables.
    pub entries: u64,
}

/// What [`Sim::finish`] hands back.
pub struct Finished<R> {
    /// The run's recorder (merged over shards).
    pub recorder: R,
    /// Arena cells released by the sharded workers' end-of-run compaction.
    pub arena_reclaimed_cells: u64,
}

/// The engine surface the workloads drive.
pub trait Sim {
    /// The attached recorder type.
    type Rec;
    /// Boot: deliver `on_start` and run to quiescence.
    fn boot(&mut self) -> bool;
    /// Run every event up to `t`.
    fn run_to(&mut self, t: f64);
    /// Run to quiescence.
    fn drain(&mut self) -> bool;
    /// Simulation clock.
    fn now(&self) -> f64;
    /// The current topology.
    fn graph(&self) -> &Graph;
    /// Whether `v` is in the network.
    fn is_active(&self, v: NodeId) -> bool;
    /// Live nodes in id order.
    fn live_nodes(&self) -> Vec<NodeId>;
    /// Inject a schedule relative to the current clock.
    fn apply(&mut self, schedule: &Schedule);
    /// Schedule one topology event at absolute time `at`.
    fn schedule(&mut self, at: f64, ev: TopologyEvent);
    /// Republish every live node whose control revision moved (modulo
    /// debounce).
    fn republish(&mut self, pubs: &mut [TablePublisher], now: f64) -> Compiled;
    /// Each listed node's current address, detached from the path arena.
    fn addresses(&mut self, nodes: &[NodeId]) -> Vec<Option<FlowAddress>>;
    /// Protocol-state gauges over the live nodes.
    fn gauges(&mut self) -> Gauges;
    /// Engine counters.
    fn counters(&mut self) -> Counters;
    /// Per-class upcall totals so far (`None` untraced).
    fn upcalls(&mut self) -> Option<Upcalls>;
    /// Shut down and hand back the recorder.
    fn finish(self) -> Finished<Self::Rec>;
}

type SeqEngine<'f, R> = Engine<'f, DiscoProtocol, TimerWheel<DiscoMsg>, R>;

/// Gauges over `live`, with the estimate error taken against `n` live
/// nodes in the whole network.
fn node_gauges(nodes: &[DiscoProtocol], live: &[NodeId], n: u64) -> Gauges {
    let arena = PathArena::stats();
    let mut g = Gauges {
        live: live.len(),
        arena_peak_cells: arena.peak_live_cells as u64,
        arena_intern_bytes: arena.intern_bytes as u64,
        ..Gauges::default()
    };
    for &v in live {
        let node = &nodes[v.0];
        let rib = node.pv.rib_stats();
        g.rib_candidates += rib.candidates as u64;
        g.rib_bytes += rib.approx_bytes as u64;
        g.loc_rib_bytes += node.pv.loc_rib_bytes() as u64;
        g.dissem_bytes += node.dissemination_bytes() as u64;
        g.estimate_abs_err += (node.live_estimate() as u64).abs_diff(n);
    }
    g
}

fn add_gauges(a: &mut Gauges, b: Gauges) {
    a.live += b.live;
    a.rib_candidates += b.rib_candidates;
    a.rib_bytes += b.rib_bytes;
    a.loc_rib_bytes += b.loc_rib_bytes;
    a.dissem_bytes += b.dissem_bytes;
    a.estimate_abs_err += b.estimate_abs_err;
    a.arena_peak_cells += b.arena_peak_cells;
    a.arena_intern_bytes += b.arena_intern_bytes;
}

fn detach(node: &DiscoProtocol) -> Option<FlowAddress> {
    node.my_address().map(|a| FlowAddress {
        landmark: a.landmark,
        path: a.path.to_vec(),
    })
}

impl<R: Recorder + UpcallTotals> Sim for SeqEngine<'_, R> {
    type Rec = R;

    fn boot(&mut self) -> bool {
        self.run().converged
    }

    fn run_to(&mut self, t: f64) {
        Engine::run_to(self, t);
    }

    fn drain(&mut self) -> bool {
        self.run_until(|_| false)
    }

    fn now(&self) -> f64 {
        Engine::now(self)
    }

    fn graph(&self) -> &Graph {
        Engine::graph(self)
    }

    fn is_active(&self, v: NodeId) -> bool {
        Engine::is_active(self, v)
    }

    fn live_nodes(&self) -> Vec<NodeId> {
        self.active_nodes().collect()
    }

    fn apply(&mut self, schedule: &Schedule) {
        schedule.apply_to(self);
    }

    fn schedule(&mut self, at: f64, ev: TopologyEvent) {
        self.schedule_topology(at, ev);
    }

    fn republish(&mut self, pubs: &mut [TablePublisher], now: f64) -> Compiled {
        let mut out = Compiled::default();
        for (v, publisher) in pubs.iter_mut().enumerate() {
            if !Engine::is_active(self, NodeId(v)) {
                continue;
            }
            let node = &self.nodes()[v];
            if publisher.needs_publish(node.control_revision(), now) {
                publisher.publish_with(now, |t| node.compile_forwarding_into(t));
                out.tables += 1;
                out.entries += publisher.table().len() as u64;
            }
        }
        out
    }

    fn addresses(&mut self, nodes: &[NodeId]) -> Vec<Option<FlowAddress>> {
        let all = self.nodes();
        nodes.iter().map(|v| detach(&all[v.0])).collect()
    }

    fn gauges(&mut self) -> Gauges {
        let live = self.live_nodes();
        node_gauges(self.nodes(), &live, live.len() as u64)
    }

    fn counters(&mut self) -> Counters {
        let (queue_live, queue_dead) = self.queue_stats();
        Counters {
            delivered: self.messages_delivered(),
            events: self.events_processed(),
            drops: self.messages_dropped(),
            stale_timer_pops: self.stale_timer_pops(),
            queue_live,
            queue_dead,
            bytes: self.stats().total_bytes(),
        }
    }

    fn upcalls(&mut self) -> Option<Upcalls> {
        self.recorder().upcall_totals()
    }

    fn finish(mut self) -> Finished<R> {
        let now = Engine::now(&self);
        self.recorder_mut().finish(now);
        Finished {
            recorder: self.into_recorder(),
            arena_reclaimed_cells: 0,
        }
    }
}

impl<R> Sim for ShardedEngine<DiscoProtocol, R>
where
    R: Recorder + disco_sim::MergeRecorder + UpcallTotals + Send + 'static,
{
    type Rec = R;

    fn boot(&mut self) -> bool {
        self.run().converged
    }

    fn run_to(&mut self, t: f64) {
        ShardedEngine::run_to(self, t);
    }

    fn drain(&mut self) -> bool {
        self.run_until(|_| false)
    }

    fn now(&self) -> f64 {
        ShardedEngine::now(self)
    }

    fn graph(&self) -> &Graph {
        ShardedEngine::graph(self)
    }

    fn is_active(&self, v: NodeId) -> bool {
        ShardedEngine::is_active(self, v)
    }

    fn live_nodes(&self) -> Vec<NodeId> {
        self.active_nodes().collect()
    }

    fn apply(&mut self, schedule: &Schedule) {
        schedule
            .apply_to_sharded(self)
            .expect("schedules re-add only unit-weight links");
    }

    fn schedule(&mut self, at: f64, ev: TopologyEvent) {
        self.schedule_topology(at, ev)
            .expect("flaps re-add only unit-weight links");
    }

    fn republish(&mut self, pubs: &mut [TablePublisher], now: f64) -> Compiled {
        let mut out = Compiled::default();
        for shard in 0..self.shards() {
            // Ship each owned node's publish-decision inputs to its shard,
            // which evaluates exactly `TablePublisher::needs_publish` and
            // compiles only the tables that need a new epoch.
            let mine: Vec<(usize, Option<u64>, bool)> = (0..pubs.len())
                .filter(|&v| {
                    self.owner_of(NodeId(v)) == shard && ShardedEngine::is_active(self, NodeId(v))
                })
                .map(|v| (v, pubs[v].published_revision(), pubs[v].may_publish_at(now)))
                .collect();
            if mine.is_empty() {
                continue;
            }
            let rows: Vec<(usize, ForwardingTable)> = self.visit(shard, move |e| {
                let nodes = e.nodes();
                mine.into_iter()
                    .filter_map(|(v, published, may)| {
                        let node = &nodes[v];
                        let needs = match published {
                            None => true,
                            Some(rev) => rev != node.control_revision() && may,
                        };
                        needs.then(|| {
                            let mut t = ForwardingTable::new(NodeId(v));
                            node.compile_forwarding_into(&mut t);
                            (v, t)
                        })
                    })
                    .collect()
            });
            for (v, table) in rows {
                out.tables += 1;
                out.entries += table.len() as u64;
                pubs[v].publish_with(now, |slot| *slot = table);
            }
        }
        out
    }

    fn addresses(&mut self, nodes: &[NodeId]) -> Vec<Option<FlowAddress>> {
        let mut out = vec![None; nodes.len()];
        for shard in 0..self.shards() {
            let mine: Vec<(usize, usize)> = nodes
                .iter()
                .enumerate()
                .filter(|&(_, &v)| self.owner_of(v) == shard)
                .map(|(i, &v)| (i, v.0))
                .collect();
            if mine.is_empty() {
                continue;
            }
            let rows: Vec<(usize, Option<FlowAddress>)> = self.visit(shard, move |e| {
                let all = e.nodes();
                mine.into_iter()
                    .map(|(i, v)| (i, detach(&all[v])))
                    .collect()
            });
            for (i, addr) in rows {
                out[i] = addr;
            }
        }
        out
    }

    fn gauges(&mut self) -> Gauges {
        let live = self.live_nodes();
        let n = live.len() as u64;
        let mut total = Gauges::default();
        for shard in 0..self.shards() {
            let mine: Vec<NodeId> = live
                .iter()
                .copied()
                .filter(|&v| self.owner_of(v) == shard)
                .collect();
            add_gauges(
                &mut total,
                self.visit(shard, move |e| node_gauges(e.nodes(), &mine, n)),
            );
        }
        total
    }

    fn counters(&mut self) -> Counters {
        let (queue_live, queue_dead) = self.queue_stats();
        Counters {
            delivered: self.messages_delivered(),
            events: self.events_processed(),
            drops: self.messages_dropped(),
            stale_timer_pops: self.stale_timer_pops(),
            queue_live,
            queue_dead,
            bytes: self.merged_stats().total_bytes(),
        }
    }

    fn upcalls(&mut self) -> Option<Upcalls> {
        if !R::ENABLED {
            return None;
        }
        let mut total = [(0, 0); MessageClass::COUNT];
        for shard in 0..self.shards() {
            let part = self.visit(shard, |e| e.recorder().upcall_totals())?;
            for (t, p) in total.iter_mut().zip(part) {
                t.0 += p.0;
                t.1 += p.1;
            }
        }
        Some(total)
    }

    fn finish(self) -> Finished<R> {
        let summary = ShardedEngine::finish(self);
        Finished {
            recorder: summary.recorder,
            arena_reclaimed_cells: summary.arena_reclaimed_cells as u64,
        }
    }
}
