//! One driving surface over both engines.
//!
//! [`Sim`] is what an experiment needs from a simulation: advance the
//! clock, read the current topology and the engine counters, and reach
//! protocol state. [`Engine`] and [`ShardedEngine`] both implement it, so
//! an experiment written once against `E: Sim` runs on either engine with
//! static dispatch, and a run's deterministic output is the same on both.
//!
//! Protocol state is reached one shard at a time through [`Sim::visit`]:
//! node `v`'s live instance is on shard [`Sim::owner_of`]`(v)`. The
//! sequential engine is a single shard whose `visit` is a direct call on
//! the caller's thread, so thread-local state read inside the closure (the
//! path arena, for one) is the caller's own — exactly what a sharded visit
//! sees on its worker thread.

use crate::engine::{Engine, RunReport};
use crate::event::{EventQueue, SimTime};
use crate::sharded::{ShardProtocol, ShardedEngine};
use crate::stats::MessageStats;
use crate::Protocol;
use disco_graph::{Graph, NodeId, PathArena};
use disco_telemetry::{MergeRecorder, Phase, Recorder};

/// What [`Sim::finish`] hands back once the engine is shut down.
pub struct Finished<R> {
    /// The run's recorder (merged over shards in shard-id order).
    pub recorder: R,
    /// Path-arena capacity cells released by the end-of-run compaction,
    /// after the run's protocol state was dropped (summed over shard
    /// threads).
    pub arena_reclaimed_cells: usize,
}

/// A deterministic simulation of one protocol over a dynamic graph. See
/// the module docs.
pub trait Sim {
    /// The per-node protocol.
    type Node: Protocol;
    /// The telemetry recorder type.
    type Rec: Recorder;

    /// Deliver `on_start` to every node (done by the `run*` methods on
    /// first use).
    fn start(&mut self);
    /// Run to quiescence (or a safety valve) and report.
    fn run(&mut self) -> RunReport;
    /// Process every event with timestamp `<= t`, then advance the clock
    /// to `t`; true if no events remain.
    fn run_to(&mut self, t: SimTime) -> bool;
    /// Run until quiescence (returns true) or until `stop` holds. The
    /// sequential engine checks `stop` after each event, the sharded one
    /// at window barriers.
    fn run_until(&mut self, stop: impl FnMut(&Self) -> bool) -> bool;
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// The current topology.
    fn graph(&self) -> &Graph;
    /// Whether `v` is currently part of the network.
    fn is_active(&self, v: NodeId) -> bool;
    /// Ids of the currently active nodes, ascending.
    fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_;
    /// Number of currently active nodes.
    fn active_count(&self) -> usize {
        self.active_nodes().count()
    }
    /// Queue pops (summed over shards; not shard-count invariant).
    fn events_processed(&self) -> u64;
    /// Messages delivered to `on_message` upcalls.
    fn messages_delivered(&self) -> u64;
    /// Messages lost in flight plus cancelled timers.
    fn messages_dropped(&self) -> u64;
    /// Epoch-dead timers that slipped past eager cancellation.
    fn stale_timer_pops(&self) -> u64;
    /// Topology events applied so far.
    fn topology_events(&self) -> u64;
    /// `(live, dead)` event-queue entries.
    fn queue_stats(&self) -> (usize, usize);
    /// Per-node message statistics, merged over shards.
    fn merged_stats(&mut self) -> MessageStats;
    /// Number of shards (1 for the sequential engine).
    fn shards(&self) -> usize;
    /// The shard holding node `v`'s live protocol instance.
    fn owner_of(&self, v: NodeId) -> usize;
    /// Run `f` over `shard`'s protocol instances (indexed by node id) on
    /// the thread that owns them and return its result.
    fn visit<T, F>(&mut self, shard: usize, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&[Self::Node]) -> T + Send + 'static;
    /// The coordinator-side recorder: the sequential engine's own. `None`
    /// on a sharded engine, whose per-shard recorders merge only at
    /// [`Sim::finish`].
    fn recorder_mut(&mut self) -> Option<&mut Self::Rec>;
    /// Finish the recorder at the current time, drop the protocol state,
    /// compact the path arenas, and hand back the recorder.
    fn finish(self) -> Finished<Self::Rec>
    where
        Self: Sized;

    /// Open a phase span on the coordinator-side recorder, if any.
    fn phase_begin(&mut self, phase: Phase, t: SimTime) {
        if let Some(rec) = self.recorder_mut() {
            rec.phase_begin(phase, t);
        }
    }

    /// Close a phase span on the coordinator-side recorder, if any.
    fn phase_end(&mut self, phase: Phase, t: SimTime) {
        if let Some(rec) = self.recorder_mut() {
            rec.phase_end(phase, t);
        }
    }
}

/// The trait methods whose inherent namesakes have the same signature on
/// both engines, forwarded as they are.
macro_rules! forward_inherent {
    ($engine:ident) => {
        fn start(&mut self) {
            $engine::start(self)
        }
        fn run(&mut self) -> RunReport {
            $engine::run(self)
        }
        fn run_to(&mut self, t: SimTime) -> bool {
            $engine::run_to(self, t)
        }
        fn run_until(&mut self, stop: impl FnMut(&Self) -> bool) -> bool {
            $engine::run_until(self, stop)
        }
        fn now(&self) -> SimTime {
            $engine::now(self)
        }
        fn graph(&self) -> &Graph {
            $engine::graph(self)
        }
        fn is_active(&self, v: NodeId) -> bool {
            $engine::is_active(self, v)
        }
        fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
            $engine::active_nodes(self)
        }
        fn events_processed(&self) -> u64 {
            $engine::events_processed(self)
        }
        fn messages_delivered(&self) -> u64 {
            $engine::messages_delivered(self)
        }
        fn messages_dropped(&self) -> u64 {
            $engine::messages_dropped(self)
        }
        fn stale_timer_pops(&self) -> u64 {
            $engine::stale_timer_pops(self)
        }
        fn topology_events(&self) -> u64 {
            $engine::topology_events(self)
        }
        fn queue_stats(&self) -> (usize, usize) {
            $engine::queue_stats(self)
        }
    };
}

impl<P: Protocol, Q: EventQueue<P::Message>, R: Recorder> Sim for Engine<'_, P, Q, R> {
    type Node = P;
    type Rec = R;

    forward_inherent!(Engine);

    fn merged_stats(&mut self) -> MessageStats {
        self.stats().clone()
    }

    fn shards(&self) -> usize {
        1
    }

    fn owner_of(&self, _v: NodeId) -> usize {
        0
    }

    fn visit<T, F>(&mut self, shard: usize, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&[P]) -> T + Send + 'static,
    {
        assert_eq!(shard, 0, "the sequential engine is a single shard");
        f(self.nodes())
    }

    fn recorder_mut(&mut self) -> Option<&mut R> {
        Some(Engine::recorder_mut(self))
    }

    fn finish(mut self) -> Finished<R> {
        let now = Engine::now(&self);
        Engine::recorder_mut(&mut self).finish(now);
        let recorder = self.into_recorder();
        Finished {
            recorder,
            arena_reclaimed_cells: PathArena::shrink(),
        }
    }
}

impl<P, R> Sim for ShardedEngine<P, R>
where
    P: ShardProtocol + 'static,
    R: MergeRecorder + Send + 'static,
{
    type Node = P;
    type Rec = R;

    forward_inherent!(ShardedEngine);

    fn merged_stats(&mut self) -> MessageStats {
        ShardedEngine::merged_stats(self)
    }

    fn shards(&self) -> usize {
        ShardedEngine::shards(self)
    }

    fn owner_of(&self, v: NodeId) -> usize {
        ShardedEngine::owner_of(self, v)
    }

    fn visit<T, F>(&mut self, shard: usize, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&[P]) -> T + Send + 'static,
    {
        ShardedEngine::visit(self, shard, move |e| f(e.nodes()))
    }

    fn recorder_mut(&mut self) -> Option<&mut R> {
        None
    }

    fn finish(self) -> Finished<R> {
        let summary = ShardedEngine::finish(self);
        Finished {
            recorder: summary.recorder,
            arena_reclaimed_cells: summary.arena_reclaimed_cells,
        }
    }
}
