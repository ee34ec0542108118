//! Route availability and stretch measurement under dynamics.
//!
//! The paper's Fig. 8 measures control traffic until convergence on a
//! static topology. Under churn the interesting quantities are instead
//! *route availability* — can a live source still construct a working
//! route to a live destination right now? — and *stretch under churn*,
//! both measured against the engine's **current** graph. The probes here
//! are measurement-plane only: they read protocol state omnisciently but
//! never mutate it, and sample deterministically from a seed.

use disco_core::hash::NameHash;
use disco_core::path_vector::PathVectorNode;
use disco_core::protocol::{DiscoProtocol, WireAddress};
use disco_graph::{dijkstra, Graph, InternedPath, NodeId};
use disco_sim::rng::rng_for;
use disco_sim::{Engine, EventQueue, Protocol, Recorder, Sim, SimTime};
use rand::Rng;

/// Outcome of one batch of route probes.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// Simulation time of the probe.
    pub time: SimTime,
    /// Sampled (source, destination) pairs.
    pub pairs: usize,
    /// Pairs connected in the current graph (the denominator: routing can
    /// not be blamed for a partition).
    pub routable: usize,
    /// Pairs for which a working route was found.
    pub delivered: usize,
    /// Sum of stretch over delivered pairs.
    sum_stretch: f64,
}

impl ProbeReport {
    /// Fraction of routable pairs that were delivered (1.0 when nothing
    /// was routable).
    pub fn availability(&self) -> f64 {
        if self.routable == 0 {
            1.0
        } else {
            self.delivered as f64 / self.routable as f64
        }
    }

    /// Mean stretch over delivered pairs (1.0 when nothing was delivered).
    pub fn mean_stretch(&self) -> f64 {
        if self.delivered == 0 {
            1.0
        } else {
            self.sum_stretch / self.delivered as f64
        }
    }
}

/// Sample `count` ordered pairs of distinct currently-live nodes,
/// deterministically from `(seed, topology events applied)`. Both engines
/// report the same live set and event count at the same probe point, so a
/// sharded run probes exactly the pairs a sequential run would.
pub fn sample_live_pairs<E: Sim>(engine: &E, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let live: Vec<NodeId> = engine.active_nodes().collect();
    if live.len() < 2 {
        return Vec::new();
    }
    let mut rng = rng_for(seed, 0xb0, engine.topology_events());
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let s = live[rng.gen_range(0..live.len())];
        let mut t = live[rng.gen_range(0..live.len())];
        while t == s {
            t = live[rng.gen_range(0..live.len())];
        }
        pairs.push((s, t));
    }
    pairs
}

/// Probe each pair: ask `route_of` for candidate routes in preference
/// order (measurement-plane access to every protocol instance), validate
/// each hop-by-hop against the engine's current graph, count the pair
/// delivered if any candidate walks, and compare the first walking route's
/// length to the true shortest path. `route_of(nodes, s, t)` returns node
/// sequences `s..=t`.
pub fn probe<P: Protocol, Q: EventQueue<P::Message>, R: Recorder>(
    engine: &Engine<'_, P, Q, R>,
    pairs: &[(NodeId, NodeId)],
    route_of: impl Fn(&[P], NodeId, NodeId) -> Vec<Vec<NodeId>>,
) -> ProbeReport {
    let candidates: Vec<Vec<Vec<NodeId>>> = pairs
        .iter()
        .map(|&(s, t)| route_of(engine.nodes(), s, t))
        .collect();
    validate_candidates(
        engine.graph(),
        |v| engine.is_active(v),
        engine.now(),
        pairs,
        &candidates,
    )
}

/// The measurement half of a probe, shared by [`probe`] and
/// [`disco_probe`]: given each pair's candidate routes (in preference order),
/// validate them hop-by-hop against `graph` + `is_active`, count delivered
/// pairs and accumulate stretch against the true shortest paths.
fn validate_candidates(
    graph: &Graph,
    is_active: impl Fn(NodeId) -> bool,
    now: SimTime,
    pairs: &[(NodeId, NodeId)],
    candidates: &[Vec<Vec<NodeId>>],
) -> ProbeReport {
    let mut report = ProbeReport {
        time: now,
        pairs: pairs.len(),
        routable: 0,
        delivered: 0,
        sum_stretch: 0.0,
    };
    // One shortest-path tree per distinct source.
    let mut sources: Vec<NodeId> = pairs.iter().map(|&(s, _)| s).collect();
    sources.sort_unstable();
    sources.dedup();
    let trees: std::collections::HashMap<NodeId, _> = sources
        .into_iter()
        .map(|s| (s, dijkstra(graph, s)))
        .collect();
    for (&(s, t), cands) in pairs.iter().zip(candidates) {
        let Some(true_dist) = trees[&s].distance(t) else {
            continue; // partitioned: not the routing layer's fault
        };
        report.routable += 1;
        let Some(len) = cands
            .iter()
            .find_map(|route| walk_length(graph, &is_active, route, s, t))
        else {
            continue; // no candidate, or all stale (broken link / dead hop)
        };
        report.delivered += 1;
        report.sum_stretch += if true_dist <= 0.0 {
            1.0
        } else {
            len / true_dist
        };
    }
    report
}

/// Validate `route` as a walk `s..=t` over `graph` with every hop active;
/// returns its length.
fn walk_length(
    graph: &Graph,
    is_active: impl Fn(NodeId) -> bool,
    route: &[NodeId],
    s: NodeId,
    t: NodeId,
) -> Option<f64> {
    if route.first() != Some(&s) || route.last() != Some(&t) {
        return None;
    }
    let mut len = 0.0;
    for w in route.windows(2) {
        if !is_active(w[0]) || !is_active(w[1]) {
            return None;
        }
        len += graph.edge_weight(w[0], w[1])?;
    }
    Some(len)
}

/// Route oracle for plain path-vector nodes: the table route, if any.
pub fn path_vector_route(nodes: &[PathVectorNode], s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    nodes[s.0]
        .table
        .get(&t)
        .map(|e| e.path.to_vec())
        .into_iter()
        .collect()
}

/// Probe each pair with Disco's first-packet route choice (§4.3), in the
/// protocol's preference order: a vicinity route if the source has one;
/// the address known through the source's sloppy group; and name
/// resolution — the destination's flat-name hash resolved at the owning
/// landmark (which the source must be able to reach and which must hold
/// an address for the hash), followed as `s ; ℓ_t ; t`.
///
/// Node `v`'s live protocol state is on shard `owner_of(v)`, so the
/// candidates are collected in three batched visit phases (one sweep over
/// the shards each):
///
/// 1. on `owner(s)`: the vicinity route and the sloppy-group route, plus
///    whether the owner landmark of `H(t)` is reachable from `s` (the
///    hash itself is construction-time constant, so the local replica of
///    `t` can supply it);
/// 2. on `owner(ℓ)`: the owning landmark's resolution-store entry for
///    `H(t)`, detached from its shard-local path arena;
/// 3. on `owner(s)` again: the resolution route `s ; ℓ_t ; t` built from
///    the re-interned address, appended after the phase-1 candidates.
///
/// Validation then runs against the engine's current graph, so the report
/// is the same on every engine and shard count at the same probe point.
pub fn disco_probe<E: Sim<Node = DiscoProtocol>>(
    engine: &mut E,
    pairs: &[(NodeId, NodeId)],
) -> ProbeReport {
    let shards = engine.shards();
    let mut candidates: Vec<Vec<Vec<NodeId>>> = vec![Vec::new(); pairs.len()];
    // Resolution follow-ups: pair index -> (owning landmark, H(t)).
    let mut lookups: Vec<Option<(NodeId, NameHash)>> = vec![None; pairs.len()];

    // Phase 1: source-local candidates + resolution reachability.
    for shard in 0..shards {
        let mine: Vec<(usize, NodeId, NodeId)> = pairs
            .iter()
            .enumerate()
            .filter(|&(_, &(s, _))| engine.owner_of(s) == shard)
            .map(|(i, &(s, t))| (i, s, t))
            .collect();
        if mine.is_empty() {
            continue;
        }
        type Phase1Row = (usize, Vec<Vec<NodeId>>, Option<(NodeId, NameHash)>);
        let rows: Vec<Phase1Row> = engine.visit(shard, move |nodes| {
            mine.into_iter()
                .map(|(i, s, t)| {
                    let src = &nodes[s.0];
                    let mut cands = Vec::new();
                    if let Some(direct) = src.pv.table.get(&t) {
                        cands.push(direct.path.to_vec());
                    }
                    if let Some(addr) = src.group_address(t) {
                        cands.extend(src.route_to(t, Some(addr)).map(|p| p.to_vec()));
                    }
                    let t_hash = nodes[t.0].my_hash();
                    let lookup = src
                        .owner_landmark(t_hash)
                        .filter(|&owner| src.route_to(owner, None).is_some())
                        .map(|owner| (owner, t_hash));
                    (i, cands, lookup)
                })
                .collect()
        });
        for (i, cands, lookup) in rows {
            candidates[i] = cands;
            lookups[i] = lookup;
        }
    }

    // Phase 2: resolution-store reads on the owning landmarks' shards.
    // Addresses come back with their paths detached (interned paths are
    // pinned to the worker's arena).
    let mut resolved: Vec<Option<(NodeId, NodeId, Vec<NodeId>)>> = vec![None; pairs.len()];
    for shard in 0..shards {
        let mine: Vec<(usize, NodeId, NameHash, NodeId)> = lookups
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.map(|(owner, hash)| (i, owner, hash, pairs[i].1)))
            .filter(|&(_, owner, _, _)| engine.owner_of(owner) == shard)
            .collect();
        if mine.is_empty() {
            continue;
        }
        type Phase2Row = (usize, Option<(NodeId, NodeId, Vec<NodeId>)>);
        let rows: Vec<Phase2Row> = engine.visit(shard, move |nodes| {
            mine.into_iter()
                .map(|(i, owner, hash, t)| {
                    let addr = nodes[owner.0]
                        .resolution_store
                        .get(&hash)
                        .filter(|addr| addr.node == t)
                        .map(|addr| (addr.node, addr.landmark, addr.path.to_vec()));
                    (i, addr)
                })
                .collect()
        });
        for (i, addr) in rows {
            resolved[i] = addr;
        }
    }

    // Phase 3: back on the source shards, build the resolution route from
    // the re-interned address; it lands after the phase-1 candidates,
    // matching the sequential preference order.
    // (pair index, source, target, detached (node, landmark, path)).
    type Phase3Row = (usize, NodeId, NodeId, (NodeId, NodeId, Vec<NodeId>));
    for shard in 0..shards {
        let mine: Vec<Phase3Row> = resolved
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.clone().map(|a| (i, pairs[i].0, pairs[i].1, a)))
            .filter(|&(_, s, _, _)| engine.owner_of(s) == shard)
            .collect();
        if mine.is_empty() {
            continue;
        }
        let rows: Vec<(usize, Option<Vec<NodeId>>)> = engine.visit(shard, move |nodes| {
            mine.into_iter()
                .map(|(i, s, t, (node, landmark, path))| {
                    let addr = WireAddress {
                        node,
                        landmark,
                        path: InternedPath::from_slice(&path),
                    };
                    (i, nodes[s.0].route_to(t, Some(&addr)).map(|p| p.to_vec()))
                })
                .collect()
        });
        for (i, route) in rows {
            candidates[i].extend(route);
        }
    }

    validate_candidates(
        engine.graph(),
        |v| engine.is_active(v),
        engine.now(),
        pairs,
        &candidates,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PoissonChurn;
    use disco_core::config::DiscoConfig;
    use disco_core::landmark::{landmark_set, select_landmarks};
    use disco_core::path_vector::TableLimit;
    use disco_core::protocol::PhaseTimers;
    use disco_graph::generators;
    use disco_sim::{ShardedEngine, TopologyEvent};

    fn pv_engine(n: usize, m: usize, seed: u64) -> Engine<'static, PathVectorNode> {
        let g = generators::gnm_connected(n, m, seed);
        let mut engine = Engine::new(&g, |v| {
            PathVectorNode::new(v, v == NodeId(0), TableLimit::Unlimited)
        });
        assert!(engine.run().converged);
        engine
    }

    #[test]
    fn converged_network_has_full_availability_and_unit_stretch() {
        let engine = pv_engine(48, 192, 3);
        let pairs = sample_live_pairs(&engine, 64, 3);
        assert_eq!(pairs.len(), 64);
        let report = probe(&engine, &pairs, path_vector_route);
        assert_eq!(report.routable, 64);
        assert_eq!(report.delivered, 64);
        assert!((report.availability() - 1.0).abs() < 1e-12);
        assert!((report.mean_stretch() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn availability_recovers_after_churn() {
        let mut engine = pv_engine(48, 192, 5);
        let t0 = engine.now() + 1.0;
        engine.schedule_topology(t0, TopologyEvent::NodeLeave { node: NodeId(7) });
        engine.schedule_topology(
            t0 + 1.0,
            TopologyEvent::LinkDown {
                u: NodeId(1),
                v: engine.graph().neighbors(NodeId(1))[0].node,
            },
        );
        assert!(engine.run_until(|_| false), "repair did not quiesce");
        let pairs = sample_live_pairs(&engine, 64, 5);
        let report = probe(&engine, &pairs, path_vector_route);
        assert_eq!(report.routable, report.pairs);
        assert_eq!(
            report.delivered, report.routable,
            "unlimited path vector must fully heal"
        );
        assert!((report.mean_stretch() - 1.0).abs() < 1e-9);
        // Sampling never picks the departed node.
        assert!(pairs.iter().all(|&(s, t)| s != NodeId(7) && t != NodeId(7)));
    }

    #[test]
    fn stale_routes_fail_validation() {
        let mut engine = pv_engine(16, 48, 9);
        // Freeze state, then break a link WITHOUT letting repair run: routes
        // through it must count as undelivered.
        let (u, v) = {
            let e = engine.nodes()[2]
                .table
                .iter()
                .find(|(&d, _)| d != NodeId(2));
            let entry = e.map(|(_, e)| e.path.to_vec()).unwrap();
            (entry[0], entry[1])
        };
        let before = probe(&engine, &[(u, v)], path_vector_route);
        assert_eq!(before.delivered, 1);
        let t0 = engine.now() + 1.0;
        engine.schedule_topology(t0, TopologyEvent::LinkDown { u, v });
        // Advance exactly past the event; the repair traffic it triggers is
        // still in flight, so u's direct route to v is stale.
        engine.run_to(t0 + 1e-6);
        let report = probe(&engine, &[(u, v)], path_vector_route);
        if let Some(e) = engine.nodes()[u.0].table.get(&v) {
            // If u still exports a (stale or alternate) route, the probe
            // must only count it when it walks on the current graph.
            let walks = e
                .path
                .to_vec()
                .windows(2)
                .all(|w| engine.graph().edge_weight(w[0], w[1]).is_some());
            assert_eq!(report.delivered == 1, walks);
        } else {
            assert_eq!(report.delivered, 0);
        }
    }

    /// Boot `engine`, `inject` churn, and probe with [`disco_probe`] at
    /// four times through the churn window and once after the drain.
    fn disco_reports<E: Sim<Node = DiscoProtocol>>(
        mut engine: E,
        inject: impl FnOnce(&mut E),
    ) -> Vec<ProbeReport> {
        assert!(engine.run().converged);
        let start = engine.now();
        inject(&mut engine);
        let mut reports = Vec::new();
        for i in 1..=4u64 {
            engine.run_to(start + 100.0 * i as f64);
            let pairs = sample_live_pairs(&engine, 48, i);
            reports.push(disco_probe(&mut engine, &pairs));
        }
        assert!(engine.run_until(|_| false), "repair did not quiesce");
        let pairs = sample_live_pairs(&engine, 48, 0xd7a1);
        reports.push(disco_probe(&mut engine, &pairs));
        reports
    }

    /// The single Disco probe reads protocol state on the owner shards, so
    /// a churned run reports the same at every probe time on the
    /// sequential engine and on the sharded one at shards {1, 3}.
    #[test]
    fn disco_probe_matches_across_engines() {
        let (n, seed) = (64, 3);
        let g = generators::gnm_average_degree(n, 6.0, seed);
        let cfg = DiscoConfig::seeded(seed);
        let landmarks = landmark_set(&select_landmarks(n, &cfg));
        let factory =
            move |v| DiscoProtocol::new(v, landmarks.contains(&v), n, &cfg, PhaseTimers::default());
        let schedule = PoissonChurn {
            leave_rate_per_node: 0.002,
            mean_downtime: 80.0,
            horizon: 400.0,
            ..PoissonChurn::default()
        }
        .compile(&g, seed);
        assert!(schedule.len() > 10, "expected real churn");

        let seq = disco_reports(Engine::new(&g, factory.clone()), |e| schedule.apply_to(e));
        assert!(seq.iter().all(|r| r.routable > 0 && r.delivered > 0));
        let last = seq.last().unwrap();
        assert_eq!(
            last.delivered, last.routable,
            "full availability after repair"
        );
        for shards in [1, 3] {
            let engine = ShardedEngine::new(&g, shards, seed, factory.clone());
            let sharded = disco_reports(engine, |e| {
                schedule
                    .apply_to_sharded(e)
                    .expect("churn re-adds original links")
            });
            assert_eq!(seq, sharded, "probe reports diverged at shards {shards}");
        }
    }
}
