//! The timer wheel's contract: pop order identical to the reference
//! `BinaryHeap` queue — `(time, key, seq)`, logical key then FIFO on
//! full ties — on arbitrary interleavings of pushes, pops, peeks and
//! cancellations, and a whole churned engine run that is the same on
//! either queue.

use disco_graph::{generators, NodeId};
use disco_sim::event::{BinaryHeapQueue, Event, EventKind, EventQueue, TimerWheel};
use disco_sim::rng::rng_for;
use disco_sim::{Context, Engine, Protocol, RunReport, TopologyEvent};
use proptest::prelude::*;
use rand::Rng;

fn timer(token: u64) -> EventKind<u32> {
    EventKind::Timer {
        node: NodeId((token % 7) as usize),
        token,
        epoch: 0,
    }
}

fn key(e: &Event<u32>) -> (f64, u64, u64, u64) {
    let token = match e.kind {
        EventKind::Timer { token, .. } => token,
        _ => unreachable!("stream pushes timers only"),
    };
    (e.time, e.key, e.seq, token)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, max_shrink_iters: 0 })]

    /// Drive both queues through the same random schedule and require
    /// identical observable behavior at every step.
    fn wheel_matches_heap_ordering(seed in 0u64..1_000_000) {
        let mut rng = rng_for(seed, 0x9e9e, 0);
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        let mut now = 0.0f64;
        let mut next_token = 0u64;
        // Live handles, kept in push order so cancels hit both queues'
        // view of the same event.
        let mut handles = Vec::new();
        for _ in 0..500 {
            match rng.gen_range(0..10u32) {
                // Push (with a bias): delays mix exact ties, sub-tick
                // fractions, whole ticks, and far-future overflow times.
                0..=5 => {
                    let delay = match rng.gen_range(0..5u32) {
                        0 => 0.0,
                        1 => rng.gen_range(0..1000u64) as f64 / 256.0,
                        2 => rng.gen_range(0..50u64) as f64,
                        3 => 0.01,
                        _ => 100.0 + rng.gen_range(0..100_000u64) as f64,
                    };
                    let t = next_token;
                    next_token += 1;
                    // A small logical-key space forces plenty of
                    // (time, key) ties that fall through to seq order.
                    let k = rng.gen_range(0..4u64);
                    let w = wheel.push(now + delay, k, timer(t));
                    let h = heap.push(now + delay, k, timer(t));
                    handles.push((w, h));
                }
                6 | 7 => {
                    let a = wheel.pop();
                    let b = heap.pop();
                    match (a, b) {
                        (None, None) => {}
                        (Some((_, ea)), Some((_, eb))) => {
                            prop_assert_eq!(key(&ea), key(&eb));
                            now = ea.time;
                        }
                        (a, b) => {
                            prop_assert!(false, "pop divergence: {} vs {}", a.is_some(), b.is_some())
                        }
                    }
                }
                8 => {
                    if !handles.is_empty() {
                        let i = rng.gen_range(0..handles.len());
                        let (w, h) = handles.swap_remove(i);
                        prop_assert_eq!(wheel.cancel(w), heap.cancel(h));
                    }
                }
                _ => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain to empty: the full remaining order must agree.
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some((_, ea)), Some((_, eb))) => prop_assert_eq!(key(&ea), key(&eb)),
                (a, b) => prop_assert!(false, "drain divergence: {} vs {}", a.is_some(), b.is_some()),
            }
        }
        prop_assert_eq!(wheel.dead_refs(), 0, "drained wheel must hold no residue");
    }
}

/// A chatty protocol for the whole-engine check: periodic broadcasts on a
/// timer, short reply chains to every message, and a hello plus a fresh
/// timer to each neighbor that comes up — so churn cancels live timers
/// and in-flight messages on both queues.
struct Beacon;

impl Protocol for Beacon {
    type Message = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.set_timer(1.0 + (ctx.node_id().0 % 4) as f64 * 0.25, 0);
        ctx.broadcast(0);
    }

    fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<'_, u32>) {
        if msg < 3 {
            ctx.send(from, msg + 1);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u32>) {
        if token < 12 {
            ctx.broadcast(0);
            ctx.set_timer(2.5, token + 1);
        }
    }

    fn on_neighbor_up(&mut self, peer: NodeId, ctx: &mut Context<'_, u32>) {
        ctx.send(peer, 0);
        ctx.set_timer(0.5, 6);
    }
}

/// One churned run of [`Beacon`] on the engine built by `engine`: node
/// departures with rejoins and link flaps spread over the timer rounds.
fn churned_run<Q: EventQueue<u32>>(
    engine: impl FnOnce(&disco_graph::Graph) -> Engine<'static, Beacon, Q>,
) -> RunReport {
    let g = generators::gnm_connected(64, 256, 17);
    let mut e = engine(&g);
    for k in 0..10usize {
        let t = 2.0 + 2.5 * k as f64;
        let node = NodeId(1 + 6 * k);
        e.schedule_topology(t, TopologyEvent::NodeLeave { node });
        e.schedule_topology(
            t + 4.0,
            TopologyEvent::NodeJoin {
                node,
                links: vec![(NodeId(0), 1.0), (NodeId(63), 2.0)],
            },
        );
    }
    let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(_, e)| (e.u, e.v)).step_by(23).collect();
    for (i, &(u, v)) in edges.iter().enumerate() {
        let t = 1.5 + 2.0 * i as f64;
        e.schedule_topology(t, TopologyEvent::LinkDown { u, v });
        e.schedule_topology(t + 3.0, TopologyEvent::LinkUp { u, v, weight: 1.0 });
    }
    e.run()
}

/// The whole engine, not just the queue: a churned run processes the same
/// events, deliveries, drops and topology events on the reference heap
/// as on the default timer wheel.
#[test]
fn churned_engine_run_is_queue_independent() {
    let heap = churned_run(|g| Engine::with_queue(g, |_| Beacon, BinaryHeapQueue::new()));
    let wheel = churned_run(|g| Engine::new(g, |_| Beacon));
    assert!(wheel.converged && heap.converged);
    assert!(wheel.topology_events >= 40, "expected real churn");
    assert!(
        wheel.messages_dropped > 0,
        "churn must cut something in flight"
    );
    assert_eq!(heap.events_processed, wheel.events_processed);
    assert_eq!(heap.messages_delivered, wheel.messages_delivered);
    assert_eq!(heap.topology_events, wheel.topology_events);
    assert_eq!(heap.messages_dropped, wheel.messages_dropped);
    assert_eq!(heap.end_time, wheel.end_time);
    assert_eq!(heap.stats, wheel.stats);
}
