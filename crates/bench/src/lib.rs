//! # disco-bench
//!
//! Benchmark and figure-regeneration harness. The `fig*`/`exp*` binaries in
//! `src/bin/` regenerate every table and figure of the paper's evaluation
//! (§5); the Criterion benches in `benches/` measure the cost of the core
//! operations (topology generation, state construction, routing).
//!
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! recorded paper-vs-measured comparison.

pub mod churn;
pub mod cli;
pub mod forward;
pub mod memory;
pub mod scale;

pub use cli::CommonArgs;

use disco_core::config::DiscoConfig;
use disco_core::landmark::{landmark_set, select_landmarks};
use disco_core::protocol::{DiscoProtocol, PhaseTimers};
use disco_graph::NodeId;

/// The node factory of the dynamic experiments: a [`DiscoProtocol`] per
/// node of an `n`-node network under `cfg`, with `cfg`'s landmarks
/// elected. It is `Send + Clone + 'static`, so either engine builds from
/// it (the sharded one builds each node on its owner shard).
pub fn disco_factory(
    n: usize,
    cfg: &DiscoConfig,
) -> impl Fn(NodeId) -> DiscoProtocol + Send + Clone + 'static {
    let landmarks = landmark_set(&select_landmarks(n, cfg));
    let cfg = cfg.clone();
    move |v| DiscoProtocol::new(v, landmarks.contains(&v), n, &cfg, PhaseTimers::default())
}
