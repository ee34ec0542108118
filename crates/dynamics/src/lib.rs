//! # disco-dynamics
//!
//! Churn, failure and mobility workloads for the discrete-event simulator.
//!
//! The Disco paper's headline claim is a *dynamic*, distributed routing
//! protocol, yet a static simulation can only exercise the converged state.
//! This crate turns `disco-sim` into a dynamic-network simulator:
//!
//! * [`Schedule`] — a deterministic, seeded stream of
//!   [`disco_sim::TopologyEvent`]s that can be applied to any engine;
//! * [`models`] — compilers from churn models to schedules: Poisson
//!   join/leave churn ([`models::PoissonChurn`]), rolling link failures
//!   ([`models::LinkFailures`]), flash-crowd arrival
//!   ([`models::FlashCrowd`]) and waypoint mobility that re-attaches a node
//!   to new anchors ([`models::Waypoints`], the schedule-driven form of
//!   `examples/flat_name_mobility.rs`);
//! * [`probe`] — measurement of route availability and stretch-under-churn
//!   against the *current* topology, extending the paper's Fig. 8
//!   messaging methodology to steady-state churn. The sampler and the
//!   Disco probe take any [`disco_sim::Sim`], so one call site serves the
//!   sequential and the sharded engine.
//!
//! Everything is a pure function of `(graph, model parameters, seed)`, so
//! churn experiments replay bit-for-bit, exactly like the static ones.
//!
//! ```
//! use disco_core::config::DiscoConfig;
//! use disco_core::landmark::{landmark_set, select_landmarks};
//! use disco_core::protocol::{DiscoProtocol, PhaseTimers};
//! use disco_dynamics::{models::PoissonChurn, probe};
//! use disco_graph::generators;
//! use disco_sim::Engine;
//!
//! let (n, seed) = (64, 7);
//! let g = generators::gnm_average_degree(n, 6.0, seed);
//! let cfg = DiscoConfig::seeded(seed);
//! let landmarks = landmark_set(&select_landmarks(n, &cfg));
//! let schedule = PoissonChurn::default().compile(&g, seed);
//! let mut engine = Engine::new(&g, |v| {
//!     DiscoProtocol::new(v, landmarks.contains(&v), n, &cfg, PhaseTimers::default())
//! });
//! assert!(engine.run().converged);           // initial convergence
//! schedule.apply_to(&mut engine);            // inject the churn
//! assert!(engine.run_until(|_| false));      // repair to quiescence
//! let pairs = probe::sample_live_pairs(&engine, 64, seed);
//! let report = probe::disco_probe(&mut engine, &pairs);
//! assert!(report.availability() > 0.9);
//! ```

pub mod forward;
pub mod models;
pub mod probe;
pub mod schedule;

pub use probe::ProbeReport;
pub use schedule::Schedule;
