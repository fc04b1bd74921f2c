//! # mpc-skew
//!
//! A from-scratch Rust implementation of one-round massively-parallel (MPC)
//! conjunctive query evaluation with provably optimal skew handling, after
//!
//! > Paul Beame, Paraschos Koutris, Dan Suciu.
//! > *Skew in Parallel Query Processing.* PODS 2014.
//!
//! This façade crate re-exports the workspace crates under stable paths:
//!
//! * [`lp`] — exact rationals, simplex, polytope vertex enumeration;
//! * [`query`] — conjunctive queries, hypergraphs, fractional edge packings,
//!   residual queries;
//! * [`data`] — relations, deterministic generators, a local multiway join;
//! * [`stats`] — cardinalities, heavy hitters, frequency bins, bin
//!   combinations, degree sequences;
//! * [`sim`] — the one-round MPC cluster simulator with exact per-server
//!   load accounting;
//! * [`core`] — the algorithms (HyperCube, skew join, the general
//!   bin-combination algorithm, baselines) and every lower-bound formula of
//!   the paper.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use mpc_core as core;
pub use mpc_data as data;
pub use mpc_lp as lp;
pub use mpc_query as query;
pub use mpc_sim as sim;
pub use mpc_stats as stats;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use mpc_core::aggregate::{AggregateAccumulator, AggregateResult, Mergeable};
    pub use mpc_core::bounds;
    pub use mpc_core::engine::{
        execute_batch, sketch_capacity, Algorithm, Engine, ExactStats, Plan, PlanKey, RunOutcome,
        SketchStats, Stats, StatsMode, SyntheticStats,
    };
    pub use mpc_core::hypercube::HyperCube;
    pub use mpc_core::multi_round::MultiRoundResult;
    pub use mpc_core::service::{
        CacheCounters, CacheStatus, QuerySpec, Service, ServiceError, ServiceOutcome,
        SketchTelemetry, DEFAULT_PLAN_CACHE_CAPACITY,
    };
    pub use mpc_core::shares::ShareAllocation;
    pub use mpc_core::skew_general::GeneralSkewAlgorithm;
    pub use mpc_core::skew_join::{SkewJoin, SkewJoinConfig};
    pub use mpc_core::verify::{
        aggregate_oracle, assert_complete, verify, verify_aggregate, AggregateVerification,
    };
    pub use mpc_core::wire::Session;
    pub use mpc_data::catalog::Database;
    pub use mpc_data::join::{Join, JoinStats};
    pub use mpc_data::relation::Relation;
    pub use mpc_data::rng::Rng;
    pub use mpc_query::aggregate::{AggregateOp, AggregateSpec};
    pub use mpc_query::parser::{parse_aggregate_query, parse_query};
    pub use mpc_query::query::Query;
    pub use mpc_query::varset::VarSet;
    pub use mpc_sim::backend::Backend;
    pub use mpc_sim::cluster::Cluster;
    pub use mpc_sim::pool::WorkerPool;
    pub use mpc_stats::cardinality::SimpleStatistics;
    pub use mpc_stats::sketch::{ErrorDirection, FreqEstimate, RelationSketch, SpaceSaving};
}
