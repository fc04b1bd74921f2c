//! # mpc-core
//!
//! One-round MPC query evaluation with provably optimal skew handling — the
//! algorithms and bounds of Beame, Koutris & Suciu, *Skew in Parallel Query
//! Processing* (PODS 2014):
//!
//! * [`shares`] — the share-exponent LP (5) and its closed form over
//!   `pk(q)` (Theorem 3.6);
//! * [`hypercube`] — the HyperCube algorithm (Section 3.1);
//! * [`baselines`] — standard parallel hash join and broadcast join
//!   routers, driven by the experiments and tests;
//! * [`multi_round`] — the traditional one-join-per-round baseline the
//!   introduction contrasts against, driven the same way;
//! * [`skew_join`] — the two-relation skew join of Section 4.1
//!   (light / H1 / H2 / H12 decomposition);
//! * [`skew_general`] — the general bin-combination algorithm of
//!   Section 4.2 (Theorem 4.6);
//! * [`bounds`] — every lower bound in the paper: `L(u, M, p)` and
//!   `L_lower` (Theorems 3.5/3.6), residual bounds `L_x(u, M, p)`
//!   (Theorem 4.7), Eq. (10), the replication-rate bound (Theorem 5.1) and
//!   the space exponent;
//! * [`verify`](mod@crate::verify) — exact distributed-vs-sequential answer verification;
//! * [`aggregate`](mod@crate::aggregate) — streaming aggregate pushdown:
//!   COUNT/SUM/MIN/MAX/COUNT DISTINCT folded inside the local join,
//!   merged across servers, memory proportional to groups not output;
//! * [`engine`] — the unified plan/execute surface over HyperCube and the
//!   §4 algorithms: [`Engine`] builds a stats-driven [`engine::Plan`]
//!   (auto mode picks the algorithm from heavy-hitter statistics and the
//!   load bounds) and every run returns one [`engine::RunOutcome`] shape.

pub mod aggregate;
pub mod baselines;
pub mod bounds;
pub mod engine;
pub mod hypercube;
pub mod multi_round;
pub mod service;
pub mod shares;
pub mod skew_general;
pub mod skew_join;
pub mod verify;
pub mod wire;

pub use aggregate::{aggregate_cluster, AggregateAccumulator, AggregateResult};
pub use baselines::{FragmentReplicateRouter, HashJoinRouter};
pub use engine::{
    sketch_capacity, Algorithm, Engine, ExactStats, Plan, PlanKey, RunOutcome, SketchStats, Stats,
    StatsMode, SyntheticStats,
};
pub use hypercube::HyperCube;
pub use service::{
    CacheCounters, CacheStatus, QuerySpec, Service, ServiceError, ServiceOutcome, SketchTelemetry,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use shares::ShareAllocation;
pub use skew_general::GeneralSkewAlgorithm;
pub use skew_join::SkewJoin;
pub use verify::{
    aggregate_oracle, assert_complete, verify, verify_aggregate, AggregateVerification,
    Verification,
};
pub use wire::Session;
