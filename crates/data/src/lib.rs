//! # mpc-data
//!
//! Data substrate for the `mpc-skew` workspace:
//!
//! * [`relation::Relation`] — row-major `u64` tuple storage with the
//!   paper's bit-size accounting (`M_j = a_j m_j log n`);
//! * [`rng::Rng`] — deterministic xoshiro256** PRNG plus the keyed 64-bit
//!   mixer used as the simulator's "perfectly random hash function";
//! * [`zipf::Zipf`] — power-law sampling for skewed attributes;
//! * [`generators`] — uniform / matching / Zipf / exact-degree-sequence
//!   workloads matching each instance class the paper analyzes;
//! * [`catalog::Database`] — a query bound to one relation per atom;
//! * [`answers::AnswerSet`] — flat row-major answer storage (the output
//!   side of the data plane: one allocation, arity-aware sort/dedup);
//! * [`fastmap`] — the `mix64`-keyed [`fastmap::FastMap`]/[`fastmap::FastSet`]
//!   used by every statistics and routing map in the workspace;
//! * [`join`] — the local multiway join every simulated server runs
//!   (one [`Join`] builder; CSR-indexed, allocation-free per tuple), also
//!   the sequential ground truth for verification;
//! * [`budget`] — cooperative per-query resource budgets (deadline, row
//!   cap, group cap) polled by the join and shuffle hot loops;
//! * [`failpoint`] — the zero-cost-when-disabled chaos-injection registry
//!   (`MPCSKEW_FAILPOINTS`, or an exclusive [`failpoint::arm`] handle in
//!   tests), re-exported by `mpc-testkit`.

pub mod answers;
pub mod budget;
pub mod catalog;
pub mod failpoint;
pub mod fastmap;
pub mod generators;
pub mod join;
pub mod relation;
pub mod rng;
pub mod zipf;

pub use answers::{rows_materialized_total, AnswerSet};
pub use budget::{BudgetExceeded, BudgetKind, QueryBudget};
pub use catalog::{CatalogError, Database};
pub use fastmap::{FastMap, FastSet};
pub use join::{
    partition_join, visited_bindings_total, Join, JoinIndex, JoinOrder, JoinStats, PartitionedJoin,
};
pub use relation::{domain_bits, record_stats_scan_bytes, stats_scan_bytes_total, Relation};
pub use rng::{mix64, splitmix64, Rng};
pub use zipf::Zipf;
