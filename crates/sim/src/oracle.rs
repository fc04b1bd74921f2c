//! Ground truth: the sequential join.
//!
//! A one-round algorithm is correct when the union of the servers' local
//! outputs equals the sequential join of the input (§2.1). Every
//! distributed answer set and aggregate is compared against this module.
//!
//! The oracle deliberately evaluates with [`JoinOrder::Fixed`] — the legacy
//! greedy atom order — while the simulated servers run the default dynamic
//! cardinality-guided ordering, so every verification pass doubles as a
//! dynamic-vs-fixed differential on the two engines' answer sets.

use mpc_data::answers::AnswerSet;
use mpc_data::catalog::Database;
use mpc_data::join::{Join, JoinOrder};

/// The ground-truth answer set of `db`'s query: the sequential Fixed-order
/// join, sorted and deduplicated.
pub fn join_database(db: &Database) -> AnswerSet {
    let mut answers = Join::of(db)
        .order(JoinOrder::Fixed)
        .answers()
        .expect("no budget is set");
    answers.sort_dedup();
    answers
}

/// Stream the sequential Fixed-order join of `db` into `emit`, under
/// [`Join::for_each`]'s emit contract (the fixed engine emits every
/// derivation with `mult` 1). The ground truth distributed aggregates are
/// folded against (`mpc_core::verify::aggregate_oracle`).
pub fn for_each_binding(db: &Database, emit: impl FnMut(&[u64], u64)) {
    Join::of(db)
        .order(JoinOrder::Fixed)
        .for_each(emit)
        .expect("no budget is set");
}
