//! Distributed-answer verification.
//!
//! A one-round algorithm is *correct* when the union of per-server local
//! join outputs equals the sequential join of the input (the MPC model's
//! requirement that "the servers must find all answers"). This module
//! performs that comparison exactly and reports any discrepancy.
//!
//! Aggregate queries verify the same way through
//! [`verify_aggregate`] / [`aggregate_oracle`]: the distributed per-server
//! fold is compared bit for bit against a sequential Fixed-order fold over
//! the full database.

use crate::aggregate::{aggregate_cluster, AggregateAccumulator, AggregateResult};
use mpc_data::answers::AnswerSet;
use mpc_data::budget::QueryBudget;
use mpc_data::catalog::Database;
use mpc_query::aggregate::AggregateSpec;
use mpc_sim::cluster::Cluster;
use mpc_sim::oracle;

/// Outcome of verifying a cluster against the sequential ground truth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verification {
    /// Answers the algorithm failed to produce.
    pub missing: AnswerSet,
    /// Answers the algorithm produced that the ground truth lacks (cannot
    /// happen for routers over genuine input tuples; kept for debugging
    /// future algorithms).
    pub unexpected: AnswerSet,
    /// Number of correct distinct answers.
    pub found: usize,
}

impl Verification {
    /// True iff the distributed output is exactly the sequential output.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty() && self.unexpected.is_empty()
    }
}

/// Compare a cluster's unioned answers against the sequential join of `db`
/// ([`mpc_sim::oracle::join_database`]).
pub fn verify(db: &Database, cluster: &Cluster) -> Verification {
    let expected = oracle::join_database(db);
    // The per-server local joins run on the cluster's own backend.
    let got = cluster.all_answers(db.query());
    diff(&expected, &got)
}

/// Compare two sorted, deduplicated answer sets (for answers that are
/// already collected, such as a `RunOutcome`'s or the multi-round
/// baseline's).
pub fn diff(expected: &AnswerSet, got: &AnswerSet) -> Verification {
    let mut missing = AnswerSet::new(expected.arity());
    let mut unexpected = AnswerSet::new(got.arity());
    let (mut i, mut j) = (0usize, 0usize);
    while i < expected.len() || j < got.len() {
        let e = (i < expected.len()).then(|| expected.row(i));
        let g = (j < got.len()).then(|| got.row(j));
        match (e, g) {
            (Some(e), Some(g)) => match e.cmp(g) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    missing.push(e);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    unexpected.push(g);
                    j += 1;
                }
            },
            (Some(e), None) => {
                missing.push(e);
                i += 1;
            }
            (None, Some(g)) => {
                unexpected.push(g);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    let found = got.len() - unexpected.len();
    Verification {
        missing,
        unexpected,
        found,
    }
}

/// Outcome of verifying a distributed aggregate against the sequential
/// oracle fold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateVerification {
    /// The sequential Fixed-order oracle fold.
    pub expected: AggregateResult,
    /// The distributed per-server fold, merged.
    pub got: AggregateResult,
}

/// The sequential ground truth: fold the oracle's Fixed-order join of the
/// full database ([`oracle::for_each_binding`]) through one accumulator.
/// Every distributed aggregate is differentially checked against it.
pub fn aggregate_oracle(db: &Database, spec: &AggregateSpec) -> AggregateResult {
    let mut acc = AggregateAccumulator::new(spec);
    oracle::for_each_binding(db, |binding, mult| acc.fold(binding, mult));
    acc.finish()
}

/// Differentially check `spec`'s pushed-down aggregate on a post-shuffle
/// cluster against the sequential oracle fold over `db`.
pub fn verify_aggregate(
    db: &Database,
    cluster: &Cluster,
    spec: &AggregateSpec,
) -> AggregateVerification {
    AggregateVerification {
        expected: aggregate_oracle(db, spec),
        got: aggregate_cluster(cluster, db.query(), spec, &QueryBudget::unlimited())
            .expect("no budget is set"),
    }
}

/// Panic with a readable report unless the cluster is complete. For tests
/// and experiment harnesses.
pub fn assert_complete(db: &Database, cluster: &Cluster) {
    let v = verify(db, cluster);
    assert!(
        v.is_complete(),
        "algorithm incomplete: {} answers missing (first: {:?}), {} unexpected, {} found",
        v.missing.len(),
        v.missing.first(),
        v.unexpected.len(),
        v.found
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Database, Rng};
    use mpc_query::named;
    use mpc_sim::cluster::{BroadcastRouter, Cluster};

    fn db() -> Database {
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(1);
        let n = 256u64;
        let s1 = generators::uniform("S1", 2, 300, n, &mut rng);
        let s2 = generators::uniform("S2", 2, 300, n, &mut rng);
        Database::new(q, vec![s1, s2], n).unwrap()
    }

    #[test]
    fn broadcast_verifies_complete() {
        let db = db();
        let cluster = Cluster::run_round(&db, 4, &BroadcastRouter { p: 4 });
        let v = verify(&db, &cluster);
        assert!(v.is_complete());
        assert!(v.found > 0);
    }

    #[test]
    fn dropping_detected_as_missing() {
        let db = db();
        // Router that keeps only half of S1.
        let router = |atom: usize, tuple: &[u64], out: &mut Vec<usize>| {
            if atom == 1 || tuple[0].is_multiple_of(2) {
                out.push(0);
            }
        };
        let cluster = Cluster::run_round(&db, 2, &router);
        let v = verify(&db, &cluster);
        assert!(!v.missing.is_empty());
        assert!(v.unexpected.is_empty());
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn assert_complete_panics_on_loss() {
        let db = db();
        let router = |atom: usize, _: &[u64], out: &mut Vec<usize>| {
            if atom == 0 {
                out.push(0);
            }
        };
        let cluster = Cluster::run_round(&db, 2, &router);
        assert_complete(&db, &cluster);
    }
}
