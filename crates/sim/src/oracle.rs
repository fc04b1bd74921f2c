//! Parallel ground-truth join.
//!
//! Verification compares every distributed answer set against the
//! sequential join of the input, which under the `--ignored` stress suite
//! is the slowest single step. This module evaluates the ground truth on an
//! execution [`Backend`]: the join is hash-partitioned on a shared variable
//! ([`mpc_data::join::partition_join`]) and the independent buckets run
//! through the same [`Backend::run_chunks`] primitive as the simulator —
//! including the persistent pool. The result is sorted and deduplicated,
//! and is identical to the sequential oracle for every backend.
//!
//! The oracle deliberately evaluates with [`JoinOrder::Fixed`] — the legacy
//! greedy atom order — while the simulated servers run the default dynamic
//! cardinality-guided ordering, so every verification pass doubles as a
//! dynamic-vs-fixed differential on the two engines' answer sets.

use crate::backend::Backend;
use mpc_data::answers::AnswerSet;
use mpc_data::catalog::Database;
use mpc_data::join::{partition_join, Join, JoinOrder};
use mpc_data::relation::Relation;
use mpc_query::Query;

/// Buckets per worker: oversplitting only pays off because the buckets run
/// through [`Backend::run_items`] — each bucket is a separate
/// queue-scheduled pool job, so a heavy bucket (a skewed join key sends
/// all its work to one bucket) occupies one worker while the others drain
/// the remaining small buckets.
const BUCKETS_PER_WORKER: usize = 4;

/// The ground-truth answer set of `query` over `relations`, sorted and
/// deduplicated, computed on `backend`. Rows are collected flat
/// ([`AnswerSet`]) on every path — one arena per bucket, not one `Vec` per
/// answer.
pub fn join_on(query: &Query, relations: &[&Relation], backend: Backend) -> AnswerSet {
    let workers = backend.threads();
    let fixed = |join: Join<'_>| {
        join.order(JoinOrder::Fixed)
            .answers()
            .expect("no budget is set")
    };
    let mut answers: AnswerSet = if workers <= 1 {
        fixed(Join::new(query, relations))
    } else {
        let parts = partition_join(query, relations, workers * BUCKETS_PER_WORKER);
        let buckets = backend.run_items(parts.num_buckets(), |b| fixed(parts.bucket(b)));
        let mut merged = AnswerSet::new(query.num_vars());
        for bucket in buckets {
            merged.append(bucket);
        }
        merged
    };
    answers.sort_dedup();
    answers
}

/// [`join_on`] over a whole [`Database`].
pub fn join_database_on(db: &Database, backend: Backend) -> AnswerSet {
    let rels: Vec<&Relation> = db.relations().iter().map(|r| r.as_ref()).collect();
    join_on(db.query(), &rels, backend)
}

/// Stream the sequential Fixed-order join of `db` into `emit`: every
/// distinct binding once, with its derivation multiplicity. The ground
/// truth distributed aggregates are folded against
/// (`mpc_core::verify::aggregate_oracle`).
pub fn for_each_binding(db: &Database, emit: impl FnMut(&[u64], u64)) {
    Join::of(db)
        .order(JoinOrder::Fixed)
        .for_each(emit)
        .expect("no budget is set");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Rng};
    use mpc_query::named;

    fn sequential_oracle(db: &Database) -> AnswerSet {
        let mut ans = Join::of(db).answers().unwrap();
        ans.sort_dedup();
        ans
    }

    #[test]
    fn parallel_oracle_matches_sequential_for_every_backend() {
        let q = named::two_way_join();
        let n = 1u64 << 9;
        let mut rng = Rng::seed_from_u64(0x0AC1E);
        let s1 = generators::uniform("S1", 2, 1200, n, &mut rng);
        let s2 = generators::uniform("S2", 2, 1200, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        let expected = sequential_oracle(&db);
        assert!(!expected.is_empty());
        for backend in [
            Backend::Sequential,
            Backend::Pooled(2),
            Backend::Pooled(8),
            Backend::Pooled(4),
        ] {
            assert_eq!(join_database_on(&db, backend), expected, "{backend}");
        }
    }

    #[test]
    fn parallel_oracle_matches_on_triangles() {
        let q = named::cycle(3);
        let n = 1u64 << 6;
        let mut rng = Rng::seed_from_u64(77);
        let rels: Vec<_> = q
            .atoms()
            .iter()
            .map(|a| generators::uniform(a.name(), a.arity(), 400, n, &mut rng))
            .collect();
        let db = Database::new(q, rels, n).unwrap();
        let expected = sequential_oracle(&db);
        assert_eq!(join_database_on(&db, Backend::Pooled(4)), expected);
    }
}
