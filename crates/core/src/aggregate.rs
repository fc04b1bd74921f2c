//! Streaming aggregate pushdown: COUNT / SUM / MIN / MAX / COUNT DISTINCT
//! evaluated *inside* each server's local join, never materializing the
//! answers.
//!
//! The paper's cost model charges communication, and for an aggregate
//! query the answer rows never need to cross the wire at all: routing is
//! identical to the materializing path (same algorithm, same load), only
//! collection differs. Each server folds its local join's bindings — via
//! the multiplicity-aware emit of
//! [`mpc_data::Join::for_each`] — into a per-group
//! [`AggregateAccumulator`], and the per-server accumulators are merged
//! ([`Mergeable`]) into one [`AggregateResult`]. Memory is proportional
//! to the number of *groups*, not output rows — the entire point on
//! join-product-skew workloads where `|output| ≫ |inputs|`.
//!
//! **Exactness.** Semantics are bag (SQL) semantics over join
//! *derivations* (combinations of body tuples). The aggregate path is
//! restricted to plans that partition the derivation multiset across
//! servers — each derivation's tuples meet at exactly one server — so
//! summing per-server folds of a derivation-additive aggregate is exact,
//! even when one binding's derivations split across servers (e.g. a heavy
//! hitter's rows spread over a skew-join row block). HyperCube (a
//! derivation is one grid cell), hash join, fragment-replicate, and the
//! §4.1 skew join (every virtual block is at most `p` long, so the
//! round-robin fold is injective within it) all qualify. Two do not and
//! are excluded ([`Algorithm::partitions_derivations`] is the one
//! predicate, [`AGGREGATE_NEEDS_PARTITIONING`] the one refusal): the
//! multi-round baseline has no per-derivation fold over its rounds, and
//! the §4.2 general algorithm replicates a derivation across overlapping
//! bin-combination sub-instances — auto planning falls back to
//! skew-resilient equal shares for aggregates instead.
//!
//! [`Algorithm::partitions_derivations`]: crate::engine::Algorithm::partitions_derivations
//! [`AGGREGATE_NEEDS_PARTITIONING`]: crate::engine::AGGREGATE_NEEDS_PARTITIONING
//!
//! ```
//! use mpc_core::engine::Engine;
//! use mpc_core::verify::aggregate_oracle;
//! use mpc_data::{generators, Database, Rng};
//! use mpc_query::parse_aggregate_query;
//!
//! let (q, spec) = parse_aggregate_query("Q(x; count) :- S1(x,z), S2(y,z)").unwrap();
//! let spec = spec.unwrap();
//! let mut rng = Rng::seed_from_u64(1);
//! let s1 = generators::uniform("S1", 2, 300, 64, &mut rng);
//! let s2 = generators::uniform("S2", 2, 300, 64, &mut rng);
//! let db = Database::new(q.clone(), vec![s1, s2], 64).unwrap();
//!
//! let outcome = Engine::new(&q).p(8).aggregate(spec.clone()).run(&db);
//! assert_eq!(outcome.aggregate(), Some(&aggregate_oracle(&db, &spec)));
//! ```

use mpc_data::budget::{BudgetExceeded, QueryBudget};
use mpc_data::fastmap::{with_projected_key, FastMap, FastSet};
use mpc_query::aggregate::{AggregateOp, AggregateSpec};
use mpc_query::Query;
use mpc_sim::cluster::Cluster;
use std::fmt;

/// Anything that can absorb a peer built under the same spec — the merge
/// half of per-server aggregate folding. Merging must be commutative and
/// associative so the result is independent of server chunking (the
/// cluster still delivers chunks in server order).
pub trait Mergeable {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// One op's running state inside a group. The operand variable is baked
/// in so the hot fold never consults the spec.
#[derive(Clone, Debug)]
enum OpState {
    Count(u64),
    Sum(usize, u128),
    Min(usize, u64),
    Max(usize, u64),
    Distinct(usize, FastSet<u64>),
}

impl OpState {
    fn new(op: AggregateOp) -> OpState {
        match op {
            AggregateOp::Count => OpState::Count(0),
            AggregateOp::Sum(v) => OpState::Sum(v, 0),
            // A group only exists once a derivation arrives, so the
            // identities are never observed.
            AggregateOp::Min(v) => OpState::Min(v, u64::MAX),
            AggregateOp::Max(v) => OpState::Max(v, 0),
            AggregateOp::CountDistinct(v) => OpState::Distinct(v, FastSet::default()),
        }
    }

    #[inline]
    fn update(&mut self, binding: &[u64], mult: u64) {
        match self {
            OpState::Count(c) => *c += mult,
            OpState::Sum(v, s) => *s += mult as u128 * binding[*v] as u128,
            OpState::Min(v, m) => *m = (*m).min(binding[*v]),
            OpState::Max(v, m) => *m = (*m).max(binding[*v]),
            OpState::Distinct(v, set) => {
                set.insert(binding[*v]);
            }
        }
    }

    fn merge(&mut self, other: OpState) {
        match (self, other) {
            (OpState::Count(a), OpState::Count(b)) => *a += b,
            (OpState::Sum(_, a), OpState::Sum(_, b)) => *a += b,
            (OpState::Min(_, a), OpState::Min(_, b)) => *a = (*a).min(b),
            (OpState::Max(_, a), OpState::Max(_, b)) => *a = (*a).max(b),
            (OpState::Distinct(_, a), OpState::Distinct(_, b)) => a.extend(b),
            _ => unreachable!("merged accumulators share one spec"),
        }
    }

    fn value(&self) -> u128 {
        match self {
            OpState::Count(c) => *c as u128,
            OpState::Sum(_, s) => *s,
            OpState::Min(_, m) => *m as u128,
            OpState::Max(_, m) => *m as u128,
            OpState::Distinct(_, set) => set.len() as u128,
        }
    }
}

/// A per-server (or sequential) streaming accumulator: one
/// [`FastMap`] entry per observed group, each holding one op state per
/// op. Feed it bindings via [`AggregateAccumulator::fold`], merge peers
/// via [`Mergeable::merge`], then [`AggregateAccumulator::finish`].
pub struct AggregateAccumulator {
    group_by: Vec<usize>,
    ops: Vec<AggregateOp>,
    groups: FastMap<Vec<u64>, Vec<OpState>>,
}

impl AggregateAccumulator {
    /// A fresh accumulator for `spec`.
    pub fn new(spec: &AggregateSpec) -> AggregateAccumulator {
        AggregateAccumulator {
            group_by: spec.group_by().to_vec(),
            ops: spec.ops().to_vec(),
            groups: FastMap::default(),
        }
    }

    /// Absorb one distinct binding with its derivation multiplicity (the
    /// `Join::for_each` emit signature). The hot path probes with a
    /// stack-projected key and heap-allocates only when a new group
    /// appears, so folding stays `Θ(groups)` allocations even when the
    /// derivation count is enormous.
    #[inline]
    pub fn fold(&mut self, binding: &[u64], mult: u64) {
        if mult == 0 {
            return;
        }
        let groups = &mut self.groups;
        let ops = &self.ops;
        with_projected_key(binding, &self.group_by, |key| {
            if let Some(states) = groups.get_mut(key) {
                for st in states {
                    st.update(binding, mult);
                }
            } else {
                let mut states: Vec<OpState> = ops.iter().map(|&op| OpState::new(op)).collect();
                for st in &mut states {
                    st.update(binding, mult);
                }
                groups.insert(key.to_vec(), states);
            }
        });
    }

    /// Number of groups observed so far.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Finalize into a sorted, comparable [`AggregateResult`].
    pub fn finish(self) -> AggregateResult {
        let mut rows: Vec<(Vec<u64>, Vec<u128>)> = self
            .groups
            .into_iter()
            .map(|(key, states)| (key, states.iter().map(OpState::value).collect()))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        AggregateResult {
            group_arity: self.group_by.len(),
            ops: self.ops,
            rows,
        }
    }
}

impl Mergeable for AggregateAccumulator {
    fn merge(&mut self, other: AggregateAccumulator) {
        for (key, states) in other.groups {
            match self.groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (mine, theirs) in e.get_mut().iter_mut().zip(states) {
                        mine.merge(theirs);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(states);
                }
            }
        }
    }
}

/// A finalized aggregate answer: one row per group, sorted by group key,
/// each row carrying one value per op (in spec order; COUNT DISTINCT
/// reports the distinct count). Values are `u128` so SUM over a huge
/// output cannot overflow. `Eq` so differential checks compare whole
/// results bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateResult {
    group_arity: usize,
    ops: Vec<AggregateOp>,
    rows: Vec<(Vec<u64>, Vec<u128>)>,
}

impl AggregateResult {
    /// Number of groups (rows).
    pub fn num_groups(&self) -> usize {
        self.rows.len()
    }

    /// Width of the group key (0 for a global aggregate).
    pub fn group_arity(&self) -> usize {
        self.group_arity
    }

    /// The ops each row's values correspond to, in order.
    pub fn ops(&self) -> &[AggregateOp] {
        &self.ops
    }

    /// The `(group key, values)` rows, sorted by group key.
    pub fn rows(&self) -> &[(Vec<u64>, Vec<u128>)] {
        &self.rows
    }

    /// The values for one group key, if present.
    pub fn get(&self, key: &[u64]) -> Option<&[u128]> {
        self.rows
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| self.rows[i].1.as_slice())
    }
}

/// One space-separated line per group: the key values, then `|`, then the
/// aggregate values — the shape the wire protocol echoes.
impl fmt::Display for AggregateResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (key, values)) in self.rows.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            for k in key {
                write!(f, "{k} ")?;
            }
            write!(f, "|")?;
            for v in values {
                write!(f, " {v}")?;
            }
        }
        Ok(())
    }
}

/// Fold `query`'s distributed answers on a post-shuffle cluster: each
/// server's local join streams into its own accumulator (in parallel on
/// the cluster's backend), and the per-server states merge in server
/// order. Bit-identical across `Sequential`/`Pooled(n)` because
/// every merge op is commutative and exact.
///
/// Each per-server fold charges its group count against `budget`'s group
/// cap as groups appear (per-worker counts undercount the global union,
/// but the merge re-checks the union, so the cap is enforced exactly
/// before any result is returned), and the underlying joins poll the
/// deadline; pass [`QueryBudget::unlimited`] for none of that.
pub fn aggregate_cluster(
    cluster: &Cluster,
    query: &Query,
    spec: &AggregateSpec,
    budget: &QueryBudget,
) -> Result<AggregateResult, BudgetExceeded> {
    let parts = cluster.fold_answers(
        query,
        budget,
        || AggregateAccumulator::new(spec),
        |acc, binding, mult| {
            acc.fold(binding, mult);
            budget.check_groups(acc.num_groups() as u64)
        },
    )?;
    let mut merged = AggregateAccumulator::new(spec);
    for part in parts {
        merged.merge(part);
        budget.check_groups(merged.num_groups() as u64)?;
    }
    Ok(merged.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::aggregate_oracle;
    use mpc_data::{generators, Database, Join, Relation, Rng};
    use mpc_query::aggregate::AggregateOp;
    use mpc_query::named;

    fn manual_fold(db: &Database, spec: &AggregateSpec) -> AggregateResult {
        // Reference fold over the *materialized* multiset of answers —
        // slow, obviously correct.
        let mut acc = AggregateAccumulator::new(spec);
        Join::of(db)
            .for_each(|binding, mult| {
                // Expand multiplicities one by one: same result, different path.
                for _ in 0..mult {
                    acc.fold(binding, 1);
                }
            })
            .unwrap();
        acc.finish()
    }

    fn join_db(m: usize, seed: u64) -> Database {
        let q = named::two_way_join();
        let n = 1u64 << 10;
        let mut rng = Rng::seed_from_u64(seed);
        let s1 = generators::uniform("S1", 2, m, n, &mut rng);
        let s2 = generators::uniform("S2", 2, m, n, &mut rng);
        Database::new(q, vec![s1, s2], n).unwrap()
    }

    fn full_spec(db: &Database) -> AggregateSpec {
        let q = db.query();
        AggregateSpec::new(
            vec![0],
            vec![
                AggregateOp::Count,
                AggregateOp::Sum(q.num_vars() - 1),
                AggregateOp::Min(q.num_vars() - 1),
                AggregateOp::Max(q.num_vars() - 1),
                AggregateOp::CountDistinct(q.num_vars() - 1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn oracle_matches_multiplicity_expanded_fold() {
        let db = join_db(600, 1);
        let spec = full_spec(&db);
        assert_eq!(aggregate_oracle(&db, &spec), manual_fold(&db, &spec));
    }

    #[test]
    fn count_star_equals_answer_multiset_size() {
        let db = join_db(500, 2);
        let spec = AggregateSpec::new(vec![], vec![AggregateOp::Count]).unwrap();
        let result = aggregate_oracle(&db, &spec);
        let total = Join::of(&db).count().unwrap() as u128;
        assert_eq!(result.num_groups(), 1);
        assert_eq!(result.get(&[]), Some(&[total][..]));
    }

    #[test]
    fn merge_partitions_arbitrarily() {
        // Folding a stream split across k accumulators and merging must
        // equal the one-accumulator fold, for every split point.
        let spec = AggregateSpec::new(
            vec![0],
            vec![
                AggregateOp::Count,
                AggregateOp::Sum(1),
                AggregateOp::Min(1),
                AggregateOp::Max(1),
                AggregateOp::CountDistinct(1),
            ],
        )
        .unwrap();
        let stream: Vec<(Vec<u64>, u64)> = (0..100u64)
            .map(|i| (vec![i % 7, i * 31 % 13], 1 + i % 3))
            .collect();
        let mut whole = AggregateAccumulator::new(&spec);
        for (b, m) in &stream {
            whole.fold(b, *m);
        }
        let expected = whole.finish();
        for split in [0usize, 1, 50, 99, 100] {
            let mut a = AggregateAccumulator::new(&spec);
            let mut b = AggregateAccumulator::new(&spec);
            for (i, (row, m)) in stream.iter().enumerate() {
                if i < split {
                    a.fold(row, *m);
                } else {
                    b.fold(row, *m);
                }
            }
            a.merge(b);
            assert_eq!(a.finish(), expected, "split at {split}");
        }
    }

    #[test]
    fn zero_multiplicity_creates_no_group() {
        let spec = AggregateSpec::new(vec![0], vec![AggregateOp::Count]).unwrap();
        let mut acc = AggregateAccumulator::new(&spec);
        acc.fold(&[1, 2], 0);
        assert_eq!(acc.num_groups(), 0);
        assert_eq!(acc.finish().num_groups(), 0);
    }

    #[test]
    fn sum_accumulates_in_u128() {
        let spec = AggregateSpec::new(vec![], vec![AggregateOp::Sum(0)]).unwrap();
        let mut acc = AggregateAccumulator::new(&spec);
        // u64::MAX × 4 overflows u64 but not u128.
        acc.fold(&[u64::MAX], 4);
        let result = acc.finish();
        assert_eq!(result.get(&[]), Some(&[u64::MAX as u128 * 4][..]));
    }

    #[test]
    fn result_rows_are_sorted_and_displayed() {
        let spec = AggregateSpec::new(vec![0], vec![AggregateOp::Count]).unwrap();
        let mut acc = AggregateAccumulator::new(&spec);
        for key in [9u64, 3, 7, 3] {
            acc.fold(&[key, 0], 2);
        }
        let result = acc.finish();
        let keys: Vec<u64> = result.rows().iter().map(|(k, _)| k[0]).collect();
        assert_eq!(keys, vec![3, 7, 9]);
        assert_eq!(result.get(&[3]), Some(&[4u128][..]));
        assert_eq!(result.get(&[4]), None);
        assert_eq!(result.to_string(), "3 | 4\n7 | 2\n9 | 2");
    }

    #[test]
    fn empty_join_yields_empty_result() {
        let q = named::two_way_join();
        let s1 = Relation::from_rows("S1", 2, &[&[1, 2]]);
        let s2 = Relation::from_rows("S2", 2, &[&[3, 4]]); // no shared z
        let db = Database::new(q, vec![s1, s2], 16).unwrap();
        let spec = AggregateSpec::new(vec![], vec![AggregateOp::Count]).unwrap();
        let result = aggregate_oracle(&db, &spec);
        // Under bag semantics an empty join has no groups — even the
        // global COUNT reports no row (the service layer renders 0 rows).
        assert_eq!(result.num_groups(), 0);
        assert_eq!(result.to_string(), "");
    }
}
