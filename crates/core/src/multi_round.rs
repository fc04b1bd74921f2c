//! The traditional multi-round baseline: one hash join per round.
//!
//! The paper's introduction motivates one-round evaluation by contrast with
//! the classical plan: "the traditional approach is to compute one join at
//! a time leading to a number of communication rounds at least as large as
//! the depth of the query plan". This module implements that baseline —
//! a left-deep sequence of distributed hash joins — on the same data plane
//! as the one-round algorithms, so experiments can show the real
//! trade-off:
//!
//! * per-round load can be as low as `~(|input| + |intermediate|)/p`, which
//!   beats one-round HyperCube when intermediates are small;
//! * but intermediates can *blow up* (e.g. length-2 paths while computing
//!   triangles), making later rounds pay `Ω(|intermediate|/p)` — the regime
//!   where one round wins;
//! * and each extra round is a global synchronization the MPC model counts
//!   separately.
//!
//! The join order is greedy: start from the smallest relation, repeatedly
//! fold in the atom sharing variables with the bound set (smallest first).
//!
//! **Every round is a [`Cluster`] round.** Folding atom `S_j` into the
//! running intermediate `I` is the two-atom query `I(bound vars), S_j(..)`:
//! it is shuffled by [`Cluster::try_run_round_on`] under a
//! [`HashJoinRouter`] on the shared variables — or, when there are none, a
//! [`FragmentReplicateRouter`] that splits `I` and broadcasts `S_j` —, its load is read
//! off the cluster's [`LoadReport`](mpc_sim::load::LoadReport), and the
//! next intermediate is the cluster's own per-server local join
//! ([`Cluster::fold_answers`]). Intermediates keep bag semantics (one row
//! per derivation); only the final answers are sorted and deduplicated. A
//! single-atom query is one partition round on the atom's own variables.
//!
//! **Budget.** Every round's shuffle polls the deadline per routed chunk.
//! Intermediates are not answers and are not charged against the row cap;
//! the last round's local join runs under the budget, so the final answers
//! (bag count) are charged once and its deadline is polled in the join.

use crate::baselines::{FragmentReplicateRouter, HashJoinRouter};
use mpc_data::answers::AnswerSet;
use mpc_data::budget::{BudgetExceeded, QueryBudget};
use mpc_data::catalog::Database;
use mpc_data::mix64;
use mpc_data::relation::Relation;
use mpc_query::{Query, VarSet};
use mpc_sim::backend::Backend;
use mpc_sim::cluster::Cluster;
use std::sync::Arc;

/// Load accounting for one round of the multi-round plan.
#[derive(Clone, Debug)]
pub struct RoundStats {
    /// 0-based round number.
    pub round: usize,
    /// The atom folded in this round.
    pub atom: String,
    /// Maximum bits received by any server this round.
    pub max_load_bits: u64,
    /// Total tuples of the intermediate result after the round.
    pub intermediate_tuples: u64,
    /// True when the round had to broadcast (no shared variables).
    pub broadcast: bool,
}

/// Result of running the multi-round baseline.
#[derive(Clone, Debug)]
pub struct MultiRoundResult {
    /// Per-round statistics, in execution order (`max(ℓ - 1, 1)` rounds).
    pub rounds: Vec<RoundStats>,
    /// The final answers (sorted, deduplicated, in query-variable order,
    /// flat [`AnswerSet`] storage).
    pub answers: AnswerSet,
    /// The bound variables after completion (always all query variables).
    pub bound_vars: VarSet,
}

impl MultiRoundResult {
    /// The maximum per-round load (the MPC model's per-round cost).
    pub fn max_round_load_bits(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.max_load_bits)
            .max()
            .unwrap_or(0)
    }

    /// Number of communication rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The largest intermediate result produced.
    pub fn max_intermediate_tuples(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.intermediate_tuples)
            .max()
            .unwrap_or(0)
    }
}

/// Greedy left-deep atom order: smallest relation first, then the connected
/// atom with the smallest relation (disconnected atoms last).
fn plan_order(q: &Query, db: &Database) -> Vec<usize> {
    let l = q.num_atoms();
    let mut remaining: Vec<usize> = (0..l).collect();
    remaining.sort_by_key(|&j| db.relation(j).len());
    let mut order = vec![remaining.remove(0)];
    let mut bound = q.atom(order[0]).var_set();
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|&j| !q.atom(j).var_set().intersect(bound).is_empty())
            .unwrap_or(0);
        let j = remaining.remove(pos);
        bound = bound.union(q.atom(j).var_set());
        order.push(j);
    }
    order
}

/// Execute the multi-round baseline on `p` servers. Loads are measured in
/// bits with the database's value width by the same [`Cluster`] accounting
/// as the one-round algorithms, and results — answers and every
/// [`RoundStats`] — are identical across backends. See the
/// [module docs](self) for what `budget` is and is not charged.
/// `Engine::new(q).algorithm(Algorithm::MultiRound)` is the planned front.
pub fn run_multi_round(
    db: &Database,
    p: usize,
    seed: u64,
    backend: Backend,
    budget: &QueryBudget,
) -> Result<MultiRoundResult, BudgetExceeded> {
    assert!(p >= 1);
    let q = db.query();
    let order = plan_order(q, db);
    // The left side of the left-deep plan: a relation (the first atom's
    // own, shared, until a round replaces it with an intermediate that
    // keeps its name — no self-joins, so the name never collides) and the
    // query variable each of its columns carries.
    let name = q.atom(order[0]).name();
    let mut left: Arc<Relation> = db.relations()[order[0]].clone();
    let mut left_vars: Vec<usize> = q.atom(order[0]).vars().to_vec();
    let names_of = |vars: &[usize]| -> Vec<&str> { vars.iter().map(|&v| q.var_name(v)).collect() };

    let num_rounds = (order.len() - 1).max(1);
    let unlimited = QueryBudget::unlimited();
    let mut rounds = Vec::with_capacity(num_rounds);
    for round in 0..num_rounds {
        // The round's query: the left side and the atom folded into it
        // (none only for a single-atom query — one partition round).
        let mut named = vec![(name, names_of(&left_vars))];
        let mut relations = vec![left];
        if let Some(&j) = order.get(round + 1) {
            named.push((q.atom(j).name(), names_of(q.atom(j).vars())));
            relations.push(db.relations()[j].clone());
        }
        let atoms: Vec<(&str, &[&str])> = named.iter().map(|(n, vs)| (*n, &vs[..])).collect();
        let round_query = Query::build("round", &atoms).expect("atoms of a valid query");
        let round_db = Database::from_shared(round_query, relations, db.domain())
            .expect("arities follow the atoms");
        let round_query = round_db.query();

        // Partition on the variables every atom of the round has; with
        // none, split the left side and broadcast the folded atom.
        let shared = (round_query.atoms().iter().map(|a| a.var_set()))
            .reduce(VarSet::intersect)
            .expect("a round has atoms");
        let key = mix64(seed, round as u64);
        let cluster = if shared.is_empty() {
            let router = FragmentReplicateRouter::new(p, 0, key);
            Cluster::try_run_round_on(&round_db, p, &router, backend, budget)?
        } else {
            let router = HashJoinRouter::new(round_query, shared, p, key);
            Cluster::try_run_round_on(&round_db, p, &router, backend, budget)?
        };

        // The next intermediate: every server's local join, one row per
        // derivation. Only the last round's rows are answers.
        let arity = round_query.num_vars();
        let last = round + 1 == num_rounds;
        let parts = cluster.fold_answers(
            round_query,
            if last { budget } else { &unlimited },
            || Relation::new(name, arity),
            |out, row, mult| {
                for _ in 0..mult {
                    out.push(row);
                }
                Ok(())
            },
        )?;
        let mut next = Relation::new(name, arity);
        for part in parts {
            next.append(part);
        }

        rounds.push(RoundStats {
            round,
            atom: atoms[atoms.len() - 1].0.to_string(),
            max_load_bits: cluster.report().max_load_bits(),
            intermediate_tuples: next.len() as u64,
            broadcast: shared.is_empty(),
        });
        left_vars = (0..arity)
            .map(|v| q.var_index(round_query.var_name(v)).expect("same names"))
            .collect();
        left = Arc::new(next);
    }

    // Collect final answers flat, in query-variable order.
    let perm: Vec<usize> = (0..q.num_vars())
        .map(|v| left_vars.iter().position(|&w| w == v).expect("full query"))
        .collect();
    let mut answers = AnswerSet::with_capacity(q.num_vars(), left.len());
    let mut row_buf = vec![0u64; q.num_vars()];
    for row in left.rows() {
        for (slot, &i) in row_buf.iter_mut().zip(&perm) {
            *slot = row[i];
        }
        answers.push(&row_buf);
    }
    answers.sort_dedup();

    Ok(MultiRoundResult {
        rounds,
        answers,
        bound_vars: q.all_vars(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Rng};
    use mpc_query::named;

    fn run(db: &Database, p: usize, seed: u64) -> MultiRoundResult {
        run_multi_round(db, p, seed, Backend::from_env(), &QueryBudget::unlimited())
            .expect("no budget is set")
    }

    fn is_complete(db: &Database, result: &MultiRoundResult) -> bool {
        mpc_sim::oracle::join_database_on(db, Backend::from_env()) == result.answers
    }

    fn uniform_db(q: &Query, m: usize, n: u64, seed: u64) -> Database {
        let mut rng = Rng::seed_from_u64(seed);
        let rels = q
            .atoms()
            .iter()
            .map(|a| generators::uniform(a.name(), a.arity(), m, n, &mut rng))
            .collect();
        Database::new(q.clone(), rels, n).unwrap()
    }

    #[test]
    fn two_way_join_single_round() {
        let q = named::two_way_join();
        let db = uniform_db(&q, 1500, 1 << 10, 1);
        let result = run(&db, 8, 42);
        assert_eq!(result.num_rounds(), 1);
        assert!(!result.rounds[0].broadcast);
        assert!(is_complete(&db, &result));
    }

    #[test]
    fn triangle_takes_two_rounds() {
        let q = named::cycle(3);
        let db = uniform_db(&q, 800, 128, 2);
        let result = run(&db, 8, 7);
        assert_eq!(result.num_rounds(), 2);
        assert!(is_complete(&db, &result));
        // The intermediate (length-2 paths) is bigger than the input —
        // the blow-up the paper's one-round approach avoids storing.
        assert!(result.max_intermediate_tuples() > 800);
    }

    #[test]
    fn chain_4_takes_three_rounds() {
        let q = named::chain(4);
        let db = uniform_db(&q, 800, 256, 3);
        let result = run(&db, 8, 9);
        assert_eq!(result.num_rounds(), 3);
        assert!(is_complete(&db, &result));
    }

    #[test]
    fn cartesian_uses_broadcast_rounds() {
        let q = named::cartesian(2);
        let n = 1u64 << 10;
        let mut rng = Rng::seed_from_u64(4);
        let s1 = generators::uniform_set("S1", 1, 200, n, &mut rng);
        let s2 = generators::uniform_set("S2", 1, 150, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        let result = run(&db, 4, 11);
        assert_eq!(result.num_rounds(), 1);
        assert!(result.rounds[0].broadcast);
        assert!(is_complete(&db, &result));
        assert_eq!(result.answers.len() as u64, 200 * 150);
    }

    #[test]
    fn star_join_correct() {
        let q = named::star(3);
        let db = uniform_db(&q, 600, 64, 5);
        let result = run(&db, 8, 13);
        assert_eq!(result.num_rounds(), 2);
        assert!(is_complete(&db, &result));
    }

    #[test]
    fn loads_are_positive_and_bounded() {
        let q = named::cycle(3);
        let db = uniform_db(&q, 500, 64, 6);
        let p = 8usize;
        let result = run(&db, p, 15);
        for r in &result.rounds {
            assert!(r.max_load_bits > 0);
        }
        // Round loads can exceed the input (intermediate blow-up) but are
        // bounded by intermediate + relation sizes.
        let bits = db.value_bits() as u64;
        let cap: u64 = result.max_intermediate_tuples() * 3 * bits + db.total_bits();
        assert!(result.max_round_load_bits() <= cap);
    }

    #[test]
    fn single_atom_is_one_partition_round() {
        // ℓ = 1: one round that hash-partitions the atom on its own
        // variables, with its load counted like any other round's — and
        // S(x,x) keeps only the tuples whose repeated variable agrees.
        let q = Query::build("q", &[("S", &["x", "x"])]).unwrap();
        let s = Relation::from_rows("S", 2, &[&[1, 1], &[2, 3], &[4, 4], &[4, 4]]);
        let db = Database::new(q, vec![s], 16).unwrap();
        let result = run(&db, 4, 3);
        assert_eq!(result.num_rounds(), 1);
        assert!(!result.rounds[0].broadcast);
        assert_eq!(result.rounds[0].atom, "S");
        assert_eq!(result.rounds[0].intermediate_tuples, 3, "bag: (4,4) twice");
        assert!(result.rounds[0].max_load_bits >= 2 * db.value_bits() as u64);
        assert_eq!(result.answers, vec![vec![1], vec![4]]);
    }

    #[test]
    fn skewed_join_collapses_like_hash_join() {
        // The multi-round baseline inherits the hash join's skew collapse:
        // all z equal -> one server receives everything in round 0.
        let q = named::two_way_join();
        let n = 1u64 << 10;
        let m = 1024usize;
        let mut rng = Rng::seed_from_u64(7);
        let s1 = generators::single_value_column("S1", 2, m, n, 1, 5, &mut rng);
        let s2 = generators::single_value_column("S2", 2, m, n, 1, 5, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        let result = run(&db, 16, 17);
        assert!(is_complete(&db, &result));
        let bits = db.value_bits() as u64;
        // Everything (both relations) funnels into one server.
        assert_eq!(result.rounds[0].max_load_bits, 2 * m as u64 * 2 * bits);
    }
}
