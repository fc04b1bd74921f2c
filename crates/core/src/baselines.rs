//! Baseline one-round algorithms the paper compares against, driven by the
//! experiments and tests, not the engine.
//!
//! * [`HashJoinRouter`] — the standard parallel hash join: partition every
//!   relation by a hash of a chosen variable set. Atoms missing some of the
//!   partition variables are broadcast (otherwise answers would be lost).
//!   On skew-free data this is optimal for `τ* = 1` queries; on skewed data
//!   its load degrades to `Ω(m)` (Example 3.3), which is the paper's
//!   motivating failure.
//! * [`FragmentReplicateRouter`] — footnote 1's broadcast join, generalized
//!   to any number of atoms: split one (the largest) relation evenly and
//!   replicate every other relation everywhere. With two atoms that is
//!   "broadcast the small one, split the other"; splitting more than one
//!   atom independently would lose answers.

use mpc_data::catalog::Database;
use mpc_data::mix64;
use mpc_query::{Query, VarSet};
use mpc_sim::backend::Backend;
use mpc_sim::cluster::{Cluster, Router};
use mpc_sim::load::LoadReport;
use mpc_sim::placement::Placement;

/// Partition by hash of the values of `vars`; broadcast atoms that do not
/// contain all of `vars`.
pub struct HashJoinRouter {
    /// Number of servers.
    pub p: usize,
    /// Per-atom attribute positions of the partition variables (`None` =
    /// broadcast this atom).
    plan: Vec<Option<Vec<usize>>>,
    key: u64,
}

impl HashJoinRouter {
    /// Build for `query`, partitioning on `vars` (usually the shared join
    /// variables). `seed` keys the hash function.
    pub fn new(query: &Query, vars: VarSet, p: usize, seed: u64) -> HashJoinRouter {
        assert!(!vars.is_empty(), "hash join needs at least one variable");
        let plan = query
            .atoms()
            .iter()
            .map(|a| {
                if vars.is_subset(a.var_set()) {
                    Some(
                        vars.iter()
                            .map(|v| a.position_of_var(v).expect("subset checked"))
                            .collect(),
                    )
                } else {
                    None
                }
            })
            .collect();
        HashJoinRouter {
            p,
            plan,
            key: mix64(seed, 0x9E3779B97F4A7C15),
        }
    }

    /// Execute the round on `db` with an explicit execution backend
    /// (mirrors [`crate::hypercube::HyperCube::run_on`]; results are
    /// bit-identical across `Sequential` and `Threads(n)`).
    pub fn run_on(&self, db: &Database, backend: Backend) -> (Cluster, LoadReport) {
        let cluster = Cluster::run_round_on(db, &Placement::identity(self.p), self, backend);
        let report = cluster.report();
        (cluster, report)
    }
}

impl Router for HashJoinRouter {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        match &self.plan[atom] {
            Some(cols) => {
                let mut h = self.key;
                for &c in cols {
                    h = mix64(tuple[c], h);
                }
                out.push((h % self.p as u64) as usize);
            }
            None => out.extend(0..self.p),
        }
    }
}

/// Split one atom's relation evenly by a hash of the whole tuple;
/// broadcast every other atom's relation to every server. Every answer
/// uses exactly one tuple of the split atom, so it is found on exactly the
/// server holding that tuple.
pub struct FragmentReplicateRouter {
    /// Number of servers.
    pub p: usize,
    /// The atom to split.
    pub split_atom: usize,
    key: u64,
}

impl FragmentReplicateRouter {
    /// Build, splitting `split_atom` and broadcasting the rest.
    pub fn new(p: usize, split_atom: usize, seed: u64) -> FragmentReplicateRouter {
        FragmentReplicateRouter {
            p,
            split_atom,
            key: mix64(seed, 0xD6E8_FEB8_6659_FD93),
        }
    }

    /// Execute the round on `db` with an explicit execution backend.
    pub fn run_on(&self, db: &Database, backend: Backend) -> (Cluster, LoadReport) {
        let cluster = Cluster::run_round_on(db, &Placement::identity(self.p), self, backend);
        let report = cluster.report();
        (cluster, report)
    }
}

impl Router for FragmentReplicateRouter {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        if atom == self.split_atom {
            let mut h = self.key;
            for &v in tuple {
                h = mix64(v, h);
            }
            out.push((h % self.p as u64) as usize);
        } else {
            out.extend(0..self.p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Database, Rng};
    use mpc_query::named;
    use mpc_sim::cluster::Cluster;

    fn join_db(m: usize, seed: u64) -> Database {
        let q = named::two_way_join();
        let n = 1u64 << 12;
        let mut rng = Rng::seed_from_u64(seed);
        let s1 = generators::uniform("S1", 2, m, n, &mut rng);
        let s2 = generators::uniform("S2", 2, m, n, &mut rng);
        Database::new(q, vec![s1, s2], n).unwrap()
    }

    fn expect_answers(db: &Database) -> mpc_data::AnswerSet {
        let mut ans = mpc_data::Join::of(db).answers().unwrap();
        ans.sort_dedup();
        ans
    }

    #[test]
    fn hash_join_on_z_is_correct_with_no_replication() {
        let db = join_db(1000, 1);
        let q = db.query().clone();
        let z = q.var_index("z").unwrap();
        let router = HashJoinRouter::new(&q, VarSet::singleton(z), 8, 99);
        let cluster = Cluster::run_round(&db, 8, &router);
        assert_eq!(cluster.all_answers(&q), expect_answers(&db));
        assert!((cluster.report().replication_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hash_join_on_private_var_broadcasts_other_side() {
        // Partitioning on x forces S2 (no x) to broadcast.
        let db = join_db(300, 2);
        let q = db.query().clone();
        let x = q.var_index("x").unwrap();
        let p = 4usize;
        let router = HashJoinRouter::new(&q, VarSet::singleton(x), p, 5);
        let cluster = Cluster::run_round(&db, p, &router);
        assert_eq!(cluster.all_answers(&q), expect_answers(&db));
        let rep = cluster.report();
        // S1 split (300 tuples total), S2 broadcast (300 p times).
        assert_eq!(rep.total_tuples(), 300 + 300 * p as u64);
    }

    #[test]
    fn hash_join_collapses_under_skew() {
        // All z equal: everything lands on one server.
        let q = named::two_way_join();
        let n = 1u64 << 12;
        let m = 1024usize;
        let mut rng = Rng::seed_from_u64(3);
        let s1 = generators::single_value_column("S1", 2, m, n, 1, 7, &mut rng);
        let s2 = generators::single_value_column("S2", 2, m, n, 1, 7, &mut rng);
        let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
        let z = q.var_index("z").unwrap();
        let router = HashJoinRouter::new(&q, VarSet::singleton(z), 16, 4);
        let cluster = Cluster::run_round(&db, 16, &router);
        let rep = cluster.report();
        assert_eq!(rep.max_load_tuples(), 2 * m as u64);
        // Still correct, just catastrophically unbalanced.
        assert_eq!(cluster.all_answers(&q), expect_answers(&db));
    }

    #[test]
    fn fragment_replicate_is_correct() {
        let db = join_db(400, 5);
        let q = db.query().clone();
        let p = 8usize;
        let router = FragmentReplicateRouter::new(p, 0, 11);
        let cluster = Cluster::run_round(&db, p, &router);
        assert_eq!(cluster.all_answers(&q), expect_answers(&db));
        let rep = cluster.report();
        // S1 split once, S2 replicated p times.
        assert_eq!(rep.total_tuples(), 400 + 400 * p as u64);
        // S1 shards are balanced within a generous factor.
        let max0 = rep.max_load_tuples_for_atom(0);
        assert!(max0 < 3 * (400 / p as u64 + 1), "S1 imbalance: {max0}");
    }

    #[test]
    fn fragment_replicate_verifies_on_a_triangle() {
        // With more than two atoms the router splits one relation and
        // broadcasts the rest; splitting two of them used to lose answers
        // (13 300 of these 15 169 triangles missing).
        let q = mpc_query::parse_query("S1(x,y), S2(y,z), S3(z,x)").unwrap();
        let mut rng = Rng::seed_from_u64(1);
        let rels = (q.atoms().iter())
            .map(|a| generators::uniform(a.name(), a.arity(), 2000, 64, &mut rng))
            .collect();
        let db = Database::new(q.clone(), rels, 64).unwrap();
        let router = FragmentReplicateRouter::new(8, 2, 1);
        let expected = mpc_sim::oracle::join_database(&db);
        for backend in [Backend::Sequential, Backend::Threads(2)] {
            let answers = router.run_on(&db, backend).0.all_answers(&q);
            assert_eq!(answers.len(), 15_169, "[{backend}]");
            assert_eq!(answers, expected, "[{backend}]");
        }
    }
}
