//! The traditional multi-round baseline: one hash join per round.
//!
//! The paper's introduction motivates one-round evaluation by contrast with
//! the classical plan: "the traditional approach is to compute one join at
//! a time leading to a number of communication rounds at least as large as
//! the depth of the query plan". This module implements that baseline —
//! a left-deep sequence of distributed hash joins — with the same exact
//! load accounting as the one-round algorithms, so experiments can show the
//! real trade-off:
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
//! fold in the atom sharing variables with the bound set (smallest first);
//! disconnected atoms trigger a broadcast (fragment-replicate) round.

use mpc_data::answers::AnswerSet;
use mpc_data::budget::{BudgetExceeded, QueryBudget};
use mpc_data::catalog::Database;
use mpc_data::mix64;
use mpc_query::{Query, VarSet};
use mpc_sim::backend::Backend;
use std::collections::HashMap;

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
    /// Per-round statistics, in execution order (`ℓ - 1` rounds).
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

/// A distributed intermediate result: fragments per server, rows over
/// `vars` (in `vars.iter()` order).
struct Intermediate {
    vars: Vec<usize>,
    fragments: Vec<Vec<Vec<u64>>>,
}

impl Intermediate {
    fn total_tuples(&self) -> u64 {
        self.fragments.iter().map(|f| f.len() as u64).sum()
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

/// Execute the multi-round baseline on `p` servers with the
/// [`Backend::from_env`] backend. Loads are measured in bits with the
/// database's value width, exactly like the one-round algorithms.
pub fn run_multi_round(db: &Database, p: usize, seed: u64) -> MultiRoundResult {
    run_multi_round_on(db, p, seed, Backend::from_env())
}

/// [`run_multi_round`] on an explicit execution backend: each round's
/// per-server local joins (servers are independent) run in parallel and
/// their fragments are collected in server-index order, so results and
/// round statistics are identical across backends.
pub fn run_multi_round_on(
    db: &Database,
    p: usize,
    seed: u64,
    backend: Backend,
) -> MultiRoundResult {
    try_run_multi_round_on(db, p, seed, backend, &QueryBudget::unlimited())
        .expect("an unlimited budget cannot be exceeded")
}

/// [`run_multi_round_on`] under a cooperative [`QueryBudget`]. Budget
/// granularity is **per round**: the deadline is polled before every
/// round and before the final answer collection (a round in flight runs
/// to completion), and the final materialized answers are charged against
/// the row cap. Finer-grained than that the baseline does not need to be
/// — it exists as a reference, not a production path.
pub fn try_run_multi_round_on(
    db: &Database,
    p: usize,
    seed: u64,
    backend: Backend,
    budget: &QueryBudget,
) -> Result<MultiRoundResult, BudgetExceeded> {
    assert!(p >= 1);
    let q = db.query();
    let bits = db.value_bits() as u64;
    let order = plan_order(q, db);

    // Seed intermediate: the first relation, partitioned by full-tuple hash
    // (its initial distribution; this placement is free — the input is
    // already spread across servers in the MPC model).
    let first = order[0];
    let first_vars: Vec<usize> = {
        let mut vs: Vec<usize> = q.atom(first).var_set().iter().collect();
        vs.sort_unstable();
        vs
    };
    let key0 = mix64(seed, 0x8f0c_21d1_72f3_aa01);
    let mut inter = Intermediate {
        vars: first_vars.clone(),
        fragments: vec![Vec::new(); p],
    };
    for row in db.relation(first).rows() {
        // Project to var order (repeated variables must agree).
        let Some(projected) = project_atom_row(q, first, row, &first_vars) else {
            continue;
        };
        let mut h = key0;
        for &v in &projected {
            h = mix64(v, h);
        }
        inter.fragments[(h % p as u64) as usize].push(projected);
    }

    let mut rounds = Vec::new();
    let mut bound = q.atom(first).var_set();

    for (round, &j) in order.iter().skip(1).enumerate() {
        budget.poll()?;
        let atom = q.atom(j);
        let shared = atom.var_set().intersect(bound);
        let round_key = mix64(seed ^ round as u64, 0x1b87_3595_21b6_3e05);

        // New variable list after the round.
        let new_bound = bound.union(atom.var_set());
        let mut out_vars: Vec<usize> = new_bound.iter().collect();
        out_vars.sort_unstable();

        let mut received_bits = vec![0u64; p];
        let mut next = Intermediate {
            vars: out_vars.clone(),
            fragments: vec![Vec::new(); p],
        };

        // Positions of the shared variables.
        let inter_key_pos: Vec<usize> = shared
            .iter()
            .map(|v| inter.vars.iter().position(|&w| w == v).expect("bound var"))
            .collect();
        let broadcast = shared.is_empty();

        // --- Route the intermediate (repartition by join key). ---
        let mut i_parts: Vec<Vec<Vec<u64>>> = vec![Vec::new(); p];
        for frag in &inter.fragments {
            for row in frag {
                let dest = if broadcast {
                    // Keep in place conceptually: route by full row hash.
                    let mut h = round_key;
                    for &v in row.iter() {
                        h = mix64(v, h);
                    }
                    (h % p as u64) as usize
                } else {
                    let mut h = round_key;
                    for &pos in &inter_key_pos {
                        h = mix64(row[pos], h);
                    }
                    (h % p as u64) as usize
                };
                received_bits[dest] += row.len() as u64 * bits;
                i_parts[dest].push(row.clone());
            }
        }

        // --- Route the new atom's relation. ---
        let mut s_parts: Vec<Vec<Vec<u64>>> = vec![Vec::new(); p];
        for row in db.relation(j).rows() {
            let Some(projected) = project_atom_row(q, j, row, &atom_var_order(q, j)) else {
                continue;
            };
            if broadcast {
                for (dest, part) in s_parts.iter_mut().enumerate() {
                    received_bits[dest] += projected.len() as u64 * bits;
                    part.push(projected.clone());
                }
            } else {
                let mut h = round_key;
                for v in shared.iter() {
                    let pos = atom_var_order(q, j)
                        .iter()
                        .position(|&w| w == v)
                        .expect("shared var in atom");
                    h = mix64(projected[pos], h);
                }
                let dest = (h % p as u64) as usize;
                received_bits[dest] += projected.len() as u64 * bits;
                s_parts[dest].push(projected);
            }
        }

        // --- Local join on every server (independent; parallel on the
        // pooled backend, fragments collected in server-index order). ---
        let s_vars = atom_var_order(q, j);
        next.fragments = backend
            .run_chunks(p, 1, |lo, hi| {
                let mut frags = Vec::with_capacity(hi - lo);
                for server in lo..hi {
                    let mut out = Vec::new();
                    local_hash_join(
                        &inter.vars,
                        &i_parts[server],
                        &s_vars,
                        &s_parts[server],
                        &shared,
                        &out_vars,
                        &mut out,
                    );
                    frags.push(out);
                }
                frags
            })
            .into_iter()
            .flatten()
            .collect();

        rounds.push(RoundStats {
            round,
            atom: atom.name().to_string(),
            max_load_bits: received_bits.iter().copied().max().unwrap_or(0),
            intermediate_tuples: next.total_tuples(),
            broadcast,
        });
        inter = next;
        bound = new_bound;
    }

    // Collect final answers flat, in query-variable order.
    budget.poll()?;
    budget.charge_rows(inter.total_tuples())?;
    let perm: Vec<usize> = (0..q.num_vars())
        .map(|v| inter.vars.iter().position(|&w| w == v).expect("full query"))
        .collect();
    let mut answers = AnswerSet::with_capacity(q.num_vars(), inter.total_tuples() as usize);
    let mut row_buf = vec![0u64; q.num_vars()];
    for row in inter.fragments.iter().flatten() {
        for (slot, &i) in row_buf.iter_mut().zip(&perm) {
            *slot = row[i];
        }
        answers.push(&row_buf);
    }
    answers.sort_dedup();

    Ok(MultiRoundResult {
        rounds,
        answers,
        bound_vars: bound,
    })
}

/// The distinct variables of atom `j` in ascending index order.
fn atom_var_order(q: &Query, j: usize) -> Vec<usize> {
    let mut vs: Vec<usize> = q.atom(j).var_set().iter().collect();
    vs.sort_unstable();
    vs
}

/// Project an atom's stored row onto the given distinct-variable order,
/// returning `None` when repeated variables carry unequal values (such
/// tuples cannot satisfy the atom).
fn project_atom_row(q: &Query, j: usize, row: &[u64], var_order: &[usize]) -> Option<Vec<u64>> {
    let atom = q.atom(j);
    // Consistency check for repeated variables.
    for (pos, &v) in atom.vars().iter().enumerate() {
        let first = atom.position_of_var(v).expect("var present");
        if row[pos] != row[first] {
            return None;
        }
    }
    Some(
        var_order
            .iter()
            .map(|&v| row[atom.position_of_var(v).expect("var present")])
            .collect(),
    )
}

/// Hash join of two local fragments on `shared`, emitting rows over
/// `out_vars`.
#[allow(clippy::too_many_arguments)]
fn local_hash_join(
    left_vars: &[usize],
    left_rows: &[Vec<u64>],
    right_vars: &[usize],
    right_rows: &[Vec<u64>],
    shared: &VarSet,
    out_vars: &[usize],
    out: &mut Vec<Vec<u64>>,
) {
    let l_key: Vec<usize> = shared
        .iter()
        .map(|v| left_vars.iter().position(|&w| w == v).expect("in left"))
        .collect();
    let r_key: Vec<usize> = shared
        .iter()
        .map(|v| right_vars.iter().position(|&w| w == v).expect("in right"))
        .collect();
    // Output assembly: source of each output variable.
    enum Src {
        Left(usize),
        Right(usize),
    }
    let srcs: Vec<Src> = out_vars
        .iter()
        .map(|&v| {
            if let Some(i) = left_vars.iter().position(|&w| w == v) {
                Src::Left(i)
            } else {
                let i = right_vars
                    .iter()
                    .position(|&w| w == v)
                    .expect("var comes from one side");
                Src::Right(i)
            }
        })
        .collect();

    let mut index: HashMap<Vec<u64>, Vec<&Vec<u64>>> = HashMap::new();
    for row in right_rows {
        let key: Vec<u64> = r_key.iter().map(|&i| row[i]).collect();
        index.entry(key).or_default().push(row);
    }
    for lrow in left_rows {
        let key: Vec<u64> = l_key.iter().map(|&i| lrow[i]).collect();
        let Some(matches) = index.get(&key) else {
            continue;
        };
        for rrow in matches {
            out.push(
                srcs.iter()
                    .map(|s| match s {
                        Src::Left(i) => lrow[*i],
                        Src::Right(i) => rrow[*i],
                    })
                    .collect(),
            );
        }
    }
}

/// Execute a batch of independent multi-round queries, parallelizing
/// **across** queries on one backend instead of inside each round — with
/// [`Backend::Pooled`] the whole batch reuses one persistent worker set
/// and schedules queries dynamically from the shared queue (the
/// multi-query-throughput shape). Each job `(db, p, seed)` runs its rounds
/// sequentially, so every result is bit-identical to
/// `run_multi_round_on(db, p, seed, Backend::Sequential)`; results come
/// back in job order.
pub fn run_multi_round_batch(
    jobs: &[(&Database, usize, u64)],
    backend: Backend,
) -> Vec<MultiRoundResult> {
    backend.run_items(jobs.len(), |i| {
        let (db, p, seed) = jobs[i];
        run_multi_round_on(db, p, seed, Backend::Sequential)
    })
}

/// Convenience: compare the multi-round answers with the ground-truth join
/// (computed on the [`Backend::from_env`] backend; the answer set is the
/// same whichever executor runs it).
pub fn verify_multi_round(db: &Database, result: &MultiRoundResult) -> bool {
    let expected = mpc_sim::oracle::join_database_on(db, Backend::from_env());
    expected == result.answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Rng};
    use mpc_query::named;

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
        let result = run_multi_round(&db, 8, 42);
        assert_eq!(result.num_rounds(), 1);
        assert!(!result.rounds[0].broadcast);
        assert!(verify_multi_round(&db, &result));
    }

    #[test]
    fn triangle_takes_two_rounds() {
        let q = named::cycle(3);
        let db = uniform_db(&q, 800, 128, 2);
        let result = run_multi_round(&db, 8, 7);
        assert_eq!(result.num_rounds(), 2);
        assert!(verify_multi_round(&db, &result));
        // The intermediate (length-2 paths) is bigger than the input —
        // the blow-up the paper's one-round approach avoids storing.
        assert!(result.max_intermediate_tuples() > 800);
    }

    #[test]
    fn chain_4_takes_three_rounds() {
        let q = named::chain(4);
        let db = uniform_db(&q, 800, 256, 3);
        let result = run_multi_round(&db, 8, 9);
        assert_eq!(result.num_rounds(), 3);
        assert!(verify_multi_round(&db, &result));
    }

    #[test]
    fn cartesian_uses_broadcast_rounds() {
        let q = named::cartesian(2);
        let n = 1u64 << 10;
        let mut rng = Rng::seed_from_u64(4);
        let s1 = generators::uniform_set("S1", 1, 200, n, &mut rng);
        let s2 = generators::uniform_set("S2", 1, 150, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        let result = run_multi_round(&db, 4, 11);
        assert_eq!(result.num_rounds(), 1);
        assert!(result.rounds[0].broadcast);
        assert!(verify_multi_round(&db, &result));
        assert_eq!(result.answers.len() as u64, 200 * 150);
    }

    #[test]
    fn star_join_correct() {
        let q = named::star(3);
        let db = uniform_db(&q, 600, 64, 5);
        let result = run_multi_round(&db, 8, 13);
        assert_eq!(result.num_rounds(), 2);
        assert!(verify_multi_round(&db, &result));
    }

    #[test]
    fn loads_are_positive_and_bounded() {
        let q = named::cycle(3);
        let db = uniform_db(&q, 500, 64, 6);
        let p = 8usize;
        let result = run_multi_round(&db, p, 15);
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
    fn batch_matches_individual_runs_in_job_order() {
        let q = named::cycle(3);
        let dbs: Vec<Database> = (0..5).map(|s| uniform_db(&q, 400, 64, 20 + s)).collect();
        let jobs: Vec<(&Database, usize, u64)> = dbs
            .iter()
            .enumerate()
            .map(|(i, db)| (db, 4 + i, 30 + i as u64))
            .collect();
        let expected: Vec<MultiRoundResult> = jobs
            .iter()
            .map(|&(db, p, seed)| run_multi_round_on(db, p, seed, Backend::Sequential))
            .collect();
        for backend in [Backend::Sequential, Backend::Pooled(3), Backend::Pooled(4)] {
            let results = run_multi_round_batch(&jobs, backend);
            assert_eq!(results.len(), jobs.len(), "{backend}");
            for (i, (r, e)) in results.iter().zip(&expected).enumerate() {
                assert_eq!(r.answers, e.answers, "job {i} [{backend}]");
                assert_eq!(r.num_rounds(), e.num_rounds(), "job {i} [{backend}]");
                for (a, b) in r.rounds.iter().zip(&e.rounds) {
                    assert_eq!(a.max_load_bits, b.max_load_bits, "job {i} [{backend}]");
                    assert_eq!(
                        a.intermediate_tuples, b.intermediate_tuples,
                        "job {i} [{backend}]"
                    );
                }
            }
        }
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
        let result = run_multi_round(&db, 16, 17);
        assert!(verify_multi_round(&db, &result));
        let bits = db.value_bits() as u64;
        // Everything (both relations) funnels into one server.
        assert_eq!(result.rounds[0].max_load_bits, 2 * m as u64 * 2 * bits);
    }
}
