//! Regression suite for the cardinality-guided local join on *locally*
//! skewed subcubes.
//!
//! HyperCube routing provably balances skew **across** servers, but each
//! server's own fragment of a Zipf-skewed database is still skewed — the
//! heavy values land somewhere, and the server that receives them used to
//! pay a quadratic blow-up under the fixed greedy atom order. These tests
//! route a locally-skewed triangle (`x2` Zipf-hot in both S1 and S2,
//! aligned on the same heavy values) through HyperCube, pull out each
//! server's fragments, and pin the dynamic engine's visited-bindings
//! probe at or below the fixed baseline — and within a constant of the
//! AGM bound — on every single server, with bit-identical answers, on
//! every backend.

use mpc_bench::workloads::zipf_triangle_db;
use mpc_skew::data::join::{self, Join, JoinOrder};
use mpc_skew::data::{generators, AnswerSet, Relation, Rng};
use mpc_skew::prelude::*;
use mpc_skew::query::cover::agm_bound;
use mpc_skew::query::named;

/// The aligned local-skew triangle: `x2` (column 1 of S1, column 0 of S2)
/// Zipf(θ)-hot with value 0 heaviest on both sides; S3 uniform.
fn zipf_triangle(m: usize, n: u64, theta: f64, seed: u64) -> Database {
    zipf_triangle_db(&named::cycle(3), m, n, theta, seed)
}

/// The visited-bindings constant the dynamic order stays within:
/// `bindings_visited ≤ AGM_WORK_C · agm_work_bound(..)`, the smallest
/// round constant above what it reaches — 0.22 of the bound on the whole
/// skewed triangle, at most 0.21 on a HyperCube server of it. The fixed
/// order visits 5.8 times the bound there, and 0.66 to 1.07 on the
/// servers.
const AGM_WORK_C: f64 = 0.25;

/// `Σ_d max_{U ⊆ V, |U| = d} AGM(q_U)` over relations of `sizes`: a join
/// binding `d` variables visits at most `AGM(q_U)` partial bindings of
/// its first `d` variables `U` (they are answers of `q` projected to `U`).
/// `q_U` keeps each atom's variables in `U` and drops the atoms left
/// without any.
fn agm_work_bound(q: &Query, sizes: &[usize]) -> f64 {
    let mut per_depth = vec![0f64; q.num_vars() + 1];
    for u in 1u64..1 << q.num_vars() {
        let kept: Vec<(&str, Vec<&str>, usize)> = q
            .atoms()
            .iter()
            .zip(sizes)
            .filter_map(|(atom, &m)| {
                let vars: Vec<&str> = (atom.vars().iter())
                    .filter(|&&v| u >> v & 1 == 1)
                    .map(|&v| q.var_name(v))
                    .collect();
                (!vars.is_empty()).then_some((atom.name(), vars, m))
            })
            .collect();
        let shape: Vec<(&str, &[&str])> = kept.iter().map(|(a, v, _)| (*a, &v[..])).collect();
        let q_u = Query::build("q_U", &shape).expect("a projection of a valid query");
        let cards: Vec<usize> = kept.iter().map(|&(_, _, m)| m).collect();
        let agm = agm_bound(&q_u, &cards).expect("the cover LP of a projection solves");
        let d = u.count_ones() as usize;
        per_depth[d] = per_depth[d].max(agm);
    }
    per_depth.iter().sum()
}

/// Run one order over one server's fragments: the expanded answer
/// multiset (sorted) plus the engine's visited-bindings count.
fn run_fragment(q: &Query, rels: &[&Relation], order: JoinOrder) -> (Vec<Vec<u64>>, u64) {
    let mut answers = AnswerSet::new(q.num_vars());
    let stats = Join::new(q, rels)
        .order(order)
        .for_each(|row, mult| answers.push_repeat(row, mult))
        .unwrap();
    answers.sort();
    (answers.to_nested(), stats.bindings_visited)
}

/// On every server of a HyperCube round over the locally-skewed triangle,
/// the dynamic order visits no more bindings than the fixed baseline, and
/// no more than `AGM_WORK_C` times the server's AGM work bound, and
/// produces the identical answer multiset; summed over the cluster it
/// visits strictly fewer — the skew win survives HyperCube partitioning.
#[test]
fn dynamic_order_dominates_fixed_on_every_skewed_fragment() {
    let q = named::cycle(3);
    let db = zipf_triangle(4000, 256, 1.2, 17);
    let stats = SimpleStatistics::of(&db);
    let alloc = ShareAllocation::optimize(&q, &stats, 8).expect("share LP solves");
    let hc = HyperCube::new(&q, &alloc, 1);
    let (cluster, _) = hc.run(&db);
    assert!(verify(&db, &cluster).is_complete());

    let (mut dyn_total, mut fixed_total) = (0u64, 0u64);
    // One block: a server joins its fragments when it holds all three.
    for (server, rels) in (0..cluster.p()).flat_map(|s| cluster.blocks(s).map(move |b| (s, b))) {
        let (dyn_rows, dyn_visited) = run_fragment(&q, &rels, JoinOrder::Dynamic);
        let (fixed_rows, fixed_visited) = run_fragment(&q, &rels, JoinOrder::Fixed);
        assert_eq!(dyn_rows, fixed_rows, "answer mismatch on server {server}");
        assert!(
            dyn_visited <= fixed_visited,
            "server {server}: dynamic visited {dyn_visited} > fixed {fixed_visited}"
        );
        let sizes: Vec<usize> = rels.iter().map(|r| r.len()).collect();
        let bound = AGM_WORK_C * agm_work_bound(&q, &sizes);
        assert!(
            dyn_visited as f64 <= bound,
            "server {server}: dynamic visited {dyn_visited} > {bound} (c · AGM work)"
        );
        dyn_total += dyn_visited;
        fixed_total += fixed_visited;
    }
    assert!(
        dyn_total < fixed_total,
        "no cluster-wide win: dynamic {dyn_total} vs fixed {fixed_total}"
    );
}

/// The whole `local_join/skewed_triangle` bench relation (m = 4 096 per
/// atom): its AGM work bound is 4 096 + 4 096 + 4 096^1.5 = 270 336; the
/// dynamic order stays within `AGM_WORK_C` of it, the fixed order does
/// not.
#[test]
fn agm_bounds_the_dynamic_join_on_the_whole_skewed_triangle() {
    let q = named::cycle(3);
    let db = zipf_triangle(1 << 12, 1 << 8, 1.2, 11);
    let rels: Vec<&Relation> = db.relations().iter().map(|r| r.as_ref()).collect();
    let bound = agm_work_bound(&q, &[1 << 12; 3]);
    assert!((bound - 270_336.0).abs() < 1e-3 * bound, "{bound}");
    let (_, dynamic) = run_fragment(&q, &rels, JoinOrder::Dynamic);
    let (_, fixed) = run_fragment(&q, &rels, JoinOrder::Fixed);
    assert!(
        dynamic as f64 <= AGM_WORK_C * bound,
        "dynamic visited {dynamic}"
    );
    assert!(fixed as f64 > AGM_WORK_C * bound, "fixed visited {fixed}");
}

/// The full HyperCube round over the skewed triangle equals the oracle
/// (which runs the fixed order, so this is a dynamic-vs-fixed end-to-end
/// differential) on both backends. At 5 000 rows per relation the
/// threaded shuffle splits every relation in two.
#[test]
fn skewed_triangle_answers_are_backend_identical() {
    let q = named::cycle(3);
    let db = zipf_triangle(5000, 256, 1.2, 23);
    let stats = SimpleStatistics::of(&db);
    let alloc = ShareAllocation::optimize(&q, &stats, 8).expect("share LP solves");
    let hc = HyperCube::new(&q, &alloc, 1);
    let expected = mpc_skew::sim::oracle::join_database(&db);
    for backend in [Backend::Sequential, Backend::Threads(4)] {
        let (cluster, _) = hc.run_on(&db, backend);
        assert_eq!(cluster.all_answers(&q), expected, "{backend:?} diverges");
    }
}

/// The global visited-bindings probe is what `bench_join.rs` exports as
/// `bindings_per_iter`: it must advance by exactly the per-call stats.
#[test]
fn visited_probe_matches_per_call_stats() {
    let q = named::cycle(3);
    let db = zipf_triangle(500, 64, 1.0, 5);
    let rels: Vec<&Relation> = db.relations().iter().map(|r| r.as_ref()).collect();
    for order in [JoinOrder::Dynamic, JoinOrder::Fixed] {
        let before = join::visited_bindings_total();
        let stats = Join::new(&q, &rels)
            .order(order)
            .for_each(|_, _| {})
            .unwrap();
        assert!(stats.bindings_visited > 0);
        assert!(join::visited_bindings_total() >= before + stats.bindings_visited);
    }
}

/// A budget trip is a value, not an unwind: on both engines a row cap
/// tripped by the charge before the sink, and a deadline tripped from
/// inside the sink (seen by the next poll, within `CHECK_INTERVAL`
/// bindings), each come back as the matching `Err` kind while a panic hook
/// counts zero `BudgetExceeded` payloads. The hook forwards every other
/// panic to the previous one and is restored at the end.
#[test]
fn budget_trips_return_without_panicking() {
    use mpc_skew::data::budget::{BudgetExceeded, BudgetKind, QueryBudget, CHECK_INTERVAL};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    static TRIP_PANICS: AtomicUsize = AtomicUsize::new(0);
    let previous = Arc::new(std::panic::take_hook());
    let forward = Arc::clone(&previous);
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().is::<BudgetExceeded>() {
            TRIP_PANICS.fetch_add(1, Ordering::SeqCst);
        } else {
            forward(info);
        }
    }));

    let q = named::two_way_join();
    let mut rng = Rng::seed_from_u64(0x7819);
    let s1 = generators::uniform("S1", 2, 3000, 64, &mut rng);
    let s2 = generators::uniform("S2", 2, 3000, 64, &mut rng);
    let rels = [&s1, &s2];
    for order in [JoinOrder::Dynamic, JoinOrder::Fixed] {
        let full = Join::new(&q, &rels).order(order).count().unwrap();
        assert!(full > 10 * CHECK_INTERVAL, "{order:?}: {full} answers");

        let capped = QueryBudget::new(None, Some(100), None);
        let mut seen = 0u64;
        let err = Join::new(&q, &rels)
            .order(order)
            .budget(&capped)
            .for_each(|_, mult| seen += mult)
            .expect_err("100 rows cannot hold the join");
        assert_eq!(err.kind, BudgetKind::Rows, "{order:?}");
        assert!(seen <= 100, "{order:?}: the sink saw {seen} rows");

        let budget = QueryBudget::new(Some(Duration::from_secs(3600)), None, None);
        let (mut calls, mut after_trip) = (0u64, 0u64);
        let err = Join::new(&q, &rels)
            .order(order)
            .budget(&budget)
            .for_each(|_, _| {
                calls += 1;
                if calls == 1 {
                    budget.trip(BudgetKind::Deadline);
                } else {
                    after_trip += 1;
                }
            })
            .expect_err("a tripped deadline ends the join");
        assert_eq!(err.kind, BudgetKind::Deadline, "{order:?}");
        assert!(
            after_trip <= 2 * CHECK_INTERVAL,
            "{order:?}: {after_trip} emits after the trip"
        );
    }

    drop(std::panic::take_hook());
    let previous = Arc::try_unwrap(previous)
        .ok()
        .expect("the counting hook was the only other owner");
    std::panic::set_hook(previous);
    assert_eq!(TRIP_PANICS.load(Ordering::SeqCst), 0, "a trip unwound");
}
