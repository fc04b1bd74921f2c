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
//! probe at or below the fixed baseline on every single server — with
//! bit-identical answers, on every backend.

use mpc_skew::data::generators;
use mpc_skew::data::join::{self, Join, JoinOrder};
use mpc_skew::data::{AnswerSet, Relation};
use mpc_skew::prelude::*;
use mpc_skew::query::named;

/// The aligned local-skew triangle: `x2` (column 1 of S1, column 0 of S2)
/// Zipf(θ)-hot with value 0 heaviest on both sides; S3 uniform.
fn zipf_triangle(m: usize, n: u64, theta: f64, seed: u64) -> Database {
    let q = named::cycle(3);
    let mut rng = Rng::seed_from_u64(seed);
    let s1 = generators::zipf_column("S1", 2, m, n, 1, theta, &mut rng);
    let s2 = generators::zipf_column("S2", 2, m, n, 0, theta, &mut rng);
    let s3 = generators::uniform("S3", 2, m, n, &mut rng);
    Database::new(q, vec![s1, s2, s3], n).expect("valid zipf triangle")
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
/// the dynamic order visits no more bindings than the fixed baseline and
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
    for server in 0..cluster.p() {
        let rels: Vec<&Relation> = (0..q.num_atoms())
            .map(|a| cluster.fragment(a, server))
            .collect();
        let (dyn_rows, dyn_visited) = run_fragment(&q, &rels, JoinOrder::Dynamic);
        let (fixed_rows, fixed_visited) = run_fragment(&q, &rels, JoinOrder::Fixed);
        assert_eq!(dyn_rows, fixed_rows, "answer mismatch on server {server}");
        assert!(
            dyn_visited <= fixed_visited,
            "server {server}: dynamic visited {dyn_visited} > fixed {fixed_visited}"
        );
        dyn_total += dyn_visited;
        fixed_total += fixed_visited;
    }
    assert!(
        dyn_total < fixed_total,
        "no cluster-wide win: dynamic {dyn_total} vs fixed {fixed_total}"
    );
}

/// The full HyperCube round over the skewed triangle is complete (the
/// oracle runs the fixed order, so this is a dynamic-vs-fixed end-to-end
/// differential) and bit-identical across both backends.
#[test]
fn skewed_triangle_answers_are_backend_identical() {
    let q = named::cycle(3);
    let db = zipf_triangle(2000, 128, 1.2, 23);
    let stats = SimpleStatistics::of(&db);
    let alloc = ShareAllocation::optimize(&q, &stats, 8).expect("share LP solves");
    let hc = HyperCube::new(&q, &alloc, 1);

    let mut baseline: Option<Vec<Vec<u64>>> = None;
    for backend in [Backend::Sequential, Backend::Pooled(4)] {
        let (cluster, _) = hc.run_on(&db, backend);
        assert!(
            verify(&db, &cluster).is_complete(),
            "{backend:?} incomplete"
        );
        let rows = cluster.all_answers(&q).to_nested();
        match &baseline {
            None => baseline = Some(rows),
            Some(b) => assert_eq!(b, &rows, "{backend:?} diverges"),
        }
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
