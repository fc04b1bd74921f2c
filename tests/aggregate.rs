//! End-to-end aggregate pushdown: every op, every backend, every workload
//! class, differentially verified against the sequential oracle fold —
//! plus the planner/service contracts around which algorithms qualify.

use mpc_bench::workloads::{correlated_zipf_db, product_skew_db, skewed_join_db, uniform_db};
use mpc_skew::core::aggregate::aggregate_cluster;
use mpc_skew::core::baselines::{FragmentReplicateRouter, HashJoinRouter};
use mpc_skew::core::engine::{Algorithm, Engine};
use mpc_skew::core::hypercube::HyperCube;
use mpc_skew::core::verify::aggregate_oracle;
use mpc_skew::data::{generators, Database, QueryBudget, Rng};
use mpc_skew::query::aggregate::{AggregateOp, AggregateSpec};
use mpc_skew::query::{named, parse_aggregate_query, VarSet};
use mpc_skew::sim::backend::Backend;
use mpc_skew::sim::oracle::join_database;

mod output_floor;
use output_floor::assert_clears_output_floor;

const P: usize = 16;
const SEED: u64 = 11;

const BACKENDS: [Backend; 2] = [Backend::Sequential, Backend::Threads(4)];

/// Run `spec` over `db` with `algo` on every backend; assert the result is
/// bit-identical to the oracle (and therefore across backends too), the
/// load to that of the plain query — the aggregate changes collection,
/// not routing — and the round to the output floor of the oracle's
/// distinct answer count.
fn assert_matches_oracle(name: &str, db: &Database, spec: &AggregateSpec, algo: Algorithm) {
    let expected = aggregate_oracle(db, spec);
    let out = join_database(db).len() as u64;
    let engine = Engine::new(db.query()).p(P).seed(SEED).algorithm(algo);
    let plain = engine.plan(db);
    let plan = engine.aggregate(spec.clone()).plan(db);
    for backend in BACKENDS {
        let outcome = plan.execute(db, backend);
        assert_eq!(
            outcome.report(),
            plain.execute(db, backend).report(),
            "{name} [{algo}/{backend}]: the aggregate moved the load"
        );
        assert_eq!(
            outcome.aggregate(),
            Some(&expected),
            "{name} [{algo}/{backend}]: aggregate drifted from the oracle"
        );
        assert_eq!(
            outcome.verify_aggregate(db),
            Some(true),
            "{name} [{algo}/{backend}]"
        );
        let report = outcome.report().expect("one-round plan");
        assert_clears_output_floor(
            &format!("{name} [{algo}/{backend}]"),
            db.query(),
            report,
            out,
        );
    }
}

/// The full op set over variable indices of the two-way join
/// `Q(x,y,z) :- S1(x,z), S2(y,z)`: group by `z`, aggregate over `x`.
fn full_spec(q: &mpc_skew::query::Query) -> AggregateSpec {
    let z = q.num_vars() - 1;
    AggregateSpec::new(
        vec![z],
        vec![
            AggregateOp::Count,
            AggregateOp::Sum(0),
            AggregateOp::Min(0),
            AggregateOp::Max(0),
            AggregateOp::CountDistinct(0),
        ],
    )
    .unwrap()
}

#[test]
fn every_op_matches_oracle_across_backends_and_workloads() {
    let q = named::two_way_join();
    let workloads: Vec<(&str, Database)> = vec![
        ("uniform", uniform_db(&q, 1200, 1 << 10, 3)),
        ("zipf_h12", skewed_join_db(&q, 1500, 1 << 11, 1.1, 200, 5)),
        ("product_skew", product_skew_db(&q, 600, 1 << 11, 4, 24, 7)),
        (
            "correlated_zipf",
            correlated_zipf_db(&q, 1200, 1 << 11, 1.2, 9),
        ),
    ];
    let global_count = AggregateSpec::new(vec![], vec![AggregateOp::Count]).unwrap();
    for (name, db) in &workloads {
        assert_matches_oracle(name, db, &global_count, Algorithm::Auto);
        assert_matches_oracle(name, db, &full_spec(&q), Algorithm::Auto);
    }
}

#[test]
fn every_derivation_partitioning_algorithm_is_exact() {
    // Zipf data with a planted shared-heavy value stresses the heavy
    // routes of the skew join and the replication of fragment-replicate.
    let q = named::two_way_join();
    let db = skewed_join_db(&q, 2000, 1 << 11, 1.2, 300, 13);
    let spec = full_spec(&q);
    for algo in [Algorithm::HyperCube, Algorithm::SkewJoin] {
        assert_matches_oracle("zipf_h12", &db, &spec, algo);
    }
    // The baselines partition derivations too; their routers run outside
    // the engine. Hash join on the join key z; fragment-replicate splits
    // the last of the two equal-size relations.
    let expected = aggregate_oracle(&db, &spec);
    let out = join_database(&db).len() as u64;
    let z = q.var_index("z").unwrap();
    let hc_equal = HyperCube::with_equal_shares(&q, P, SEED);
    let hash = HashJoinRouter::new(&q, VarSet::singleton(z), P, SEED);
    let fr = FragmentReplicateRouter::new(P, 1, SEED);
    for backend in BACKENDS {
        let rounds = [
            ("hc-equal", hc_equal.run_on(&db, backend)),
            ("hash", hash.run_on(&db, backend)),
            ("fragment-replicate", fr.run_on(&db, backend)),
        ];
        for (name, (cluster, report)) in rounds {
            let tag = format!("zipf_h12 [{name}/{backend}]");
            let got = aggregate_cluster(&cluster, &q, &spec, &QueryBudget::unlimited());
            assert_eq!(got.as_ref(), Ok(&expected), "{tag}");
            assert_clears_output_floor(&tag, &q, &report, out);
        }
    }
}

#[test]
fn auto_with_aggregate_resolves_away_from_general_skew() {
    // The same skewed triangle that makes plain auto pick the §4.2
    // general algorithm (see planner_choice.rs) must fall back to
    // HyperCube at skew-resilient equal shares once an aggregate head is
    // attached: the general algorithm replicates derivations across its
    // bin-combination sub-instances. The plan reports `hc` and routes
    // exactly as the equal-share router does.
    let q = named::cycle(3);
    let n = 1u64 << 7;
    let mut rng = Rng::seed_from_u64(0xBEEF_0005);
    let d = generators::zipf_degrees(1500, n, 1.0);
    let mut rels = vec![generators::from_degree_sequence(
        "S1",
        2,
        &[1],
        &d,
        n,
        &mut rng,
    )];
    for a in ["S2", "S3"] {
        rels.push(generators::uniform(a, 2, 1500, n, &mut rng));
    }
    let db = Database::new(q.clone(), rels, n).unwrap();

    let plain = Engine::new(&q).p(P).seed(SEED).plan(&db);
    assert_eq!(plain.algorithm(), Algorithm::GeneralSkew);

    let spec = AggregateSpec::new(vec![0], vec![AggregateOp::Count]).unwrap();
    let plan = Engine::new(&q)
        .p(P)
        .seed(SEED)
        .aggregate(spec.clone())
        .plan(&db);
    assert_eq!(plan.algorithm(), Algorithm::HyperCube);
    let equal = HyperCube::with_equal_shares(&q, P, SEED);
    assert_eq!(plan.shares().unwrap(), equal.grid().dims());
    let cap = equal.worst_case_load_bits(&mpc_skew::stats::SimpleStatistics::of(&db));
    assert_eq!(plan.predicted_load_bits(), cap);
    let expected = aggregate_oracle(&db, &spec);
    for backend in BACKENDS {
        let outcome = plan.execute(&db, backend);
        assert_eq!(outcome.aggregate(), Some(&expected));
        let (_, report) = equal.run_on(&db, backend);
        assert_eq!(outcome.report(), Some(&report), "[{backend}]");
    }
}

#[test]
#[should_panic(expected = "aggregate heads need a plan")]
fn explicit_general_skew_with_aggregate_panics() {
    let q = named::two_way_join();
    let db = uniform_db(&q, 300, 1 << 9, 1);
    let spec = AggregateSpec::new(vec![], vec![AggregateOp::Count]).unwrap();
    let _ = Engine::new(&q)
        .p(4)
        .algorithm(Algorithm::GeneralSkew)
        .aggregate(spec)
        .plan(&db);
}

#[test]
fn group_keys_and_values_are_exact_on_a_hand_checkable_instance() {
    // S1 = {(0,1),(1,1),(2,3)}, S2 = {(5,1),(6,3),(7,9)} over z:
    //   z=1: derivations (0,5,1),(1,5,1)  -> count 2, sum(x) 1, min 0, max 1
    //   z=3: derivation  (2,6,3)          -> count 1, sum(x) 2
    let (q, spec) = parse_aggregate_query(
        "Q(z; count, sum(x), min(x), max(x), count_distinct(x)) :- S1(x,z), S2(y,z)",
    )
    .unwrap();
    let spec = spec.unwrap();
    let s1 = mpc_skew::data::Relation::from_rows("S1", 2, &[&[0, 1], &[1, 1], &[2, 3]]);
    let s2 = mpc_skew::data::Relation::from_rows("S2", 2, &[&[5, 1], &[6, 3], &[7, 9]]);
    let db = Database::new(q.clone(), vec![s1, s2], 16).unwrap();
    let outcome = Engine::new(&q).p(4).seed(2).aggregate(spec).run(&db);
    let agg = outcome.aggregate().unwrap();
    assert_eq!(agg.num_groups(), 2);
    assert_eq!(agg.get(&[1]), Some(&[2u128, 1, 0, 1, 2][..]));
    assert_eq!(agg.get(&[3]), Some(&[1u128, 2, 2, 2, 1][..]));
    assert_eq!(agg.to_string(), "1 | 2 1 0 1 2\n3 | 1 2 2 2 1");
}
