//! Smoke tests for the `mpc_skew::prelude` façade: the advertised one-stop
//! imports must compile and cooperate end-to-end.

use mpc_skew::prelude::*;

#[test]
fn prelude_covers_the_quickstart_flow() {
    let query = mpc_skew::query::named::cycle(3);
    let mut rng = Rng::seed_from_u64(99);
    let rels: Vec<Relation> = query
        .atoms()
        .iter()
        .map(|a| mpc_skew::data::generators::uniform(a.name(), a.arity(), 400, 64, &mut rng))
        .collect();
    let db = Database::new(query.clone(), rels, 64).unwrap();
    let stats = SimpleStatistics::of(&db);
    let alloc = ShareAllocation::optimize(&query, &stats, 16).unwrap();
    let hc = HyperCube::new(&query, &alloc, 1);
    let (cluster, report) = hc.run(&db);
    assert!(verify(&db, &cluster).is_complete());
    assert!(report.max_load_bits() > 0);
    let (lower, _) = bounds::l_lower(&query, &stats, 16);
    assert!(lower > 0.0);
}

#[test]
fn prelude_covers_skew_and_multi_round() {
    let query = mpc_skew::query::named::two_way_join();
    let mut rng = Rng::seed_from_u64(7);
    let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![3u64], 256))
        .chain((0..256u64).map(|i| (vec![100 + i], 1)))
        .collect();
    let s1 =
        mpc_skew::data::generators::from_degree_sequence("S1", 2, &[1], &degrees, 1024, &mut rng);
    let s2 = mpc_skew::data::generators::matching("S2", 2, 512, 1024, &mut rng);
    let db = Database::new(query.clone(), vec![s1, s2], 1024).unwrap();

    let sj = SkewJoin::plan(&db, 8, 2);
    let (cluster, _) = sj.run(&db);
    assert_complete(&db, &cluster);

    let alg = GeneralSkewAlgorithm::plan(&db, 8, 2);
    let (c2, _) = alg.run(&db);
    assert_complete(&db, &c2);

    let outcome = Engine::new(&query)
        .p(8)
        .seed(2)
        .algorithm(Algorithm::MultiRound)
        .run(&db);
    let mr: &MultiRoundResult = outcome.multi_round().expect("multi-round outcome");
    assert_eq!(mr.num_rounds(), 1);
    assert!(outcome.verify(&db).is_complete());
}

#[test]
fn prelude_covers_the_engine_surface() {
    let query = mpc_skew::query::named::two_way_join();
    let mut rng = Rng::seed_from_u64(42);
    let s1 = mpc_skew::data::generators::uniform("S1", 2, 800, 1 << 10, &mut rng);
    let s2 = mpc_skew::data::generators::uniform("S2", 2, 800, 1 << 10, &mut rng);
    let db = Database::new(query.clone(), vec![s1, s2], 1 << 10).unwrap();

    let engine = Engine::new(&query)
        .p(8)
        .seed(4)
        .backend(Backend::Sequential)
        .algorithm(Algorithm::Auto);
    let plan: Plan = engine.plan(&db);
    assert_eq!(plan.algorithm(), Algorithm::HyperCube);
    let outcome: RunOutcome = engine.run(&db);
    assert!(outcome.verify(&db).is_complete());
    assert!(outcome.predicted_load_bits() > 0.0);

    // Batches of (plan, db) jobs agree with one-at-a-time execution.
    let jobs = [(&plan, &db)];
    let batched = execute_batch(&jobs, Backend::Sequential);
    assert_eq!(batched[0].report(), outcome.report());

    // Synthetic statistics plug into the same surface.
    let st = SyntheticStats(SimpleStatistics::of(&db));
    let plan2 = Engine::new(&query).p(8).seed(4).stats(&st).plan(&db);
    assert_eq!(plan2.algorithm(), Algorithm::HyperCube);
}

#[test]
fn prelude_covers_shares_varsets_and_clusters() {
    let query = mpc_skew::query::named::cycle(3);
    let stats = SimpleStatistics::synthetic(&[2, 2, 2], vec![1 << 14; 3], 1 << 20);
    let alloc = ShareAllocation::optimize(&query, &stats, 64).unwrap();
    let x: VarSet = VarSet::singleton(0);
    assert_eq!(x.len(), 1);
    let c: &Cluster = &{
        let hc = HyperCube::new(&query, &alloc, 5);
        let mut rng = Rng::seed_from_u64(1);
        let rels: Vec<Relation> = query
            .atoms()
            .iter()
            .map(|a| mpc_skew::data::generators::uniform(a.name(), a.arity(), 200, 32, &mut rng))
            .collect();
        let db = Database::new(query.clone(), rels, 32).unwrap();
        hc.run(&db).0
    };
    assert!(c.p() >= 2);
}
