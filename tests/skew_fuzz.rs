//! Completeness fuzzing for the skew-handling algorithms: randomized
//! multi-relation, multi-attribute skew patterns must never lose answers.

use mpc_bench::workloads::general_skew_inputs;
use mpc_skew::core::bounds::output_floor;
use mpc_skew::core::engine::{planning_projections, Algorithm, Engine, ExactStats, Plan, Stats};
use mpc_skew::core::hypercube::HyperCube;
use mpc_skew::core::multi_round::run_multi_round;
use mpc_skew::core::skew_general::GeneralSkewAlgorithm;
use mpc_skew::core::skew_join::SkewJoin;
use mpc_skew::core::verify;
use mpc_skew::data::{generators, AnswerSet, Database, Join, Relation, Rng};
use mpc_skew::query::{named, parse_query, Query};
use mpc_skew::sim::backend::Backend;
use mpc_skew::sim::cluster::Router;
use mpc_skew::sim::load::LoadReport;
use mpc_skew::stats::heavy::columns_for;
use mpc_skew::stats::{FreqEstimate, SimpleStatistics};
use mpc_testkit::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Where a round falls below the floor its own answer count sets
/// (`bounds::output_floor`): the busiest server below `L_out` tuples, or
/// the servers' AGM bounds summing to less than |OUT|. Neither can happen
/// on a correct round whose `LoadReport` counts what every server holds.
fn below_output_floor(q: &Query, report: &LoadReport, out: u64) -> Option<String> {
    let p = report.per_server_tuples.len();
    let (l_out, agm_sum) = output_floor(q, &report.per_atom_server_tuples, out, p);
    let max = report.max_load_tuples() as f64;
    if max < l_out * (1.0 - 1e-9) {
        return Some(format!("max load {max} tuples below L_out {l_out:.1}"));
    }
    (agm_sum < out as f64 * (1.0 - 1e-9)).then(|| format!("AGM sum {agm_sum:.1} below |OUT| {out}"))
}

/// A randomized relation for one atom: a mix of planted heavy values on a
/// random attribute, Zipf noise, and uniform filler.
fn random_skewed_relation(
    name: &str,
    arity: usize,
    m: usize,
    n: u64,
    heavy_frac: f64,
    heavy_col: usize,
    rng: &mut Rng,
) -> Relation {
    let heavy = (m as f64 * heavy_frac) as usize;
    let mut degrees: Vec<(Vec<u64>, usize)> = Vec::new();
    if heavy > 0 {
        degrees.push((vec![rng.below(8)], heavy));
    }
    degrees.extend((0..(m - heavy) as u64).map(|i| (vec![16 + (i % (n - 16))], 1)));
    generators::from_degree_sequence(name, arity, &[heavy_col % arity], &degrees, n, rng)
}

/// Exact statistics that record every `(atom, cols)` heavy-hitter question.
struct Recorder<'a> {
    exact: ExactStats<'a>,
    asked: RefCell<Vec<(usize, Vec<usize>)>>,
}

impl Stats for Recorder<'_> {
    fn simple(&self) -> SimpleStatistics {
        self.exact.simple()
    }

    fn heavy_hitters(&self, atom: usize, cols: &[usize], p: usize) -> Vec<FreqEstimate> {
        self.asked.borrow_mut().push((atom, cols.to_vec()));
        self.exact.heavy_hitters(atom, cols, p)
    }
}

/// Plan `engine` over `db` and return the resolved algorithm with every
/// heavy-hitter question the planner asked, in order.
fn planner_reads(engine: Engine<'static>, db: &Database) -> (Algorithm, Vec<(usize, Vec<usize>)>) {
    let asked = RefCell::default();
    let recorder = Recorder {
        exact: ExactStats::of(db),
        asked,
    };
    let algorithm = engine.stats(&recorder).plan(db).algorithm();
    (algorithm, recorder.asked.take())
}

/// §4.2 reads the heavy set of every `(atom, nonempty variable subset)`
/// exactly once per plan — one table feeds both the bin combinations and
/// the `B_∅` exclusion — and none at one server, where nothing is heavy.
#[test]
fn general_plan_reads_each_heavy_set_once() {
    let q = parse_query("R(x,y,x), S(y,z), T(z,x)").unwrap();
    let mut rng = Rng::seed_from_u64(23);
    let rels = (q.atoms().iter())
        .map(|a| generators::zipf_column(a.name(), a.arity(), 600, 64, 0, 1.1, &mut rng))
        .collect();
    let db = Database::new(q.clone(), rels, 64).unwrap();
    let mut every: Vec<(usize, Vec<usize>)> = (0..q.num_atoms())
        .flat_map(|j| q.atom(j).var_set().subsets().map(move |s| (j, s)))
        .filter(|(_, s)| !s.is_empty())
        .map(|(j, s)| (j, columns_for(&q, j, s)))
        .collect();
    every.sort();
    for p in [2usize, 16, 1] {
        let general = Engine::new(&q).p(p).algorithm(Algorithm::GeneralSkew);
        let (_, mut asked) = planner_reads(general, &db);
        asked.sort();
        let want = if p == 1 { Vec::new() } else { every.clone() };
        assert_eq!(asked, want, "p={p}");
    }
}

/// The distinct bindings of `q` over one relation per atom.
fn bindings(q: &Query, rels: &[Relation]) -> AnswerSet {
    let rels: Vec<&Relation> = rels.iter().collect();
    let mut out = Join::new(q, &rels).answers().expect("no budget");
    out.sort_dedup();
    out
}

/// The bindings a server of `plan` could complete from tuples of two
/// different blocks — those of the join over everything it holds that no
/// block it holds derives on its own — rebuilt from the router and the
/// placement, beside how many of them the cluster's local joins emit.
fn cross_block_bindings(db: &Database, plan: &Plan) -> (u64, u64) {
    let (q, placement) = (db.query(), plan.placement());
    let p = placement.p();
    let empty = || -> Vec<Relation> {
        db.relations()
            .iter()
            .map(|r| Relation::new(r.name(), r.arity()))
            .collect()
    };
    let mut blocks: BTreeMap<(usize, usize), Vec<Relation>> = BTreeMap::new();
    let mut servers: Vec<Vec<Relation>> = (0..p).map(|_| empty()).collect();
    let mut keys = Vec::new();
    for (j, rel) in db.relations().iter().enumerate() {
        for row in rel.rows() {
            keys.clear();
            plan.route(j, row, &mut keys);
            let mut reached = BTreeSet::new();
            for &key in &keys {
                let (block, holders) = placement.place(j, key);
                for s in holders {
                    blocks.entry((s, block)).or_insert_with(empty)[j].push(row);
                    reached.insert(s);
                }
            }
            for s in reached {
                servers[s][j].push(row);
            }
        }
    }
    let cluster = plan.execute(db, Backend::Sequential);
    let cluster = cluster.cluster().expect("one-round plan");
    let (mut cross, mut emitted) = (0, 0);
    for (s, held) in servers.iter().enumerate() {
        let mut in_blocks = AnswerSet::new(q.num_vars());
        let mine = blocks.range((s, 0)..(s + 1, 0)).map(|(_, rels)| rels);
        for rels in mine.filter(|rels| rels.iter().all(|r| !r.is_empty())) {
            in_blocks.append(bindings(q, rels));
        }
        in_blocks.sort_dedup();
        let mut joined = AnswerSet::new(q.num_vars());
        for rels in cluster.blocks(s) {
            joined.append(bindings(q, &rels.into_iter().cloned().collect::<Vec<_>>()));
        }
        joined.sort_dedup();
        assert_eq!(joined, in_blocks, "server {s} joins exactly its blocks");
        let in_blocks: BTreeSet<&[u64]> = in_blocks.rows().collect();
        let joined: BTreeSet<&[u64]> = joined.rows().collect();
        for binding in bindings(q, held).rows().filter(|b| !in_blocks.contains(b)) {
            cross += 1;
            emitted += u64::from(joined.contains(binding));
        }
    }
    (cross, emitted)
}

/// Blocks that the placement folds onto one server could complete a
/// derivation from tuples of two of them if the server joined their
/// union. It joins each block on its own, so it completes none: on E8's
/// inputs at p = 64 (the join has 47 such bindings, the triangle and the
/// star none) and on one `general_algorithm_completeness_fuzz` case (the
/// 3-chain, seed 0, 270).
#[test]
fn no_server_completes_a_derivation_across_two_blocks() {
    let general = |db: &Database, p: usize, seed: u64| {
        let engine = Engine::new(db.query()).p(p).seed(seed);
        cross_block_bindings(db, &engine.algorithm(Algorithm::GeneralSkew).plan(db))
    };
    let mut e8 = 0;
    for (name, db) in general_skew_inputs() {
        let (cross, emitted) = general(&db, 64, 7);
        assert_eq!(emitted, 0, "E8 {name}: {emitted} of {cross} completed");
        e8 += cross;
    }
    assert!(e8 > 0, "no two blocks of E8 share a server's bindings");

    let q = named::chain(3);
    let mut rng = Rng::seed_from_u64(0);
    let rels = (q.atoms().iter().zip([0.4, 0.3, 0.0]))
        .map(|(a, frac)| {
            random_skewed_relation(a.name(), a.arity(), 600, 1 << 9, frac, 0, &mut rng)
        })
        .collect();
    let db = Database::new(q, rels, 1 << 9).unwrap();
    let (cross, emitted) = general(&db, 16, 0xABCD);
    assert!(
        cross > 0,
        "no two blocks of the chain share a server's bindings"
    );
    assert_eq!(emitted, 0, "chain: {emitted} of {cross} completed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The §4.2 general algorithm never loses answers, whatever the skew
    /// pattern, on the query suite.
    #[test]
    fn general_algorithm_completeness_fuzz(
        qi in 0usize..4,
        seed in 0u64..10_000,
        frac0 in 0.0f64..0.6,
        frac1 in 0.0f64..0.6,
        col in 0usize..2,
        p_exp in 2u32..6,
    ) {
        let queries: Vec<Query> = vec![
            named::two_way_join(),
            named::cycle(3),
            named::star(2),
            named::chain(3),
        ];
        let q = &queries[qi];
        let n = 1u64 << 9;
        let m = 600usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        let rels: Vec<Relation> = q.atoms().iter().enumerate()
            .map(|(j, a)| {
                let frac = match j {
                    0 => frac0,
                    1 => frac1,
                    _ => 0.0,
                };
                random_skewed_relation(a.name(), a.arity(), m, n, frac, col, &mut rng)
            })
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let alg = GeneralSkewAlgorithm::plan(&db, p, seed ^ 0xABCD);
        let (cluster, report) = alg.run(&db);
        let v = verify::verify(&db, &cluster);
        prop_assert!(v.is_complete(),
            "{} seed={seed} p={p} frac=({frac0:.2},{frac1:.2}) col={col}: {} missing",
            q.name(), v.missing.len());
        let below = below_output_floor(q, &report, cluster.all_answers(q).len() as u64);
        prop_assert!(below.is_none(), "{} seed={seed} p={p}: {below:?}", q.name());
    }

    /// The §4.1 skew join never loses answers under randomized two-sided
    /// skew, including when both sides are heavy on the same or different
    /// values.
    #[test]
    fn skew_join_completeness_fuzz(
        seed in 0u64..10_000,
        frac0 in 0.0f64..0.8,
        frac1 in 0.0f64..0.8,
        p_exp in 2u32..7,
    ) {
        let q = named::two_way_join();
        let n = 1u64 << 9;
        let m = 800usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        let s1 = random_skewed_relation("S1", 2, m, n, frac0, 1, &mut rng);
        let s2 = random_skewed_relation("S2", 2, m, n, frac1, 1, &mut rng);
        let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
        let sj = SkewJoin::plan(&db, p, seed ^ 0x1234);
        let (cluster, report) = sj.run(&db);
        let v = verify::verify(&db, &cluster);
        prop_assert!(v.is_complete(),
            "seed={seed} p={p} frac=({frac0:.2},{frac1:.2}): {} missing",
            v.missing.len());
        let below = below_output_floor(&q, &report, cluster.all_answers(&q).len() as u64);
        prop_assert!(below.is_none(), "seed={seed} p={p}: {below:?}");
    }

    /// Determinism regression guard: for random queries and databases,
    /// answer sets and per-server loads (the whole `LoadReport`) are
    /// invariant under the executor's thread count — `Threads(t)` is
    /// bit-identical to `Sequential` for both the §4.2 general algorithm and equal-share HyperCube.
    #[test]
    fn thread_count_invariance_fuzz(
        qi in 0usize..4,
        seed in 0u64..10_000,
        frac0 in 0.0f64..0.6,
        col in 0usize..2,
        p_exp in 2u32..6,
        threads in 2usize..9,
    ) {
        let queries: Vec<Query> = vec![
            named::two_way_join(),
            named::cycle(3),
            named::star(2),
            named::chain(3),
        ];
        let q = &queries[qi];
        let n = 1u64 << 9;
        let m = 600usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        let rels: Vec<Relation> = q.atoms().iter().enumerate()
            .map(|(j, a)| {
                let frac = if j == 0 { frac0 } else { 0.0 };
                random_skewed_relation(a.name(), a.arity(), m, n, frac, col, &mut rng)
            })
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();

        let alg = GeneralSkewAlgorithm::plan(&db, p, seed ^ 0x7777);
        let (c_seq, r_seq) = alg.run_on(&db, Backend::Sequential);
        let (c_pool, r_pool) = alg.run_on(&db, Backend::Threads(threads));
        prop_assert_eq!(&r_seq, &r_pool,
            "{} seed={seed} p={p} threads={threads}: general LoadReport drifted", q.name());
        prop_assert_eq!(c_seq.all_answers(q), c_pool.all_answers(q),
            "{} seed={seed} p={p} threads={threads}: general answers drifted", q.name());

        let hc = HyperCube::with_equal_shares(q, p, seed ^ 0x2222);
        let (h_seq, hr_seq) = hc.run_on(&db, Backend::Sequential);
        let (h_pool, hr_pool) = hc.run_on(&db, Backend::Threads(threads));
        prop_assert_eq!(&hr_seq, &hr_pool,
            "{} seed={seed} p={p} threads={threads}: HC LoadReport drifted", q.name());
        prop_assert_eq!(h_seq.all_answers(q), h_pool.all_answers(q),
            "{} seed={seed} p={p} threads={threads}: HC answers drifted", q.name());
    }

    /// The engine's auto planner never loses answers and never decides
    /// differently from the statistics: whatever skew pattern it sees, the
    /// plan it picks is complete, bit-identical across executors, and
    /// bit-identical to invoking the resolved algorithm explicitly.
    #[test]
    fn engine_auto_invariance_fuzz(
        qi in 0usize..4,
        seed in 0u64..10_000,
        frac0 in 0.0f64..0.6,
        frac1 in 0.0f64..0.6,
        col in 0usize..2,
        p_exp in 2u32..6,
        threads in 2usize..9,
    ) {
        let queries: Vec<Query> = vec![
            named::two_way_join(),
            named::cycle(3),
            named::star(2),
            named::chain(3),
        ];
        let q = &queries[qi];
        let n = 1u64 << 9;
        let m = 600usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        let rels: Vec<Relation> = q.atoms().iter().enumerate()
            .map(|(j, a)| {
                let frac = match j {
                    0 => frac0,
                    1 => frac1,
                    _ => 0.0,
                };
                random_skewed_relation(a.name(), a.arity(), m, n, frac, col, &mut rng)
            })
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let plan = Engine::new(q).p(p).seed(seed ^ 0x5A5A).plan(&db);
        let outcome = plan.execute(&db, Backend::Sequential);
        let v = outcome.verify(&db);
        prop_assert!(v.is_complete(),
            "{} seed={seed} p={p} plan={}: {} missing",
            q.name(), plan.algorithm(), v.missing.len());

        // Bit-identical to the explicitly constructed algorithm.
        let (c_exp, r_exp) = match plan.algorithm() {
            Algorithm::HyperCube => {
                let st = SimpleStatistics::of(&db);
                HyperCube::with_optimal_shares(q, &st, p, seed ^ 0x5A5A)
                    .run_on(&db, Backend::Sequential)
            }
            Algorithm::SkewJoin =>
                SkewJoin::plan(&db, p, seed ^ 0x5A5A).run_on(&db, Backend::Sequential),
            Algorithm::GeneralSkew =>
                GeneralSkewAlgorithm::plan(&db, p, seed ^ 0x5A5A)
                    .run_on(&db, Backend::Sequential),
            other => panic!("auto resolved to {other}"),
        };
        prop_assert_eq!(outcome.report(), Some(&r_exp),
            "{} seed={seed} p={p} plan={}: engine LoadReport drifted from explicit",
            q.name(), plan.algorithm());
        prop_assert_eq!(outcome.answers(), &c_exp.all_answers(q),
            "{} seed={seed} p={p}: engine answers drifted from explicit", q.name());

        // Invariant under the executor.
        let backend = Backend::Threads(threads);
        let par = plan.execute(&db, backend);
        prop_assert_eq!(par.report(), outcome.report(),
            "{} seed={seed} p={p} [{}]: engine LoadReport drifted", q.name(), backend);
        prop_assert_eq!(par.answers(), outcome.answers(),
            "{} seed={seed} p={p} [{}]: engine answers drifted", q.name(), backend);
        let report = outcome.report().expect("one-round plan");
        let below = below_output_floor(q, report, outcome.answers().len() as u64);
        prop_assert!(below.is_none(), "{} seed={seed} p={p} plan={}: {below:?}",
            q.name(), plan.algorithm());
    }

    /// Join-product-skew workloads (correlated hot values on both sides,
    /// so `|output| ≫ |inputs|`) through the auto-planned engine: the
    /// answer set stays complete and the pushed-down aggregate matches
    /// the sequential oracle fold, bit-identically on every backend.
    #[test]
    fn correlated_skew_aggregate_fuzz(
        kind in 0usize..2,
        seed in 0u64..10_000,
        hot in 1usize..6,
        fanout in 4usize..24,
        theta in 0.6f64..1.4,
        p_exp in 2u32..6,
        threads in 2usize..7,
    ) {
        use mpc_bench::workloads::{correlated_zipf_db, product_skew_db};
        use mpc_skew::core::verify::aggregate_oracle;
        use mpc_skew::query::parse_aggregate_query;

        let (q, spec) =
            parse_aggregate_query("Q(z; count, sum(x)) :- S1(x,z), S2(y,z)").unwrap();
        let spec = spec.unwrap();
        let n = 1u64 << 11;
        let m = 400usize;
        let p = 1usize << p_exp;
        let db = if kind == 0 {
            product_skew_db(&q, m, n, hot, fanout, seed)
        } else {
            correlated_zipf_db(&q, m, n, theta, seed)
        };
        let expected = aggregate_oracle(&db, &spec);

        let plan = Engine::new(&q)
            .p(p)
            .seed(seed ^ 0x0906)
            .aggregate(spec.clone())
            .plan(&db);
        let mut per_backend = Vec::new();
        for backend in [Backend::Sequential, Backend::Threads(threads)] {
            let outcome = plan.execute(&db, backend);
            let v = outcome.verify(&db);
            prop_assert!(v.is_complete(),
                "kind={kind} seed={seed} p={p} [{}] plan={}: {} answers missing",
                backend, plan.algorithm(), v.missing.len());
            prop_assert_eq!(outcome.aggregate(), Some(&expected),
                "kind={kind} seed={seed} p={p} [{}] plan={}: aggregate drifted from oracle",
                backend, plan.algorithm());
            per_backend.push(outcome.aggregate().cloned().unwrap());
        }
        prop_assert!(per_backend.windows(2).all(|w| w[0] == w[1]),
            "kind={kind} seed={seed} p={p}: aggregate not bit-identical across backends");
    }

    /// The plan cache fingerprints the heavy sets of
    /// [`planning_projections`], so that is all `hc`, `skew-join` and
    /// Auto's choice may read: over the named menagerie and random
    /// two-atom queries (shared sets of one to three variables, repeated
    /// variables included), every `(atom, cols)` they ask is fingerprinted,
    /// and a skew-free Auto reads exactly the single-column entries, in
    /// order. When Auto picks §4.2 it then plans as `general` pinned, whose
    /// reads (every heavy set of the query) are not part of the choice.
    #[test]
    fn auto_reads_only_what_the_plan_cache_fingerprints(
        qi in 0usize..7,
        vars0 in mpc_testkit::collection::vec(0usize..4, 1..4),
        vars1 in mpc_testkit::collection::vec(0usize..4, 1..4),
        seed in 0u64..10_000,
        frac0 in 0.0f64..0.6,
        frac1 in 0.0f64..0.6,
        col in 0usize..3,
        p_exp in 1u32..6,
    ) {
        let names = |vars: &[usize]| -> Vec<&str> { vars.iter().map(|&v| ["x", "y", "z", "w"][v]).collect() };
        let q = match qi {
            0 => named::two_way_join(),
            1 => named::cycle(3),
            2 => named::star(2),
            3 => named::chain(3),
            4 => named::cartesian(2),
            5 => named::loomis_whitney(3),
            _ => Query::build("q", &[("S1", &names(&vars0)), ("S2", &names(&vars1))]).unwrap(),
        };
        let (n, m, p) = (1u64 << 9, 300usize, 1usize << p_exp);
        let mut rng = Rng::seed_from_u64(seed);
        let rels: Vec<Relation> = q.atoms().iter().enumerate()
            .map(|(j, a)| {
                let frac = [frac0, frac1].get(j).copied().unwrap_or(0.0);
                random_skewed_relation(a.name(), a.arity(), m, n, frac, col, &mut rng)
            })
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let fingerprinted = planning_projections(&q);
        let engine = |algo| Engine::new(&q).p(p).seed(seed).algorithm(algo);

        for algo in [Algorithm::Auto, Algorithm::HyperCube, Algorithm::SkewJoin] {
            if algo == Algorithm::SkewJoin && !q.is_two_atom_join() {
                continue;
            }
            let (resolved, mut asked) = planner_reads(engine(algo), &db);
            if resolved == Algorithm::GeneralSkew {
                let (_, pinned) = planner_reads(engine(resolved), &db);
                prop_assert!(asked.ends_with(&pinned),
                    "{q} p={p}: Auto's §4.2 plan read {asked:?}, pinned read {pinned:?}");
                asked.truncate(asked.len() - pinned.len());
            }
            for read in &asked {
                prop_assert!(fingerprinted.contains(read),
                    "{q} p={p} {algo}->{resolved}: read {read:?} outside {fingerprinted:?}");
            }
            if algo == Algorithm::Auto && resolved == Algorithm::HyperCube {
                let singles = fingerprinted.iter().filter(|(_, cols)| cols.len() == 1);
                prop_assert_eq!(&asked, &singles.cloned().collect::<Vec<_>>(),
                    "{} p={}: skew detection order", q, p);
            }
        }
    }

    /// The multi-round baseline never loses answers either (it is a
    /// baseline, but a *correct* one).
    #[test]
    fn multi_round_completeness_fuzz(
        qi in 0usize..4,
        seed in 0u64..10_000,
        p_exp in 1u32..5,
    ) {
        let queries: Vec<Query> = vec![
            named::two_way_join(),
            named::cycle(3),
            named::star(2),
            named::chain(3),
        ];
        let q = &queries[qi];
        let n = 1u64 << 8;
        let m = 300usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        let rels: Vec<Relation> = q.atoms().iter()
            .map(|a| generators::uniform(a.name(), a.arity(), m, n, &mut rng))
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let result = run_multi_round(&db, p, seed, Backend::from_env());
        let expected = mpc_skew::sim::oracle::join_database(&db);
        prop_assert!(verify::diff(&expected, &result.answers).is_complete(),
            "{} seed={seed} p={p}: multi-round lost answers", q.name());
    }
}
