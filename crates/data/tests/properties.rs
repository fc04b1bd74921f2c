//! Property-based tests for relations, generators and the local join —
//! including the flat data plane: [`AnswerSet`] pinned pointwise against
//! the legacy `Vec<Vec<u64>>` sort+dedup, and the CSR [`JoinIndex`] pinned
//! against the legacy per-key `HashMap` buckets.

use mpc_data::{generators, AnswerSet, Join, JoinIndex, JoinOrder, Relation, Rng};
use mpc_query::{named, Query};
use mpc_testkit::prelude::*;
use std::collections::HashMap;

/// The join's answer multiset under `order`, one row per derivation, sorted.
fn sorted_answers(q: &Query, rels: &[&Relation], order: JoinOrder) -> Vec<Vec<u64>> {
    let mut got = Join::new(q, rels).order(order).answers().unwrap();
    got.sort();
    got.to_nested()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// sort_dedup produces a sorted duplicate-free relation preserving the
    /// underlying tuple *set*.
    #[test]
    fn sort_dedup_is_canonical(rows in mpc_testkit::collection::vec(
        mpc_testkit::collection::vec(0u64..8, 2), 0..40))
    {
        let mut r = Relation::new("S", 2);
        for row in &rows {
            r.push(row);
        }
        let mut expected: Vec<Vec<u64>> = rows.clone();
        expected.sort();
        expected.dedup();
        r.sort_dedup();
        prop_assert!(r.is_set());
        let got: Vec<Vec<u64>> = r.rows().map(|x| x.to_vec()).collect();
        prop_assert_eq!(got, expected);
    }

    /// Frequencies on any column subset sum to the cardinality.
    #[test]
    fn frequencies_sum_to_cardinality(
        rows in mpc_testkit::collection::vec(mpc_testkit::collection::vec(0u64..6, 3), 1..60),
        cols in mpc_testkit::collection::btree_set(0usize..3, 0..=3),
    ) {
        let mut r = Relation::new("S", 3);
        for row in &rows {
            r.push(row);
        }
        let cols: Vec<usize> = cols.into_iter().collect();
        let total: usize = r.frequencies(&cols).values().sum();
        prop_assert_eq!(total, r.len());
    }

    /// partition splits losslessly.
    #[test]
    fn partition_is_lossless(
        rows in mpc_testkit::collection::vec(mpc_testkit::collection::vec(0u64..16, 2), 0..50),
        pivot in 0u64..16,
    ) {
        let mut r = Relation::new("S", 2);
        for row in &rows {
            r.push(row);
        }
        let (hi, lo) = r.partition(|row| row[0] >= pivot);
        prop_assert_eq!(hi.len() + lo.len(), r.len());
        prop_assert!(hi.rows().all(|row| row[0] >= pivot));
        prop_assert!(lo.rows().all(|row| row[0] < pivot));
    }

    /// The local join of the two-way join query agrees with a brute-force
    /// nested loop on arbitrary relations — under both the default dynamic
    /// variable order and the legacy fixed atom order.
    #[test]
    fn join_agrees_with_nested_loop(
        r1 in mpc_testkit::collection::vec(mpc_testkit::collection::vec(0u64..8, 2), 0..30),
        r2 in mpc_testkit::collection::vec(mpc_testkit::collection::vec(0u64..8, 2), 0..30),
    ) {
        let q = named::two_way_join();
        let mut s1 = Relation::new("S1", 2);
        for row in &r1 { s1.push(row); }
        let mut s2 = Relation::new("S2", 2);
        for row in &r2 { s2.push(row); }
        let fast = Join::new(&q, &[&s1, &s2]).count().unwrap();
        let fixed = Join::new(&q, &[&s1, &s2]).order(JoinOrder::Fixed).count().unwrap();
        let slow = r1.iter()
            .flat_map(|a| r2.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a[1] == b[1])
            .count() as u64;
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fixed, slow);
    }

    /// Dynamic, fixed, and a brute-force triple nested loop produce the
    /// identical answer *multiset* on the triangle. The generated row
    /// lists carry duplicate tuples, and shrinking drives the relations
    /// through empty shapes, so the multiset contract (one expanded answer
    /// per contributing tuple combination) is pinned across the board.
    #[test]
    fn dynamic_fixed_and_nested_loop_agree_on_triangle(
        r1 in mpc_testkit::collection::vec(mpc_testkit::collection::vec(0u64..5, 2), 0..25),
        r2 in mpc_testkit::collection::vec(mpc_testkit::collection::vec(0u64..5, 2), 0..25),
        r3 in mpc_testkit::collection::vec(mpc_testkit::collection::vec(0u64..5, 2), 0..25),
    ) {
        let q = named::cycle(3);
        let mk = |name: &str, rows: &Vec<Vec<u64>>| {
            let mut r = Relation::new(name, 2);
            for row in rows { r.push(row); }
            r
        };
        let (s1, s2, s3) = (mk("S1", &r1), mk("S2", &r2), mk("S3", &r3));
        // Brute force: every (a, b, c) with a=(x1,x2), b=(x2,x3), c=(x3,x1).
        let mut slow: Vec<Vec<u64>> = Vec::new();
        for a in &r1 {
            for b in &r2 {
                for c in &r3 {
                    if a[1] == b[0] && b[1] == c[0] && c[1] == a[0] {
                        slow.push(vec![a[0], a[1], b[1]]);
                    }
                }
            }
        }
        slow.sort();
        let rels = [&s1, &s2, &s3];
        prop_assert_eq!(sorted_answers(&q, &rels, JoinOrder::Dynamic), slow.clone());
        prop_assert_eq!(sorted_answers(&q, &rels, JoinOrder::Fixed), slow);
    }

    /// Dynamic and fixed agree on Zipf-skewed triangles (the aligned
    /// local-skew shape `zipf_column` plants: x2 hot in both S1 and S2),
    /// across seeds and skew exponents.
    #[test]
    fn dynamic_matches_fixed_on_zipf_triangle(seed in 0u64..400, theta in 0.4f64..2.0) {
        let q = named::cycle(3);
        let mut rng = Rng::seed_from_u64(seed);
        let (m, n) = (60, 16);
        let s1 = generators::zipf_column("S1", 2, m, n, 1, theta, &mut rng);
        let s2 = generators::zipf_column("S2", 2, m, n, 0, theta, &mut rng);
        let s3 = generators::uniform("S3", 2, m, n, &mut rng);
        let rels = [&s1, &s2, &s3];
        prop_assert_eq!(
            sorted_answers(&q, &rels, JoinOrder::Dynamic),
            sorted_answers(&q, &rels, JoinOrder::Fixed)
        );
    }

    /// All-duplicate relations (a single tuple repeated `c` times, `c = 0`
    /// included — the empty relation): both engines emit exactly
    /// `c1·c2·c3` copies of the joining binding when the three tuples
    /// close a triangle, and nothing otherwise. Exercises the multiplicity
    /// fast path (leaf multiplicity = product of candidate counts) at its
    /// degenerate extreme.
    #[test]
    fn engines_agree_on_all_duplicate_relations(
        a in mpc_testkit::collection::vec(0u64..3, 2), c1 in 0usize..9,
        b in mpc_testkit::collection::vec(0u64..3, 2), c2 in 0usize..9,
        c in mpc_testkit::collection::vec(0u64..3, 2), c3 in 0usize..9,
    ) {
        let q = named::cycle(3);
        let mk = |name: &str, row: &[u64], count: usize| {
            let mut r = Relation::new(name, 2);
            for _ in 0..count { r.push(row); }
            r
        };
        let (s1, s2, s3) = (mk("S1", &a, c1), mk("S2", &b, c2), mk("S3", &c, c3));
        let joins = a[1] == b[0] && b[1] == c[0] && c[1] == a[0];
        let want = if joins { (c1 * c2 * c3) as u64 } else { 0 };
        for order in [JoinOrder::Dynamic, JoinOrder::Fixed] {
            let got = sorted_answers(&q, &[&s1, &s2, &s3], order);
            prop_assert_eq!(got.len() as u64, want);
            prop_assert!(got.iter().all(|bnd| bnd == &[a[0], a[1], b[1]]));
        }
    }

    /// Join output tuples actually satisfy every atom.
    #[test]
    fn join_outputs_are_sound(
        r1 in mpc_testkit::collection::vec(mpc_testkit::collection::vec(0u64..6, 2), 1..25),
        r2 in mpc_testkit::collection::vec(mpc_testkit::collection::vec(0u64..6, 2), 1..25),
        r3 in mpc_testkit::collection::vec(mpc_testkit::collection::vec(0u64..6, 2), 1..25),
    ) {
        let q = named::cycle(3);
        let mk = |name: &str, rows: &Vec<Vec<u64>>| {
            let mut r = Relation::new(name, 2);
            for row in rows { r.push(row); }
            r.sort_dedup();
            r
        };
        let s1 = mk("S1", &r1);
        let s2 = mk("S2", &r2);
        let s3 = mk("S3", &r3);
        for ans in Join::new(&q, &[&s1, &s2, &s3]).answers().unwrap().rows() {
            for (j, s) in [&s1, &s2, &s3].iter().enumerate() {
                let atom = q.atom(j);
                let proj: Vec<u64> = atom.vars().iter().map(|&v| ans[v]).collect();
                prop_assert!(s.rows().any(|row| row == proj.as_slice()),
                    "answer {:?} not supported by atom {}", ans, atom.name());
            }
        }
    }

    /// `AnswerSet::sort_dedup` + `rows()` is pointwise identical to the
    /// legacy nested-vec sort+dedup, across arities 1..=3 (the flat values
    /// are chunked into rows, so empty and all-duplicate row sets occur
    /// naturally under shrinking; dedicated unit cases below pin them too).
    #[test]
    fn answer_set_sort_dedup_matches_legacy(
        arity in 1usize..4,
        vals in mpc_testkit::collection::vec(0u64..5, 0..120),
    ) {
        let rows: Vec<Vec<u64>> = vals.chunks_exact(arity).map(|c| c.to_vec()).collect();
        let mut legacy = rows.clone();
        legacy.sort();
        legacy.dedup();

        let mut flat = AnswerSet::new(arity);
        for row in &rows {
            flat.push(row);
        }
        flat.sort_dedup();
        prop_assert_eq!(flat.len(), legacy.len());
        for (got, want) in flat.rows().zip(&legacy) {
            prop_assert_eq!(got, want.as_slice());
        }
        // The nested escape hatch and equality shims agree too.
        prop_assert_eq!(flat.to_nested(), legacy.clone());
        prop_assert_eq!(flat, legacy);
    }

    /// The CSR `JoinIndex` returns exactly the legacy HashMap buckets
    /// (same row ids, same ascending order) for every present key, and an
    /// empty slice for absent keys.
    #[test]
    fn csr_index_matches_legacy_hashmap_buckets(
        vals in mpc_testkit::collection::vec(0u64..4, 0..90),
        keyspec in 0usize..6,
    ) {
        let arity = 3usize;
        let mut rel = Relation::new("S", arity);
        for row in vals.chunks_exact(arity) {
            rel.push(row);
        }
        // Key column subsets: {}, {0}, {1}, {2}, {0,2}, {1,0} (order matters).
        let key_cols: Vec<usize> = match keyspec {
            0 => vec![],
            1 => vec![0],
            2 => vec![1],
            3 => vec![2],
            4 => vec![0, 2],
            _ => vec![1, 0],
        };

        // Legacy construction: one key Vec + one bucket Vec per key.
        let mut buckets: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
        for (i, row) in rel.rows().enumerate() {
            let key: Vec<u64> = key_cols.iter().map(|&c| row[c]).collect();
            buckets.entry(key).or_default().push(i as u32);
        }

        let idx = JoinIndex::build(&rel, key_cols.clone());
        if key_cols.is_empty() {
            let all: Vec<u32> = (0..rel.len() as u32).collect();
            prop_assert_eq!(idx.candidates(&[]), all.as_slice());
        } else {
            for (key, want) in &buckets {
                prop_assert_eq!(idx.candidates(key), want.as_slice());
            }
            // Absent keys (the domain above is 0..4) return empty slices.
            prop_assert!(idx.candidates(&vec![9u64; key_cols.len()]).is_empty());
        }
    }

    /// Generators honor their cardinality and domain contracts.
    #[test]
    fn generators_respect_contracts(seed in 0u64..1000, m in 1usize..200) {
        let mut rng = Rng::seed_from_u64(seed);
        let n = 256u64;
        let u = generators::uniform("U", 2, m, n, &mut rng);
        prop_assert_eq!(u.len(), m);
        prop_assert!(u.rows().all(|row| row.iter().all(|&v| v < n)));
        let mt = generators::matching("M", 2, m, n, &mut rng);
        prop_assert_eq!(mt.len(), m);
        prop_assert_eq!(mt.max_frequency(&[0]), 1);
        prop_assert_eq!(mt.max_frequency(&[1]), 1);
    }

    /// zipf_degrees always sums to m and never exceeds the domain.
    #[test]
    fn zipf_degrees_exact(m in 1usize..5000, theta in 0.0f64..2.5) {
        let n = 1u64 << 14;
        let deg = generators::zipf_degrees(m, n, theta);
        let total: usize = deg.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, m);
        prop_assert!(deg.iter().all(|(k, _)| k[0] < n));
        // Keys are distinct.
        let mut keys: Vec<u64> = deg.iter().map(|(k, _)| k[0]).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), deg.len());
    }
}
