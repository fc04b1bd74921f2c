//! Property tests for the MPC simulator substrate.

use mpc_data::{generators, Database, Rng};
use mpc_query::named;
use mpc_sim::cluster::Cluster;
use mpc_sim::topology::{round_shares, Grid};
use mpc_testkit::prelude::*;

fn arb_dims() -> impl Strategy<Value = Vec<usize>> {
    mpc_testkit::collection::vec(1usize..6, 1..4)
}

/// Reference subcube enumeration, independent of `SubcubePlan`: pin the
/// fixed coordinates (conflicting pins of one dimension → nothing), then
/// walk the free dimensions with an odometer, last dimension fastest, and
/// `encode` every cell.
fn odometer_subcube(g: &Grid, fixed: &[(usize, usize)]) -> Vec<usize> {
    let dims = g.dims();
    let mut pinned: Vec<Option<usize>> = vec![None; dims.len()];
    for &(dim, c) in fixed {
        if pinned[dim].is_some_and(|prev| prev != c) {
            return Vec::new();
        }
        pinned[dim] = Some(c);
    }
    let mut cell: Vec<usize> = pinned.iter().map(|c| c.unwrap_or(0)).collect();
    let mut out = Vec::new();
    loop {
        out.push(g.encode(&cell));
        let Some(i) = (0..dims.len())
            .rev()
            .find(|&i| pinned[i].is_none() && cell[i] + 1 < dims[i])
        else {
            return out;
        };
        cell[i] += 1;
        for later in i + 1..dims.len() {
            if pinned[later].is_none() {
                cell[later] = 0;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mixed-radix encode/decode round-trips for every cell.
    #[test]
    fn grid_encode_decode_roundtrip(dims in arb_dims()) {
        let g = Grid::new(dims);
        for id in 0..g.num_cells() {
            prop_assert_eq!(g.encode(&g.decode(id)), id);
        }
    }

    /// Subcubes over a fixed dimension partition the grid: every cell lies
    /// in exactly one subcube slice.
    #[test]
    fn subcube_slices_partition(dims in arb_dims(), dim_sel in 0usize..4) {
        let g = Grid::new(dims.clone());
        let dim = dim_sel % dims.len();
        let mut seen = vec![0usize; g.num_cells()];
        for c in 0..dims[dim] {
            for cell in g.subcube_vec(&[(dim, c)]) {
                seen[cell] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1), "slices overlap or miss cells");
    }

    /// The compiled subcube equals the reference odometer on random grids
    /// (rank 1–5, dims 1–7) and random fixed sets — nothing fixed
    /// (broadcast), every dimension fixed, a dimension fixed twice to the
    /// same or to different coordinates — and is strictly ascending.
    #[test]
    fn subcube_plan_matches_reference_odometer(
        dims in mpc_testkit::collection::vec(1usize..8, 1..6),
        picks in mpc_testkit::collection::vec((0usize..5, 0usize..7), 0..7),
    ) {
        let g = Grid::new(dims.clone());
        let fixed: Vec<(usize, usize)> = picks
            .iter()
            .map(|&(d, c)| (d % dims.len(), c % dims[d % dims.len()]))
            .collect();
        let expected = odometer_subcube(&g, &fixed);
        prop_assert!(expected.windows(2).all(|w| w[0] < w[1]), "reference not ascending");

        let (fixed_dims, coords): (Vec<usize>, Vec<usize>) = fixed.iter().copied().unzip();
        let plans = g.subcubes([&fixed_dims[..]]);
        let plan = plans.get(0);
        let mut got = Vec::new();
        if let Some(base) = plan.base(&coords) {
            got.extend(plan.offsets().iter().map(|&o| base + o as usize));
            // The slice the coordinates number starts at the same cell.
            let first = |i: &usize| !fixed_dims[..*i].contains(&fixed_dims[*i]);
            let slices: usize = (0..fixed_dims.len()).filter(first).map(|i| dims[fixed_dims[i]]).product();
            prop_assert_eq!(plan.slices(), slices);
            let slice = plan.slice(|i, dim, size| {
                assert_eq!((dim, size), (fixed_dims[i], dims[fixed_dims[i]]));
                coords[i]
            });
            let slice = slice.expect("the coordinates agree");
            prop_assert!(slice < slices);
            prop_assert_eq!(plan.first_cell(slice), base);
        }
        prop_assert_eq!(&got, &expected, "dims {:?} fixed {:?}", dims, fixed);
        // The convenience wrappers are the same enumeration.
        prop_assert_eq!(g.subcube_vec(&fixed), expected);

        // A dimension fixed twice: agreeing is the single subcube,
        // conflicting is empty.
        if let Some(&(dim, c)) = fixed.first() {
            let mut twice = fixed.clone();
            twice.push((dim, c));
            prop_assert_eq!(g.subcube_vec(&twice), odometer_subcube(&g, &fixed));
            if dims[dim] > 1 {
                twice.push((dim, (c + 1) % dims[dim]));
                prop_assert!(g.subcube_vec(&twice).is_empty());
            }
        }
    }

    /// Subcube sizes multiply: |subcube(fixed)| = Π over free dims.
    #[test]
    fn subcube_size_is_product_of_free_dims(dims in arb_dims()) {
        let g = Grid::new(dims.clone());
        // Fix dimension 0 (always present).
        let sub = g.subcube_vec(&[(0, 0)]);
        let expected: usize = dims.iter().skip(1).product();
        prop_assert_eq!(sub.len(), expected);
    }

    /// round_shares never exceeds the budget and never starves a dimension.
    #[test]
    fn round_shares_budget(
        p in 1usize..5000,
        exps in mpc_testkit::collection::vec(0.0f64..1.0, 1..5),
    ) {
        // Normalize exponents to sum <= 1 as the LP guarantees.
        let total: f64 = exps.iter().sum();
        let exps: Vec<f64> = if total > 1.0 {
            exps.iter().map(|e| e / total).collect()
        } else {
            exps
        };
        let shares = round_shares(p, &exps);
        let product: usize = shares.iter().product();
        prop_assert!(product <= p.max(1), "p={p} exps={exps:?} shares={shares:?}");
        prop_assert!(shares.iter().all(|&s| s >= 1));
    }

    /// Conservation: the cluster's total received tuples equal the sum of
    /// per-tuple destination counts, for an arbitrary deterministic router.
    #[test]
    fn cluster_conserves_tuples(seed in 0u64..500, p in 1usize..12, fanout in 1usize..4) {
        let q = named::two_way_join();
        let n = 256u64;
        let mut rng = Rng::seed_from_u64(seed);
        let s1 = generators::uniform("S1", 2, 200, n, &mut rng);
        let s2 = generators::uniform("S2", 2, 100, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        let router = move |_atom: usize, tuple: &[u64], out: &mut Vec<usize>| {
            for i in 0..fanout {
                out.push(((tuple[0] as usize) + i * 7) % p);
            }
        };
        let cluster = Cluster::run_round(&db, p, &router);
        let report = cluster.report();
        // Destinations may collide (dedup), so total <= 300 * fanout and
        // >= 300 (every tuple lands somewhere at least once).
        prop_assert!(report.total_tuples() <= (300 * fanout) as u64);
        prop_assert!(report.total_tuples() >= 300);
        // Bits are consistent with tuples: each tuple is 2 values wide.
        let bits = db.value_bits() as u64;
        prop_assert_eq!(report.total_bits(), report.total_tuples() * 2 * bits);
    }
}
