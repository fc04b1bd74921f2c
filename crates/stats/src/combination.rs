//! Bin combinations (Definition 4.1) and their assignment sets.
//!
//! A *bin combination* `B = (x, (β_j)_j)` picks a variable set `x ⊆ vars(q)`
//! and, for every atom with `x_j = x ∩ vars(S_j) ≠ ∅`, a frequency bin of
//! that atom's `x_j`-projection (a heavy bin `b` with exponent
//! `β = log_p 2^{b-1}`, or the light bin with exponent 1). `C(B)` is the set
//! of joint assignments `h` to `x` realizing those bins.
//!
//! The paper's algorithm caps the assignments actually processed per
//! combination at `p` (`|C'(B)| <= p`, Lemma 4.2) via the overweight
//! recursion; this collector enforces the same cap by keeping the
//! heaviest-by-frequency-product assignments, which realizes the same
//! guarantee directly from the statistics it already holds (the deviation
//! is stated in `mpc_core::skew_general`'s module docs).
//!
//! Enumerating `C(B)` requires every variable of `x` to be pinned by at
//! least one atom in a *heavy* bin (light projections have up to `n`
//! distinct values and are handled by the residual-share LP, not by
//! per-assignment processing). Combinations violating that are skipped.

use crate::bins::{bin_exponent, BinnedHitters, LIGHT_BIN_EXPONENT};
use crate::heavy::HeavyHitters;
use crate::source::{ExactStats, Stats};
use mpc_data::catalog::Database;
use mpc_query::{Query, VarSet};
use std::collections::HashMap;

/// The per-atom bin choice inside a combination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinChoice {
    /// `x_j = ∅`: the atom does not participate (`β_j = 0`).
    Absent,
    /// Heavy bin `b` (1-based): `β_j = log_p 2^{b-1}`.
    Heavy(usize),
    /// The light bin: `β_j = 1`.
    Light,
}

/// One joint assignment `h ∈ C'(B)` with its per-atom frequencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CombinationAssignment {
    /// Values for the variables of `x`, in `x.iter()` order.
    pub values: Vec<u64>,
    /// `m_j(h_j)` per atom (`None` where `x_j = ∅`).
    pub freqs: Vec<Option<usize>>,
}

/// A bin combination with its (capped) assignment set.
#[derive(Clone, Debug)]
pub struct BinCombination {
    /// The variable set `x`.
    pub x: VarSet,
    /// Per-atom bin choice.
    pub bins: Vec<BinChoice>,
    /// Per-atom bin exponents `β_j` (0 for absent atoms, 1 for light).
    pub beta: Vec<f64>,
    /// `C'(B)`: at most `p` assignments.
    pub assignments: Vec<CombinationAssignment>,
}

impl BinCombination {
    /// `α = log_p |C'(B)|` — the exponent of the assignment count.
    pub fn alpha(&self, p: usize) -> f64 {
        if self.assignments.is_empty() {
            0.0
        } else {
            (self.assignments.len() as f64).ln() / (p as f64).ln()
        }
    }

    /// The empty combination `B_∅` (x = ∅, all atoms absent, one empty
    /// assignment) that drives the all-light run of the general algorithm.
    pub fn empty(num_atoms: usize) -> BinCombination {
        BinCombination {
            x: VarSet::EMPTY,
            bins: vec![BinChoice::Absent; num_atoms],
            beta: vec![0.0; num_atoms],
            assignments: vec![CombinationAssignment {
                values: Vec::new(),
                freqs: vec![None; num_atoms],
            }],
        }
    }
}

/// Enumerate the bin combinations realized by the data, including `B_∅`,
/// with `|C'(B)| <= p` per combination.
///
/// For every nonempty `x ⊆ vars(q)` and every per-atom bin choice (over
/// occupied heavy bins plus Light), the assignments are the join of the
/// chosen heavy bins' members, filtered so light-choosing atoms really see a
/// light projection. Combinations whose heavy atoms do not cover `x`, or
/// with no realizable assignment, are dropped.
pub fn enumerate_combinations(db: &Database, p: usize) -> Vec<BinCombination> {
    enumerate_combinations_with(db.query(), p, &ExactStats::of(db))
}

/// [`enumerate_combinations`] over any [`Stats`] source — heavy sets come
/// from [`HeavyHitters::of`]'s conservative rule, light frequencies from
/// [`Stats::frequency`] (exact statistics go through the same path via
/// [`ExactStats`]).
pub fn enumerate_combinations_with(q: &Query, p: usize, stats: &dyn Stats) -> Vec<BinCombination> {
    let l = q.num_atoms();
    let mut out = vec![BinCombination::empty(l)];
    if p == 1 {
        // No frequency exceeds `m_j / 1`: nothing is heavy, nothing to bin.
        return out;
    }

    // Pre-bin every (atom, nonempty subset of its variables).
    let mut binned: HashMap<(usize, VarSet), BinnedHitters> = HashMap::new();
    for (j, &m) in stats.simple().cardinalities.iter().enumerate() {
        for sub in q.atom(j).var_set().subsets() {
            if sub.is_empty() {
                continue;
            }
            let heavy = HeavyHitters::of(q, stats, m, j, sub, p);
            binned.insert((j, sub), BinnedHitters::build(heavy));
        }
    }

    for x in q.all_vars().subsets() {
        if x.is_empty() {
            continue;
        }
        let xj: Vec<VarSet> = (0..l).map(|j| x.intersect(q.atom(j).var_set())).collect();
        let participants: Vec<usize> = (0..l).filter(|&j| !xj[j].is_empty()).collect();
        if participants.is_empty() {
            continue;
        }
        // Per-participant choices: occupied heavy bins + Light.
        let choices: Vec<Vec<BinChoice>> = participants
            .iter()
            .map(|&j| {
                let bh = &binned[&(j, xj[j])];
                let mut cs: Vec<BinChoice> =
                    bh.occupied().map(|(b, _)| BinChoice::Heavy(b)).collect();
                cs.push(BinChoice::Light);
                cs
            })
            .collect();
        // Cartesian product over participant choices (odometer).
        let mut odo = vec![0usize; participants.len()];
        'combos: loop {
            let chosen: Vec<&BinChoice> = odo.iter().zip(&choices).map(|(&i, cs)| &cs[i]).collect();
            // Coverage check: heavy atoms must pin all of x.
            let covered = participants
                .iter()
                .zip(&chosen)
                .filter(|(_, c)| matches!(c, BinChoice::Heavy(_)))
                .fold(VarSet::EMPTY, |s, (&j, _)| s.union(xj[j]));
            if covered == x {
                if let Some(combo) =
                    realize_combination(q, p, x, &participants, &chosen, &binned, stats)
                {
                    out.push(combo);
                }
            }
            // Advance odometer.
            let mut i = participants.len();
            loop {
                if i == 0 {
                    break 'combos;
                }
                i -= 1;
                odo[i] += 1;
                if odo[i] < choices[i].len() {
                    break;
                }
                odo[i] = 0;
            }
        }
    }
    out
}

/// Join the chosen heavy bins' members into joint assignments, verify light
/// choices, cap at `p`, and package the combination.
#[allow(clippy::too_many_arguments)]
fn realize_combination(
    q: &Query,
    p: usize,
    x: VarSet,
    participants: &[usize],
    chosen: &[&BinChoice],
    binned: &HashMap<(usize, VarSet), BinnedHitters>,
    stats: &dyn Stats,
) -> Option<BinCombination> {
    let l = q.num_atoms();
    let xvars: Vec<usize> = x.iter().collect();
    let d = xvars.len();

    // Join heavy members across heavy atoms.
    let mut partials: Vec<Vec<Option<u64>>> = vec![vec![None; d]];
    for (&j, choice) in participants.iter().zip(chosen) {
        let BinChoice::Heavy(b) = choice else {
            continue;
        };
        let bh = &binned[&(j, x.intersect(q.atom(j).var_set()))];
        let members = &bh.bins[b - 1];
        let slots: Vec<usize> = bh
            .source
            .vars
            .iter()
            .map(|v| xvars.iter().position(|&w| w == v).expect("x_j ⊆ x"))
            .collect();
        let mut next = Vec::new();
        for partial in &partials {
            for (key, _freq) in members {
                let mut v2 = partial.clone();
                let mut ok = true;
                for (i, &slot) in slots.iter().enumerate() {
                    match v2[slot] {
                        None => v2[slot] = Some(key[i]),
                        Some(existing) if existing != key[i] => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                    }
                }
                if ok {
                    next.push(v2);
                }
            }
        }
        partials = next;
        if partials.is_empty() {
            return None;
        }
    }

    // Materialize, check bins of every participant, collect frequencies.
    let mut assignments: Vec<CombinationAssignment> = Vec::new();
    'cand: for partial in partials {
        let values: Vec<u64> = partial
            .into_iter()
            .map(|v| v.expect("heavy atoms cover x"))
            .collect();
        let mut freqs: Vec<Option<usize>> = vec![None; l];
        for (&j, choice) in participants.iter().zip(chosen) {
            let bh = &binned[&(j, x.intersect(q.atom(j).var_set()))];
            let key: Vec<u64> = bh
                .source
                .vars
                .iter()
                .map(|v| values[xvars.iter().position(|&w| w == v).expect("x_j ⊆ x")])
                .collect();
            let freq = bh.source.frequency(&key);
            match (choice, freq) {
                (BinChoice::Heavy(b), Some(f)) => {
                    // Must sit in exactly the chosen bin.
                    let actual = crate::bins::bin_of_frequency(f, bh.source.cardinality, p);
                    if actual != Some(*b) {
                        continue 'cand;
                    }
                    freqs[j] = Some(f);
                }
                (BinChoice::Heavy(_), None) => continue 'cand,
                (BinChoice::Light, Some(_)) => continue 'cand, // actually heavy
                (BinChoice::Light, None) => {
                    // Light: best-known frequency (may be 0; only orders
                    // the cap, see `Stats::frequency`).
                    freqs[j] = Some(stats.frequency(j, &bh.source.cols, &key));
                }
                (BinChoice::Absent, _) => unreachable!("participants are non-absent"),
            }
        }
        assignments.push(CombinationAssignment { values, freqs });
    }
    if assignments.is_empty() {
        return None;
    }
    // Cap |C'(B)| <= p, keeping the heaviest assignments by frequency
    // product (Lemma 4.2's bound, realized greedily).
    if assignments.len() > p {
        assignments.sort_by(|a, b| {
            let fa: f64 = a
                .freqs
                .iter()
                .flatten()
                .map(|&f| (f.max(1) as f64).ln())
                .sum();
            let fb: f64 = b
                .freqs
                .iter()
                .flatten()
                .map(|&f| (f.max(1) as f64).ln())
                .sum();
            fb.partial_cmp(&fa).expect("finite")
        });
        assignments.truncate(p);
    }
    assignments.sort_by(|a, b| a.values.cmp(&b.values));

    let mut bins = vec![BinChoice::Absent; l];
    let mut beta = vec![0.0f64; l];
    for (&j, choice) in participants.iter().zip(chosen) {
        bins[j] = (*choice).clone();
        beta[j] = match choice {
            BinChoice::Heavy(b) => bin_exponent(*b, p),
            BinChoice::Light => LIGHT_BIN_EXPONENT,
            BinChoice::Absent => 0.0,
        };
    }
    Some(BinCombination {
        x,
        bins,
        beta,
        assignments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Database, Rng};
    use mpc_query::named;

    /// Join with one planted heavy z value in S1 only.
    fn one_sided_skew(p: usize) -> Database {
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(1);
        let m = 1 << 10;
        let heavy = m / 2;
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![7u64], heavy))
            .chain((0..heavy as u64).map(|i| (vec![100 + i], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, 1 << 12, &mut rng);
        let s2 = generators::matching("S2", 2, m, 1 << 12, &mut rng);
        let _ = p;
        Database::new(q, vec![s1, s2], 1 << 12).unwrap()
    }

    #[test]
    fn empty_combination_always_present() {
        let db = one_sided_skew(16);
        let combos = enumerate_combinations(&db, 16);
        assert!(combos
            .iter()
            .any(|c| c.x.is_empty() && c.assignments.len() == 1));
    }

    #[test]
    fn planted_heavy_hitter_yields_combination() {
        let db = one_sided_skew(16);
        let z = db.query().var_index("z").unwrap();
        let combos = enumerate_combinations(&db, 16);
        // Expect a combination with x = {z}, S1 heavy bin 2 (freq = m/2 sits
        // in (m/4, m/2]), S2 light, containing the assignment [7].
        let hit = combos.iter().find(|c| {
            c.x == VarSet::singleton(z)
                && c.bins[0] == BinChoice::Heavy(2)
                && c.bins[1] == BinChoice::Light
        });
        let hit = hit.expect("combination for planted skew missing");
        assert_eq!(hit.assignments.len(), 1);
        assert_eq!(hit.assignments[0].values, vec![7]);
        assert_eq!(hit.assignments[0].freqs[0], Some(512));
        // S2 is a matching: z=7 appears at most once there.
        assert!(hit.assignments[0].freqs[1].unwrap_or(0) <= 1);
        // β: bin 2 -> log_p 2 for S1; light -> 1.0 for S2.
        assert!((hit.beta[0] - 2f64.ln() / 16f64.ln()).abs() < 1e-12);
        assert_eq!(hit.beta[1], 1.0);
    }

    #[test]
    fn assignments_capped_at_p() {
        // Plant 2p-ish moderately heavy values; cap must hold.
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(2);
        let p = 8usize;
        let m = 1 << 12;
        let hh_count = 30usize;
        let per = m / hh_count; // ~136 > m/p = 512? No: 4096/8 = 512 > 136.
                                // Make them genuinely heavy: use fewer, bigger plants with p = 8:
                                // threshold 512; plant 30 values of ~600 needs m = 18000.
        let m = 18_000usize;
        let degrees: Vec<(Vec<u64>, usize)> =
            (0..hh_count as u64).map(|i| (vec![i], 600)).collect();
        let _ = per;
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, 1 << 16, &mut rng);
        let s2 = generators::matching("S2", 2, m, 1 << 16, &mut rng);
        let db = Database::new(q, vec![s1, s2], 1 << 16).unwrap();
        for combo in enumerate_combinations(&db, p) {
            assert!(
                combo.assignments.len() <= p,
                "combination exceeds cap: {} > {p}",
                combo.assignments.len()
            );
        }
    }

    #[test]
    fn alpha_matches_assignment_count() {
        let db = one_sided_skew(16);
        let combos = enumerate_combinations(&db, 16);
        for c in &combos {
            let alpha = c.alpha(16);
            assert!((0.0..=1.0 + 1e-9).contains(&alpha));
            let recon = (16f64).powf(alpha).round() as usize;
            assert_eq!(recon, c.assignments.len().max(1));
        }
    }

    #[test]
    fn skew_free_data_has_only_empty_combination() {
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(3);
        let n = 1u64 << 16;
        let s1 = generators::matching("S1", 2, 2000, n, &mut rng);
        let s2 = generators::matching("S2", 2, 2000, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        let combos = enumerate_combinations(&db, 32);
        assert_eq!(combos.len(), 1, "matchings have no heavy hitters");
        assert!(combos[0].x.is_empty());
    }

    #[test]
    fn both_sided_skew_yields_joint_combination() {
        // Heavy z = 7 in BOTH relations: expect a combination with both
        // atoms in a heavy bin (the H12 case of Section 4.1).
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(4);
        let m = 1 << 10;
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![7u64], m / 2))
            .chain((0..(m / 2) as u64).map(|i| (vec![100 + i], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, 1 << 12, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &degrees, 1 << 12, &mut rng);
        let db = Database::new(q, vec![s1, s2], 1 << 12).unwrap();
        let z = db.query().var_index("z").unwrap();
        let combos = enumerate_combinations(&db, 16);
        let joint = combos.iter().find(|c| {
            c.x == VarSet::singleton(z)
                && matches!(c.bins[0], BinChoice::Heavy(_))
                && matches!(c.bins[1], BinChoice::Heavy(_))
        });
        let joint = joint.expect("joint heavy combination missing");
        assert_eq!(joint.assignments[0].values, vec![7]);
        assert_eq!(joint.assignments[0].freqs[0], Some(512));
        assert_eq!(joint.assignments[0].freqs[1], Some(512));
    }
}
