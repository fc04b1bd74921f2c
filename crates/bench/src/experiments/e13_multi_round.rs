//! E13 — one round vs the traditional multi-round plan (§1's motivating
//! contrast).
//!
//! For each query we run (a) one-round HyperCube with LP-optimal shares and
//! (b) the classical left-deep hash-join plan (one join per round), and
//! report rounds, the maximum per-round load, and the intermediate blow-up.
//! The trade-off the introduction describes: multi-round wins per-round
//! load when intermediates are small (chains on sparse data), loses badly
//! when they explode (triangles on dense data), and always pays more
//! synchronization rounds.
//!
//! Recorded at PR 16 (`MPCSKEW_THREADS=1`): `MR max/round` 8960 / 8932 /
//! 9893 / 200256 / 16548 for the five rows below (PR 15: 8624 / 9128 /
//! 9477 / 206052 / 17928). Rounds and intermediates did not move; the
//! per-round max moved by hash placement only — the baseline's rounds are
//! `Cluster` rounds under `HashJoinRouter`'s keys now, not a private
//! shuffle's.

use crate::table::{fmt, Table};
use crate::workloads::uniform_db;
use mpc_core::engine::{Algorithm, Engine};
use mpc_core::multi_round::run_multi_round;
use mpc_query::named;
use mpc_sim::backend::Backend;

/// Run E13.
pub(crate) fn run() {
    let p = 64usize;
    let t = Table::new(
        "E13: one-round HyperCube vs multi-round hash joins (bits/server), p = 64",
        &[
            "query",
            "HC 1-round",
            "MR max/round",
            "MR rounds",
            "max intermediate",
            "input m",
        ],
    );
    // (query, m, n): n controls density and hence intermediate size.
    let cases = vec![
        (
            "join sparse",
            named::two_way_join(),
            1usize << 13,
            1u64 << 14,
        ),
        ("L3 sparse", named::chain(3), 1 << 13, 1 << 14),
        ("C3 sparse", named::cycle(3), 1 << 13, 1 << 13),
        ("C3 dense", named::cycle(3), 1 << 13, 1 << 7),
        ("star3", named::star(3), 1 << 13, 1 << 12),
    ];
    for (label, q, m, n) in cases {
        let db = uniform_db(&q, m, n, 131);
        let hc = Engine::new(&q)
            .p(p)
            .seed(5)
            .algorithm(Algorithm::HyperCube)
            .run(&db);
        // Skip full verification on the dense triangle (the output is
        // enormous); completeness is covered at sparse scales.
        if n > 1 << 8 {
            assert!(hc.verify(&db).is_complete(), "{label}: HC lost answers");
        }

        let mr = run_multi_round(&db, p, 5, Backend::from_env());
        if n > 1 << 8 {
            assert!(
                mr.answers == mpc_sim::oracle::join_database(&db),
                "{label}: multi-round lost answers"
            );
        }

        t.row(&[
            label.to_string(),
            fmt(hc.max_load_bits() as f64),
            fmt(mr.max_round_load_bits() as f64),
            mr.num_rounds().to_string(),
            fmt(mr.max_intermediate_tuples() as f64),
            m.to_string(),
        ]);
    }
    println!(
        "shape: on sparse joins/chains the per-round load of the classical plan is\n\
         competitive (its intermediates are small) at the price of extra rounds; on\n\
         the dense triangle the length-2-path intermediate explodes and the classical\n\
         plan's round load blows past one-round HyperCube — the paper's motivation for\n\
         single-round multiway evaluation."
    );
}
