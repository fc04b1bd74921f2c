//! Experiment implementations (E1–E13). Each module's `run()` regenerates
//! one table/figure/worked example of the paper; [`ALL`] names them for the
//! `exp` binary.

pub mod e10_ablation_shares;
pub mod e11_ablation_skew;
pub mod e12_sampling;
pub mod e13_multi_round;
pub mod e1_cartesian;
pub mod e2_example33;
pub mod e3_example37;
pub mod e4_skewfree_hc;
pub mod e5_hashing;
pub mod e6_skew_join;
pub mod e7_residual_bounds;
pub mod e8_general_skew;
pub mod e9_replication;

/// Every experiment in order, under the name the `exp` binary takes.
pub const ALL: [(&str, fn()); 13] = [
    ("cartesian", e1_cartesian::run),
    ("example33", e2_example33::run),
    ("example37", e3_example37::run),
    ("skewfree_hc", e4_skewfree_hc::run),
    ("hashing", e5_hashing::run),
    ("skew_join", e6_skew_join::run),
    ("residual_bounds", e7_residual_bounds::run),
    ("general_skew", e8_general_skew::run),
    ("replication", e9_replication::run),
    ("ablation_shares", e10_ablation_shares::run),
    ("ablation_skew", e11_ablation_skew::run),
    ("sampling", e12_sampling::run),
    ("multi_round", e13_multi_round::run),
];
