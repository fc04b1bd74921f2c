//! # mpc-stats
//!
//! Database statistics for the `mpc-skew` workspace, covering both
//! information regimes of Beame–Koutris–Suciu (PODS 2014):
//!
//! * [`cardinality::SimpleStatistics`] — cardinalities and bit sizes
//!   (Section 3's "simple database statistics");
//! * [`source`] — [`Stats`], the one trait a planner asks its two
//!   questions through (cardinalities, heavy hitters), and its sources:
//!   [`ExactStats`] (scan-based oracle), [`SketchStats`],
//!   [`SyntheticStats`];
//! * [`sketch`] — [`RelationSketch`], the one statistics state anything
//!   maintains: SpaceSaving summaries per projection, advanced per
//!   appended tuple, reporting each count as a [`FreqEstimate`] overcount
//!   interval — exact statistics are the same state at unbounded capacity;
//! * [`heavy`] — heavy-hitter sets per `(relation, attribute subset)` at
//!   the `m_j/p` threshold (Section 4), from any [`Stats`] source;
//! * [`bins`] — the `log2 p` geometric frequency bins and bin exponents of
//!   Section 4.2;
//! * [`combination`] — bin combinations (Definition 4.1) with capped
//!   assignment sets (`|C'(B)| <= p`, Lemma 4.2), over a [`HeavyTable`]
//!   read once per plan;
//! * [`degree`] — exact x-statistics / degree sequences and the factorized
//!   sum-of-products evaluator behind the `L_x(u, M, p)` lower bound
//!   (Theorem 4.7).

pub mod bins;
pub mod cardinality;
pub mod combination;
pub mod degree;
pub mod heavy;
pub mod sketch;
pub mod source;

pub use bins::{bin_of_frequency, num_bins, BinnedHitters, LIGHT_BIN_EXPONENT};
pub use cardinality::SimpleStatistics;
pub use combination::{
    enumerate_combinations, enumerate_combinations_with, heavy_table, BinChoice, BinCombination,
    CombinationAssignment, HeavyTable,
};
pub use degree::{degree_statistics, sum_over_assignments, DegreeStatistics};
pub use heavy::{heavy_hitters, HeavyHitters};
pub use sketch::{FreqEstimate, RelationSketch, SpaceSaving};
pub use source::{ExactStats, SketchStats, Stats, SyntheticStats};
