//! # mpc-query
//!
//! Conjunctive-query structures for the `mpc-skew` workspace, following
//! Sections 2.2, 3.3 and 4.3 of Beame–Koutris–Suciu (PODS 2014):
//!
//! * [`query::Query`] — full conjunctive queries without self-joins, with a
//!   text [`parser`];
//! * [`aggregate::AggregateSpec`] — optional aggregate heads (group-by +
//!   COUNT/SUM/MIN/MAX/COUNT DISTINCT) over a query's bindings;
//! * [`varset::VarSet`] — compact variable sets (`x` in `q_x`);
//! * [`packing`] — fractional edge packings and the exact vertex set
//!   `pk(q)` of the packing polytope;
//! * [`cover`] — fractional edge covers, `ρ*`, the AGM bound, and `τ*` as
//!   the vertex-cover LP (equal to the packing value by LP duality);
//! * [`residual`] — residual queries `q_x` and saturating packings for the
//!   skewed lower bound (Theorem 4.7);
//! * [`named`] — the standard example queries (`C3`, chains, stars,
//!   cartesian products, the two-way join).

pub mod aggregate;
pub mod cover;
pub mod named;
pub mod packing;
pub mod parser;
pub mod query;
pub mod residual;
pub mod varset;

pub use aggregate::{AggregateOp, AggregateSpec};
pub use packing::{max_packing_value, packing_vertices, pk, Packing};
pub use parser::{parse_aggregate_query, parse_query};
pub use query::{Atom, Query, QueryError, QueryShape};
pub use residual::{residual_query, saturates, saturating_packing_vertices, saturating_pk};
pub use varset::VarSet;
