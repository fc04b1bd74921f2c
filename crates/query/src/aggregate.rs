//! Aggregate heads over full conjunctive queries.
//!
//! A conjunctive query's answers are bindings of its variables; an
//! *aggregate head* asks for a summary of those bindings instead of the
//! bindings themselves: `Q(x; count) :- R(x,y), S(y,z)` groups the join by
//! `x` and counts the derivations per group. [`AggregateSpec`] carries the
//! group-by variables and the aggregate ops as *variable indices* into the
//! body query, so a spec survives [`crate::query::Query::canonical`]
//! renaming unchanged — plan caches can key on it directly.
//!
//! Semantics are bag (SQL) semantics over join *derivations*: every
//! combination of body tuples deriving a binding contributes once. COUNT
//! is the number of derivations in the group, SUM adds the bound value
//! once per derivation, MIN/MAX are multiplicity-independent, and COUNT
//! DISTINCT counts distinct bound values. Derivations — unlike distinct
//! bindings — partition cleanly across the servers of every one-round
//! algorithm, which is what makes per-server folding exact.
//!
//! ```
//! use mpc_query::parse_aggregate_query;
//!
//! let (q, spec) = parse_aggregate_query("Q(x; count, sum(z)) :- S1(x,y), S2(y,z)").unwrap();
//! let spec = spec.expect("aggregate head");
//! assert_eq!(spec.group_by(), &[q.var_index("x").unwrap()]);
//! assert_eq!(spec.ops().len(), 2);
//! assert_eq!(spec.display_with(&q), "x; count, sum(z)");
//! ```

use crate::query::{Query, QueryError};
use std::fmt::Write as _;

/// One aggregate operation over the join's bindings. Variable operands are
/// indices into the body query's variables (see [`Query::var_index`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggregateOp {
    /// Number of derivations in the group (`COUNT(*)` under bag
    /// semantics).
    Count,
    /// Sum of the variable over all derivations (accumulated in `u128`, so
    /// `|output| × domain` cannot overflow).
    Sum(usize),
    /// Smallest value the variable takes in the group.
    Min(usize),
    /// Largest value the variable takes in the group.
    Max(usize),
    /// Number of distinct values the variable takes in the group.
    CountDistinct(usize),
}

impl AggregateOp {
    /// The operand variable, when the op has one.
    pub(crate) fn var(self) -> Option<usize> {
        match self {
            AggregateOp::Count => None,
            AggregateOp::Sum(v)
            | AggregateOp::Min(v)
            | AggregateOp::Max(v)
            | AggregateOp::CountDistinct(v) => Some(v),
        }
    }

    /// The op's keyword as it appears in query text.
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            AggregateOp::Count => "count",
            AggregateOp::Sum(_) => "sum",
            AggregateOp::Min(_) => "min",
            AggregateOp::Max(_) => "max",
            AggregateOp::CountDistinct(_) => "count_distinct",
        }
    }

    /// Render with the operand variable named through `q`.
    pub(crate) fn display_with(self, q: &Query) -> String {
        match self.var() {
            None => self.keyword().to_string(),
            Some(v) => format!("{}({})", self.keyword(), q.var_name(v)),
        }
    }
}

/// An aggregate head: group-by variables plus one or more ops, all as
/// variable indices into the body query. Hash/Eq so plan-cache keys can
/// include the spec verbatim.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AggregateSpec {
    group_by: Vec<usize>,
    ops: Vec<AggregateOp>,
}

impl AggregateSpec {
    /// Build a spec. `group_by` may be empty (one global group); `ops`
    /// must not be.
    pub fn new(group_by: Vec<usize>, ops: Vec<AggregateOp>) -> Result<AggregateSpec, QueryError> {
        if ops.is_empty() {
            return Err(QueryError::Parse(
                "aggregate head needs at least one op".to_string(),
            ));
        }
        let mut seen = group_by.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != group_by.len() {
            return Err(QueryError::Parse(
                "aggregate head repeats a group-by variable".to_string(),
            ));
        }
        Ok(AggregateSpec { group_by, ops })
    }

    /// Check every variable index against `q`.
    pub fn validate_for(&self, q: &Query) -> Result<(), QueryError> {
        let check = |v: usize| {
            if v < q.num_vars() {
                Ok(())
            } else {
                Err(QueryError::Parse(format!(
                    "aggregate spec references variable index {v}, but the query has {}",
                    q.num_vars()
                )))
            }
        };
        for &v in &self.group_by {
            check(v)?;
        }
        for op in &self.ops {
            if let Some(v) = op.var() {
                check(v)?;
            }
        }
        Ok(())
    }

    /// The group-by variable indices, in head order.
    pub fn group_by(&self) -> &[usize] {
        &self.group_by
    }

    /// The aggregate ops, in head order.
    pub fn ops(&self) -> &[AggregateOp] {
        &self.ops
    }

    /// Render the head's inside as query text, variables named through
    /// `q`: `"x; count, sum(z)"`.
    pub fn display_with(&self, q: &Query) -> String {
        let mut out = String::new();
        for (i, &v) in self.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(q.var_name(v));
        }
        out.push_str("; ");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", op.display_with(q));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;

    #[test]
    fn spec_accessors_and_display() {
        let q = named::two_way_join(); // S1(x,z), S2(y,z)
        let spec = AggregateSpec::new(
            vec![0],
            vec![AggregateOp::Count, AggregateOp::Sum(1), AggregateOp::Max(2)],
        )
        .unwrap();
        spec.validate_for(&q).unwrap();
        assert_eq!(spec.group_by(), &[0]);
        assert_eq!(spec.ops().len(), 3);
        assert_eq!(
            spec.display_with(&q),
            format!(
                "{}; count, sum({}), max({})",
                q.var_name(0),
                q.var_name(1),
                q.var_name(2)
            )
        );
    }

    #[test]
    fn global_group_displays_bare_ops() {
        let q = named::two_way_join();
        let spec = AggregateSpec::new(vec![], vec![AggregateOp::Count]).unwrap();
        assert_eq!(spec.display_with(&q), "; count");
    }

    #[test]
    fn rejects_empty_ops_and_duplicate_groups() {
        assert!(AggregateSpec::new(vec![0], vec![]).is_err());
        assert!(AggregateSpec::new(vec![0, 0], vec![AggregateOp::Count]).is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_vars() {
        let q = named::two_way_join(); // 3 variables
        let spec = AggregateSpec::new(vec![3], vec![AggregateOp::Count]).unwrap();
        assert!(spec.validate_for(&q).is_err());
        let spec = AggregateSpec::new(vec![], vec![AggregateOp::Sum(9)]).unwrap();
        assert!(spec.validate_for(&q).is_err());
    }

    #[test]
    fn op_metadata() {
        assert_eq!(AggregateOp::Count.var(), None);
        assert_eq!(AggregateOp::CountDistinct(4).var(), Some(4));
        assert_eq!(AggregateOp::Sum(1).keyword(), "sum");
    }
}
