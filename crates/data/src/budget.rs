//! Cooperative per-query resource budgets.
//!
//! A [`QueryBudget`] is a cheaply clonable handle (all clones share one
//! state) carrying up to three limits: a wall-clock **deadline**, a cap on
//! **answer rows** emitted, and a cap on **aggregate groups** materialized.
//! The budget is *cooperative*: the local join polls it every
//! [`CHECK_INTERVAL`] visited bindings, the shuffle polls it every 512
//! routed tuples, and the aggregate accumulators charge groups as they
//! allocate them. The first limit to fire *trips* the budget — a sticky
//! flag every clone observes — so all workers of a parallel run fail fast
//! once any one of them exceeds the budget.
//!
//! A trip is an ordinary `Err(`[`BudgetExceeded`]`)` at every layer: the
//! local join's loops return when its probe records one, so a panic always
//! means a fault and never a budget. An unlimited budget (the default)
//! costs the join one predicted compare per binding and one per emitted
//! row, and `poll` on an unlimited handle is a single branch.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in visited bindings) the local join polls its budget. Small
/// enough that a deadline fires within microseconds of expiry on any real
/// workload, large enough that the amortized cost vanishes (<2% on the
/// `local_join/*` benches is the pinned bar).
pub const CHECK_INTERVAL: u64 = 4096;

/// Which limit a [`BudgetExceeded`] fired on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// More than `max_rows` answer rows were produced.
    Rows,
    /// More than `max_groups` aggregate groups were materialized.
    Groups,
}

/// The error a budgeted evaluation returns when a limit fires. Every layer
/// hands it back as a value: the local join's probe records it and
/// [`crate::join::Join::for_each`] returns it, the shuffle and the
/// aggregate fold return it, and nothing unwinds with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The limit that fired first (sticky across every handle clone).
    pub kind: BudgetKind,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            BudgetKind::Deadline => write!(f, "query deadline exceeded"),
            BudgetKind::Rows => write!(f, "query row limit exceeded"),
            BudgetKind::Groups => write!(f, "query group limit exceeded"),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// Sticky trip state shared by every clone of a budget. 0 = live; 1..=3
/// encode the [`BudgetKind`] that fired first.
const LIVE: u8 = 0;

fn kind_code(kind: BudgetKind) -> u8 {
    match kind {
        BudgetKind::Deadline => 1,
        BudgetKind::Rows => 2,
        BudgetKind::Groups => 3,
    }
}

fn code_kind(code: u8) -> BudgetKind {
    match code {
        1 => BudgetKind::Deadline,
        2 => BudgetKind::Rows,
        _ => BudgetKind::Groups,
    }
}

#[derive(Debug)]
struct BudgetShared {
    deadline: Option<Instant>,
    max_rows: Option<u64>,
    max_groups: Option<u64>,
    rows: AtomicU64,
    tripped: AtomicU8,
}

/// A per-query resource budget: deadline, answer-row cap, aggregate-group
/// cap. Clones share state (row counts accumulate across every server of a
/// parallel run; one trip stops them all). `QueryBudget::default()` is
/// unlimited and imposes zero cost on the evaluation paths.
#[derive(Clone, Debug)]
pub struct QueryBudget {
    shared: Option<Arc<BudgetShared>>,
}

impl Default for QueryBudget {
    fn default() -> QueryBudget {
        QueryBudget::unlimited()
    }
}

impl QueryBudget {
    /// The no-limits budget: every check is a no-op.
    pub fn unlimited() -> QueryBudget {
        QueryBudget { shared: None }
    }

    /// Build a budget from its three optional limits. All `None` collapses
    /// to [`QueryBudget::unlimited`]. The deadline clock starts *now*.
    pub fn new(
        timeout: Option<Duration>,
        max_rows: Option<u64>,
        max_groups: Option<u64>,
    ) -> QueryBudget {
        if timeout.is_none() && max_rows.is_none() && max_groups.is_none() {
            return QueryBudget::unlimited();
        }
        QueryBudget {
            shared: Some(Arc::new(BudgetShared {
                deadline: timeout.map(|t| Instant::now() + t),
                max_rows,
                max_groups,
                rows: AtomicU64::new(0),
                tripped: AtomicU8::new(LIVE),
            })),
        }
    }

    /// True when no limit is set — callers skip installing checks entirely.
    pub fn is_unlimited(&self) -> bool {
        self.shared.is_none()
    }

    /// The configured group cap, if any (aggregate accumulators charge
    /// against it via [`QueryBudget::check_groups`]).
    pub(crate) fn max_groups(&self) -> Option<u64> {
        self.shared.as_ref().and_then(|s| s.max_groups)
    }

    /// Trip the budget on `kind`. First trip wins; later trips (other
    /// workers racing past their own check) keep the original kind.
    pub fn trip(&self, kind: BudgetKind) -> BudgetExceeded {
        if let Some(s) = &self.shared {
            let _ = s.tripped.compare_exchange(
                LIVE,
                kind_code(kind),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            BudgetExceeded {
                kind: code_kind(s.tripped.load(Ordering::Relaxed)),
            }
        } else {
            BudgetExceeded { kind }
        }
    }

    /// Cooperative check: the sticky trip flag first (fail fast when any
    /// worker already tripped), then the deadline, then the row cap.
    pub fn poll(&self) -> Result<(), BudgetExceeded> {
        let Some(s) = &self.shared else {
            return Ok(());
        };
        let code = s.tripped.load(Ordering::Relaxed);
        if code != LIVE {
            return Err(BudgetExceeded {
                kind: code_kind(code),
            });
        }
        if let Some(d) = s.deadline {
            if Instant::now() >= d {
                return Err(self.trip(BudgetKind::Deadline));
            }
        }
        if let Some(cap) = s.max_rows {
            if s.rows.load(Ordering::Relaxed) > cap {
                return Err(self.trip(BudgetKind::Rows));
            }
        }
        Ok(())
    }

    /// Charge `n` emitted answer rows against the row cap (shared across
    /// clones — a parallel run's servers draw down one pool).
    pub(crate) fn charge_rows(&self, n: u64) -> Result<(), BudgetExceeded> {
        let Some(s) = &self.shared else {
            return Ok(());
        };
        let total = s.rows.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if let Some(cap) = s.max_rows {
            if total > cap {
                return Err(self.trip(BudgetKind::Rows));
            }
        }
        Ok(())
    }

    /// Check a current aggregate group count against the group cap.
    pub fn check_groups(&self, groups: u64) -> Result<(), BudgetExceeded> {
        if let Some(cap) = self.max_groups() {
            if groups > cap {
                return Err(self.trip(BudgetKind::Groups));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fires() {
        let b = QueryBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.poll().is_ok());
        assert!(b.charge_rows(u64::MAX).is_ok());
        assert!(b.check_groups(u64::MAX).is_ok());
    }

    #[test]
    fn all_none_collapses_to_unlimited() {
        assert!(QueryBudget::new(None, None, None).is_unlimited());
    }

    #[test]
    fn expired_deadline_trips_on_poll() {
        let b = QueryBudget::new(Some(Duration::ZERO), None, None);
        let e = b.poll().unwrap_err();
        assert_eq!(e.kind, BudgetKind::Deadline);
        // Sticky: a clone sees the trip without consulting the clock.
        assert_eq!(b.clone().poll().unwrap_err().kind, BudgetKind::Deadline);
    }

    #[test]
    fn row_cap_counts_across_clones() {
        let b = QueryBudget::new(None, Some(10), None);
        let c = b.clone();
        assert!(b.charge_rows(6).is_ok());
        assert!(c.charge_rows(4).is_ok()); // exactly at the cap: still fine
        let e = c.charge_rows(1).unwrap_err();
        assert_eq!(e.kind, BudgetKind::Rows);
        assert_eq!(b.poll().unwrap_err().kind, BudgetKind::Rows);
    }

    #[test]
    fn first_trip_wins() {
        let b = QueryBudget::new(None, Some(1), Some(1));
        assert_eq!(b.trip(BudgetKind::Groups).kind, BudgetKind::Groups);
        assert_eq!(b.trip(BudgetKind::Rows).kind, BudgetKind::Groups);
        assert_eq!(b.poll().unwrap_err().kind, BudgetKind::Groups);
    }

    #[test]
    fn group_cap_checks() {
        let b = QueryBudget::new(None, None, Some(8));
        assert!(b.check_groups(8).is_ok());
        assert_eq!(b.check_groups(9).unwrap_err().kind, BudgetKind::Groups);
    }
}
