//! The resident query service: a long-lived catalog with maintained
//! statistics, a fingerprinted plan cache, and an incremental ingest path.
//!
//! A [`Service`] owns named relations behind [`Arc`] handles and keeps one
//! [`RelationSketch`] per relation — the only statistics state it
//! maintains, at a bounded capacity in [`StatsMode::Sketch`] and at
//! [`SpaceSaving::UNBOUNDED`] (where every count is exact) in
//! [`StatsMode::Exact`] — so the per-query pipeline becomes:
//!
//! 1. canonicalize the query ([`Query::canonical`]) and look its
//!    [`PlanKey`] up in the plan cache;
//! 2. compare the entry's stored statistics fingerprint with the current
//!    one (heavy-hitter membership over [`planning_projections`] plus
//!    power-of-two cardinality buckets — read off the sketches, no scan);
//! 3. on a hit, skip `Engine` planning entirely and execute the cached
//!    [`Plan`] against a `Database` assembled from `Arc` clones (no tuple
//!    copies, no validation rescans);
//! 4. on a miss, plan once from the maintained statistics and cache the
//!    result.
//!
//! [`Service::append`] folds new tuples into the relation and its
//! sketch in place (`O(appended × tracked projections)`) and
//! re-fingerprints only the cached plans whose query references the
//! appended relation, dropping exactly the stale ones.
//!
//! Why a stale-but-membership-equal plan is safe: every algorithm in the
//! menu computes the same answer set on any database (that is what
//! `Plan::execute`'s verification contract says), so caching can only ever
//! shift *load*, never change *answers*. The fingerprint is designed to
//! catch precisely the drift that would change the planner's mind — a
//! heavy hitter appearing on a shared variable (flips
//! [`Algorithm::Auto`] between HyperCube
//! and the §4 algorithms) or a cardinality changing by more than 2×.
//!
//! ```
//! use mpc_core::service::{CacheStatus, Service};
//! use mpc_data::relation::Relation;
//! use mpc_query::parse_query;
//!
//! let mut svc = Service::new(1 << 16).with_defaults(16, 7);
//! svc.load(Relation::from_rows("S1", 2, &[&[1, 10], &[2, 10], &[3, 20]]))
//!     .unwrap();
//! svc.load(Relation::from_rows("S2", 2, &[&[8, 10], &[9, 30]]))
//!     .unwrap();
//!
//! let q = parse_query("S1(x,z), S2(y,z)").unwrap();
//! let first = svc.query(&q).unwrap();
//! assert_eq!(first.cache_status(), CacheStatus::Miss);
//! assert_eq!(first.answers().len(), 2); // (1,10,8), (2,10,8)
//!
//! // Same query again: planning is skipped.
//! let again = svc.query(&q).unwrap();
//! assert_eq!(again.cache_status(), CacheStatus::Hit);
//! assert_eq!(again.answers(), first.answers());
//!
//! // Ingest without rebuilding; answers stay exact.
//! svc.append("S2", &[7, 20]).unwrap();
//! assert_eq!(svc.query(&q).unwrap().answers().len(), 3);
//! assert_eq!(svc.counters().hits, 1);
//! ```

use crate::engine::{
    planning_projections, sketch_capacity, Algorithm, Engine, Plan, PlanKey, RunOutcome, Stats,
    StatsMode, AGGREGATE_NEEDS_PARTITIONING, SKEW_JOIN_NEEDS_TWO_ATOMS,
};
use mpc_data::answers::AnswerSet;
use mpc_data::budget::{BudgetExceeded, BudgetKind, QueryBudget};
use mpc_data::catalog::Database;
use mpc_data::fastmap::FastMap;
use mpc_data::relation::Relation;
use mpc_data::rng::mix64;
use mpc_query::aggregate::AggregateSpec;
use mpc_query::Query;
use mpc_sim::backend::Backend;
use mpc_stats::cardinality::SimpleStatistics;
use mpc_stats::sketch::{FreqEstimate, RelationSketch, SpaceSaving};
use mpc_stats::source::ExactStats;
use std::fmt;
use std::sync::Arc;

/// Errors raised by the service surface — the one typed vocabulary the
/// wire protocol renders (`err {Display}`), replacing the ad-hoc strings
/// that used to thread through engine/service/wire. The fault-containment
/// boundary in [`Service::query_spec`] guarantees every query resolves to
/// `Ok` or one of these: worker panics become [`ServiceError::Internal`]
/// (or [`ServiceError::Unsupported`] for known capability limits), budget
/// trips become [`ServiceError::Timeout`] / [`ServiceError::LimitExceeded`],
/// and the service stays usable for the next query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The query (or its options) failed to parse at the wire layer.
    Parse(String),
    /// A query references a relation that was never loaded.
    NotLoaded(String),
    /// An atom's arity (or an appended tuple batch) disagrees with the
    /// registered relation.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Registered arity.
        expected: usize,
        /// Offending arity.
        got: usize,
    },
    /// A tuple value falls outside the service domain.
    ValueOutOfDomain {
        /// Relation name.
        relation: String,
        /// Offending value.
        value: u64,
        /// The service domain `n`.
        domain: u64,
    },
    /// The query asks for something the engine recognizably cannot do:
    /// an invalid aggregate head (bad variable indices, or pinned to an
    /// algorithm that does not materialize each join derivation exactly
    /// once), the §4.1 skew join pinned on anything but two atoms sharing
    /// a variable, or a relation past the u32 row-id space of the join
    /// index.
    Unsupported(String),
    /// A worker panicked mid-query. The panic was contained at the
    /// service boundary; the catalog, plan cache, and backend are intact
    /// and the next query runs normally.
    Internal(String),
    /// The query's deadline ([`QueryBudget`]) expired before it finished.
    Timeout,
    /// The query exceeded its row or group cap. The payload names the
    /// tripped cap (`max_rows` / `max_groups`).
    LimitExceeded(String),
    /// The server is at its concurrent-client cap and shed this request.
    Overloaded {
        /// Sessions currently being served.
        active: usize,
        /// The configured cap.
        max: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Parse(msg) => f.write_str(msg),
            ServiceError::NotLoaded(name) => {
                write!(f, "relation `{name}` is not loaded")
            }
            ServiceError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation `{relation}` has arity {expected} but {got} was supplied"
            ),
            ServiceError::ValueOutOfDomain {
                relation,
                value,
                domain,
            } => write!(
                f,
                "value {value} for `{relation}` outside domain [0,{domain})"
            ),
            ServiceError::Unsupported(msg) => write!(f, "unsupported {msg}"),
            ServiceError::Internal(msg) => write!(f, "internal {msg}"),
            ServiceError::Timeout => f.write_str("timeout query deadline exceeded"),
            ServiceError::LimitExceeded(cap) => write!(f, "limit {cap} exceeded"),
            ServiceError::Overloaded { active, max } => {
                write!(f, "overloaded {active} active clients (max {max})")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Map a cooperative budget trip to its service error.
fn budget_error(e: BudgetExceeded) -> ServiceError {
    match e.kind {
        BudgetKind::Deadline => ServiceError::Timeout,
        BudgetKind::Rows => ServiceError::LimitExceeded("max_rows".to_string()),
        BudgetKind::Groups => ServiceError::LimitExceeded("max_groups".to_string()),
    }
}

/// Classify a caught panic payload into a [`ServiceError`]. Known
/// capability limits (the join index's u32 row-id space) become
/// [`ServiceError::Unsupported`]; stray [`BudgetExceeded`] payloads map to
/// their budget error; everything else is [`ServiceError::Internal`].
fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> ServiceError {
    let payload = match payload.downcast::<BudgetExceeded>() {
        Ok(e) => return budget_error(*e),
        Err(p) => p,
    };
    let msg = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "worker panicked with a non-string payload".to_string(),
        },
    };
    if msg.contains("u32 row-id space") {
        ServiceError::Unsupported(msg)
    } else {
        ServiceError::Internal(msg)
    }
}

/// Run `f` inside the service's fault-containment boundary: any panic —
/// including pool-re-raised worker panics and injected failpoints — is
/// caught and classified instead of tearing down the caller, and budget
/// trips surface as their typed errors.
fn run_contained<T>(f: impl FnOnce() -> Result<T, BudgetExceeded>) -> Result<T, ServiceError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(budget_error(e)),
        Err(payload) => Err(classify_panic(payload)),
    }
}

/// The per-job body of [`Service::query_spec`] and
/// [`Service::query_batch`]: execute one resolved plan under its budget —
/// which materializes a plain query's answers when the budget is limited,
/// see [`Plan::try_execute`] — inside the containment boundary.
fn execute_contained(
    plan: &Plan,
    db: &Database,
    backend: Backend,
    budget: &QueryBudget,
) -> Result<RunOutcome, ServiceError> {
    run_contained(|| plan.try_execute(db, backend, budget))
}

/// How the plan cache served one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Cached plan reused; `Engine` planning was skipped entirely.
    Hit,
    /// No entry for this key yet; planned and cached.
    Miss,
    /// An entry existed but its statistics fingerprint was stale;
    /// replanned and recached.
    Invalidated,
}

impl CacheStatus {
    /// Stable wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Invalidated => "invalidated",
        }
    }
}

impl fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One query against the service: the parsed query plus per-query
/// overrides of the service defaults.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// The query (any head/variable names; plans are shared per
    /// [`Query::shape`]).
    pub query: Query,
    /// Server count override.
    pub p: Option<usize>,
    /// Hash-seed override.
    pub seed: Option<u64>,
    /// Algorithm override (default [`Algorithm::Auto`]).
    pub algorithm: Algorithm,
    /// Aggregate head: group-by + ops evaluated by pushdown instead of
    /// materializing answers. Variable indices refer to `query`'s
    /// variables (stable under canonicalization).
    pub aggregate: Option<AggregateSpec>,
    /// Deadline override in milliseconds (`Some(0)` = explicitly
    /// unlimited, `None` = service default).
    pub timeout_ms: Option<u64>,
    /// Output-cap override: answer rows for plain queries, groups for
    /// aggregate heads (`Some(0)` = explicitly unlimited, `None` =
    /// service default).
    pub limit: Option<u64>,
}

impl QuerySpec {
    /// A spec running `query` with the service defaults.
    pub fn new(query: Query) -> QuerySpec {
        QuerySpec {
            query,
            p: None,
            seed: None,
            algorithm: Algorithm::Auto,
            aggregate: None,
            timeout_ms: None,
            limit: None,
        }
    }

    /// Override the server count.
    pub fn p(mut self, p: usize) -> Self {
        assert!(p >= 1, "need at least one server");
        self.p = Some(p);
        self
    }

    /// Override the hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Pin the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Attach an aggregate head (see [`crate::aggregate`]).
    pub fn aggregate(mut self, spec: AggregateSpec) -> Self {
        self.aggregate = Some(spec);
        self
    }

    /// Override the deadline (milliseconds; 0 = unlimited).
    pub fn timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }

    /// Override the output cap (rows, or groups for an aggregate head;
    /// 0 = unlimited).
    pub fn limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }
}

/// The result of one service query: the engine's [`RunOutcome`] plus how
/// the plan cache served it. The answer set lives in the [`RunOutcome`],
/// once: a limited budget materialized it *inside* the service's
/// containment boundary — so a budget trip during answer collection
/// surfaced as the query's error —, otherwise the first read joins it
/// ([`ServiceOutcome::try_answers`] keeps that read contained too), and
/// every later read is a borrow of the same set.
pub struct ServiceOutcome {
    outcome: RunOutcome,
    cache: CacheStatus,
}

impl ServiceOutcome {
    /// How the plan cache served this query.
    pub fn cache_status(&self) -> CacheStatus {
        self.cache
    }

    /// The resolved algorithm that ran.
    pub fn algorithm(&self) -> Algorithm {
        self.outcome.algorithm()
    }

    /// The distinct answers, sorted, in query-variable order (the set
    /// materialized under the query's budget when the service ran it,
    /// joined lazily on the first read otherwise, and kept).
    pub fn answers(&self) -> &AnswerSet {
        self.outcome.answers()
    }

    /// [`ServiceOutcome::answers`] behind the service's containment
    /// boundary: when the answers were not already materialized under a
    /// budget, the lazy join runs under `catch_unwind` so a worker panic
    /// during materialization (not just during execution) surfaces as a
    /// typed [`ServiceError`]. The wire layer renders rows through this.
    pub fn try_answers(&self) -> Result<&AnswerSet, ServiceError> {
        run_contained(|| Ok(self.outcome.answers()))
    }

    /// The pushed-down aggregate result, when the spec carried an
    /// aggregate head.
    pub fn aggregate(&self) -> Option<&crate::aggregate::AggregateResult> {
        self.outcome.aggregate()
    }

    /// Maximum bits received by any server in any round.
    pub fn max_load_bits(&self) -> u64 {
        self.outcome.max_load_bits()
    }

    /// Rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.outcome.num_rounds()
    }

    /// The full engine outcome.
    pub fn run_outcome(&self) -> &RunOutcome {
        &self.outcome
    }
}

impl fmt::Debug for ServiceOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceOutcome")
            .field("algorithm", &self.algorithm())
            .field("cache", &self.cache)
            .field("rounds", &self.num_rounds())
            .finish_non_exhaustive()
    }
}

/// Plan-cache traffic counters (see [`Service::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Queries served by a cached plan without replanning.
    pub hits: u64,
    /// Queries planned because no entry existed.
    pub misses: u64,
    /// Cache entries dropped because an ingest changed their statistics
    /// fingerprint.
    pub invalidations: u64,
    /// Least-recently-used entries dropped to keep the cache within its
    /// configured capacity ([`Service::with_plan_cache_capacity`]).
    pub evictions: u64,
}

/// Catalog information for one relation (see [`Service::relation_infos`]).
#[derive(Clone, Debug)]
pub struct RelationInfo {
    /// Relation name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// Current cardinality.
    pub tuples: usize,
    /// Projections the relation's sketch tracks.
    pub tracked_projections: usize,
}

struct CatalogEntry {
    rel: Arc<Relation>,
    /// The relation's one statistics summary: created at load (at the
    /// capacity the statistics mode selects), folded forward on every
    /// append, read by planning and fingerprinting.
    sketch: RelationSketch,
}

struct CacheEntry {
    plan: Arc<Plan>,
    /// The canonical query the plan was built for (also stored in the
    /// plan; kept here to recompute fingerprints without dereferencing).
    query: Query,
    fingerprint: u64,
    /// Monotonic recency stamp ([`Service::tick`] at the last hit or
    /// insert); the LRU eviction victim is the minimum.
    last_used: u64,
}

/// Default bound on the number of cached plans (see
/// [`Service::with_plan_cache_capacity`]).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// The resident query service. See the [module docs](self) for the
/// architecture and an end-to-end example.
pub struct Service {
    domain: u64,
    backend: Backend,
    default_p: usize,
    default_seed: u64,
    entries: Vec<CatalogEntry>,
    names: FastMap<String, usize>,
    plans: FastMap<PlanKey, CacheEntry>,
    plan_cache_capacity: usize,
    stats_mode: StatsMode,
    /// Monotonic recency counter; advances on every cache touch, so
    /// `last_used` stamps are unique and LRU ties cannot occur.
    tick: u64,
    counters: CacheCounters,
    /// Default query deadline (ms); `None` = unlimited.
    default_timeout_ms: Option<u64>,
    /// Default cap on materialized answer rows; `None` = unlimited.
    default_max_rows: Option<u64>,
    /// Default cap on aggregate groups; `None` = unlimited.
    default_max_groups: Option<u64>,
}

/// Aggregate sketch telemetry over the catalog (the serve `STATS` line's
/// `sketch` record; see [`Service::sketch_telemetry`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SketchTelemetry {
    /// Total bytes resident across all relation sketches.
    pub bytes: usize,
    /// Per-projection SpaceSaving capacity (tracked keys).
    pub capacity: usize,
    /// Largest guaranteed error bound across every tracked projection —
    /// the worst-case overcount any planner-visible estimate carries.
    pub max_error: u64,
}

impl Service {
    /// An empty service over domain `[0, domain)` with defaults `p = 64`,
    /// `seed = 1`, and the environment-selected backend.
    pub fn new(domain: u64) -> Service {
        assert!(domain >= 1, "domain must be non-empty");
        Service {
            domain,
            backend: Backend::from_env(),
            default_p: 64,
            default_seed: 1,
            entries: Vec::new(),
            names: FastMap::default(),
            plans: FastMap::default(),
            plan_cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            stats_mode: StatsMode::Exact,
            tick: 0,
            counters: CacheCounters::default(),
            default_timeout_ms: None,
            default_max_rows: None,
            default_max_groups: None,
        }
    }

    /// Set the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Set the statistics mode for relations loaded *after* this call
    /// (configure before loading; `mpcskew serve` defaults to
    /// [`StatsMode::Sketch`]). The mode is the capacity of each relation's
    /// [`RelationSketch`]: unbounded — every count exact — in
    /// [`StatsMode::Exact`], sized with headroom over the default `p`
    /// ([`Service::sketch_capacity_for_p`]) in [`StatsMode::Sketch`], where
    /// planning and plan-cache fingerprints read `O(capacity)` state.
    /// Either way appends fold into the summaries without ever rescanning
    /// the relation. In sketch mode, queries that override `p` far above
    /// the default erode the no-missed-heavy-hitter guarantee gradually
    /// (capacity headroom absorbs moderate drift); answers stay exact
    /// regardless — estimate error only shifts load.
    ///
    /// # Panics
    /// Panics on [`StatsMode::Synthetic`]: a resident service always has
    /// its data, so it has no cardinalities-only mode to plan from.
    pub fn with_stats_mode(mut self, mode: StatsMode) -> Self {
        assert!(
            mode != StatsMode::Synthetic,
            "a resident service maintains statistics of its data: \
             stats mode must be exact or sketch, not synthetic"
        );
        self.stats_mode = mode;
        self
    }

    /// Set the default `p` and seed for queries that do not override them.
    pub fn with_defaults(mut self, p: usize, seed: u64) -> Self {
        assert!(p >= 1, "need at least one server");
        self.default_p = p;
        self.default_seed = seed;
        self
    }

    /// Bound the plan cache to `capacity` entries: an insert past the bound
    /// evicts the least-recently-used plan (and advances
    /// [`CacheCounters::evictions`]). Without a bound, an unbounded stream
    /// of distinct query shapes would grow the cache without limit.
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "plan cache needs room for at least one plan");
        self.plan_cache_capacity = capacity;
        self
    }

    /// The configured plan-cache capacity.
    pub fn plan_cache_capacity(&self) -> usize {
        self.plan_cache_capacity
    }

    /// The service domain `n`.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// The execution backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Default server count.
    pub fn default_p(&self) -> usize {
        self.default_p
    }

    /// Default hash seed.
    pub fn default_seed(&self) -> u64 {
        self.default_seed
    }

    /// The configured statistics mode.
    pub fn stats_mode(&self) -> StatsMode {
        self.stats_mode
    }

    /// The SpaceSaving capacity [`StatsMode::Sketch`] builds summaries
    /// at: the engine's [`sketch_capacity`] for the default `p`, doubled
    /// again and floored at 64 — headroom so per-query `p` above the
    /// default keeps the no-missed-heavy-hitter guarantee.
    pub fn sketch_capacity_for_p(&self) -> usize {
        (2 * sketch_capacity(self.default_p)).max(64)
    }

    /// Aggregate sketch telemetry, or `None` outside
    /// [`StatsMode::Sketch`] (or before any relation is loaded).
    pub fn sketch_telemetry(&self) -> Option<SketchTelemetry> {
        if self.stats_mode != StatsMode::Sketch || self.entries.is_empty() {
            return None;
        }
        let mut t = SketchTelemetry::default();
        for e in &self.entries {
            t.bytes += e.sketch.bytes();
            t.capacity = e.sketch.capacity();
            t.max_error = t.max_error.max(e.sketch.max_error_bound());
        }
        Some(t)
    }

    /// Plan-cache traffic counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Number of cached plans.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Catalog summary, in load order.
    pub fn relation_infos(&self) -> Vec<RelationInfo> {
        self.entries
            .iter()
            .map(|e| RelationInfo {
                name: e.rel.name().to_string(),
                arity: e.rel.arity(),
                tuples: e.rel.len(),
                tracked_projections: e.sketch.tracked_projections(),
            })
            .collect()
    }

    /// The loaded relation `name`, if any.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.names.get(name).map(|&i| self.entries[i].rel.as_ref())
    }

    /// Register (or replace) a relation under its own name, validating
    /// every value against the service domain — the one full scan a
    /// relation ever pays. Replacing drops all cached plans that reference
    /// the name (counted as invalidations) and resets its statistics.
    /// Returns the relation's cardinality.
    pub fn load(&mut self, rel: Relation) -> Result<usize, ServiceError> {
        if let Some(&v) = rel.rows().flatten().find(|&&v| v >= self.domain) {
            return Err(ServiceError::ValueOutOfDomain {
                relation: rel.name().to_string(),
                value: v,
                domain: self.domain,
            });
        }
        let len = rel.len();
        let name = rel.name().to_string();
        // The statistics mode is the capacity of the relation's summary.
        let capacity = match self.stats_mode {
            StatsMode::Sketch => self.sketch_capacity_for_p(),
            StatsMode::Exact => SpaceSaving::UNBOUNDED,
            StatsMode::Synthetic => unreachable!("refused by with_stats_mode"),
        };
        let entry = CatalogEntry {
            sketch: RelationSketch::of(&rel, capacity),
            rel: Arc::new(rel),
        };
        match self.names.get(&name).copied() {
            Some(i) => {
                self.entries[i] = entry;
                self.drop_plans_referencing(&name);
            }
            None => {
                self.entries.push(entry);
                self.names.insert(name, self.entries.len() - 1);
            }
        }
        Ok(len)
    }

    /// Append tuples (row-major flat, length a multiple of the arity) to a
    /// loaded relation, folding them into its sketch in place — no
    /// rescan. Cached plans whose query
    /// references `name` are re-fingerprinted; exactly the stale ones are
    /// dropped (counted as invalidations). Returns the new cardinality.
    pub fn append(&mut self, name: &str, tuples: &[u64]) -> Result<usize, ServiceError> {
        let i = *self
            .names
            .get(name)
            .ok_or_else(|| ServiceError::NotLoaded(name.to_string()))?;
        let arity = self.entries[i].rel.arity();
        if !tuples.len().is_multiple_of(arity) {
            return Err(ServiceError::ArityMismatch {
                relation: name.to_string(),
                expected: arity,
                got: tuples.len() % arity,
            });
        }
        if let Some(&v) = tuples.iter().find(|&&v| v >= self.domain) {
            return Err(ServiceError::ValueOutOfDomain {
                relation: name.to_string(),
                value: v,
                domain: self.domain,
            });
        }
        let entry = &mut self.entries[i];
        // Fold into the summaries: O(appended × tracked projections),
        // never a rescan of the relation.
        entry.sketch.append_rows(tuples);
        // In the steady state the service holds the only strong reference
        // (per-query Databases are dropped with their outcomes), so this
        // appends in place; a concurrent holder forces one copy, never a
        // correctness problem.
        Arc::make_mut(&mut entry.rel).push_rows(tuples);
        let len = entry.rel.len();
        self.revalidate_plans_referencing(name);
        Ok(len)
    }

    /// Set the default deadline for queries that do not override it
    /// (`None` = unlimited). The wire's `SET timeout_ms=` lands here.
    pub fn set_default_timeout_ms(&mut self, ms: Option<u64>) {
        self.default_timeout_ms = ms;
    }

    /// Set the default cap on materialized answer rows (`None` =
    /// unlimited).
    pub fn set_default_max_rows(&mut self, rows: Option<u64>) {
        self.default_max_rows = rows;
    }

    /// Set the default cap on aggregate groups (`None` = unlimited).
    pub fn set_default_max_groups(&mut self, groups: Option<u64>) {
        self.default_max_groups = groups;
    }

    /// The effective budget for one spec: per-query overrides (0 =
    /// explicitly unlimited) over the service defaults. The deadline
    /// clock starts here — at query admission, not at parse time.
    fn budget_for(&self, spec: &QuerySpec) -> QueryBudget {
        let unzero = |v: Option<u64>, default: Option<u64>| match v {
            Some(0) => None,
            Some(n) => Some(n),
            None => default,
        };
        let timeout =
            unzero(spec.timeout_ms, self.default_timeout_ms).map(std::time::Duration::from_millis);
        let (max_rows, max_groups) = if spec.aggregate.is_some() {
            (None, unzero(spec.limit, self.default_max_groups))
        } else {
            (unzero(spec.limit, self.default_max_rows), None)
        };
        QueryBudget::new(timeout, max_rows, max_groups)
    }

    /// Run `query` with the service defaults.
    pub fn query(&mut self, query: &Query) -> Result<ServiceOutcome, ServiceError> {
        self.query_spec(&QuerySpec::new(query.clone()))
    }

    /// Run one fully-specified query inside the fault-containment
    /// boundary: planning runs under a `catch_unwind`, execution *and*
    /// answer materialization under the spec's budget and another, so a
    /// planner or mid-query worker panic or a tripped budget returns a
    /// typed [`ServiceError`] — the catalog, plan cache, and backend stay
    /// intact for the next query.
    pub fn query_spec(&mut self, spec: &QuerySpec) -> Result<ServiceOutcome, ServiceError> {
        let (plan, db, cache) = self.resolve_plan(spec)?;
        let budget = self.budget_for(spec);
        let outcome = execute_contained(&plan, &db, self.backend, &budget)?;
        Ok(ServiceOutcome { outcome, cache })
    }

    /// Run a batch of queries, multiplexing their shuffles **across** jobs
    /// on the service backend (the
    /// [`execute_batch`](crate::engine::execute_batch) shape — parallel
    /// across jobs, each job sequential inside: on a pooled backend,
    /// concurrent clients share the persistent worker pool). Results come
    /// back in spec order, each bit-identical to running the spec alone,
    /// and each under its own budget and containment boundary: one job's
    /// panic or budget trip errors that job only.
    pub fn query_batch(
        &mut self,
        specs: &[QuerySpec],
    ) -> Vec<Result<ServiceOutcome, ServiceError>> {
        // Resolve every plan, then start every deadline clock, then run.
        let resolved: Vec<_> = specs.iter().map(|spec| self.resolve_plan(spec)).collect();
        let budgets: Vec<_> = specs.iter().map(|spec| self.budget_for(spec)).collect();
        self.backend.run_items(specs.len(), |i| {
            let (plan, db, cache) = resolved[i].as_ref().map_err(ServiceError::clone)?;
            let outcome = execute_contained(plan, db, Backend::Sequential, &budgets[i])?;
            Ok(ServiceOutcome {
                outcome,
                cache: *cache,
            })
        })
    }

    /// Canonicalize, fingerprint, and serve a plan from the cache —
    /// planning through the [`Engine`] only on miss/stale — plus the
    /// zero-copy `Database` to run it on.
    fn resolve_plan(
        &mut self,
        spec: &QuerySpec,
    ) -> Result<(Arc<Plan>, Database, CacheStatus), ServiceError> {
        let p = spec.p.unwrap_or(self.default_p);
        let seed = spec.seed.unwrap_or(self.default_seed);
        if let Some(agg) = &spec.aggregate {
            agg.validate_for(&spec.query)
                .map_err(|e| ServiceError::Unsupported(format!("invalid aggregate: {e}")))?;
            if !spec.algorithm.partitions_derivations() {
                return Err(ServiceError::Unsupported(
                    AGGREGATE_NEEDS_PARTITIONING.to_string(),
                ));
            }
        }
        if spec.algorithm == Algorithm::SkewJoin && !spec.query.is_two_atom_join() {
            return Err(ServiceError::Unsupported(
                SKEW_JOIN_NEEDS_TWO_ATOMS.to_string(),
            ));
        }
        // Canonicalization renames variables but keeps their indices, so
        // the aggregate spec applies to the canonical query unchanged.
        let canonical = spec.query.canonical();
        let atom_entries = self.resolve_atoms(&canonical)?;
        let fingerprint = self.fingerprint_for(&canonical, &atom_entries, p);
        let key = PlanKey {
            shape: canonical.shape(),
            p,
            seed,
            algorithm: spec.algorithm,
            aggregate: spec.aggregate.clone(),
        };
        let rels: Vec<Arc<Relation>> = atom_entries
            .iter()
            .map(|&i| self.entries[i].rel.clone())
            .collect();
        let db = Database::from_shared(canonical.clone(), rels, self.domain)
            .expect("atoms resolved against the catalog");
        let cache = match self.plans.get(&key) {
            Some(entry) if entry.fingerprint == fingerprint => CacheStatus::Hit,
            Some(_) => CacheStatus::Invalidated,
            None => CacheStatus::Miss,
        };
        let plan = match cache {
            CacheStatus::Hit => {
                self.counters.hits += 1;
                self.tick += 1;
                let entry = self.plans.get_mut(&key).expect("hit entry exists");
                entry.last_used = self.tick;
                entry.plan.clone()
            }
            CacheStatus::Miss | CacheStatus::Invalidated => {
                let view = self.stats_view(&atom_entries, &db);
                let mut engine = Engine::new(&canonical)
                    .p(p)
                    .seed(seed)
                    .algorithm(spec.algorithm);
                if let Some(agg) = &spec.aggregate {
                    engine = engine.aggregate(agg.clone());
                }
                // Planning runs inside the containment boundary like
                // execution: a planner panic is this query's `err internal`,
                // and nothing is counted or cached for it.
                let plan = Arc::new(run_contained(|| Ok(engine.stats(&view).plan(&db)))?);
                if cache == CacheStatus::Invalidated {
                    self.counters.invalidations += 1;
                } else {
                    self.counters.misses += 1;
                }
                self.tick += 1;
                self.plans.insert(
                    key,
                    CacheEntry {
                        plan: plan.clone(),
                        query: canonical,
                        fingerprint,
                        last_used: self.tick,
                    },
                );
                self.evict_lru_overflow();
                plan
            }
        };
        Ok((plan, db, cache))
    }

    /// Map each atom of `q` to its catalog entry, validating presence and
    /// arity.
    fn resolve_atoms(&self, q: &Query) -> Result<Vec<usize>, ServiceError> {
        q.atoms()
            .iter()
            .map(|atom| {
                let &i = self
                    .names
                    .get(atom.name())
                    .ok_or_else(|| ServiceError::NotLoaded(atom.name().to_string()))?;
                let rel = &self.entries[i].rel;
                if rel.arity() != atom.arity() {
                    return Err(ServiceError::ArityMismatch {
                        relation: atom.name().to_string(),
                        expected: rel.arity(),
                        got: atom.arity(),
                    });
                }
                Ok(i)
            })
            .collect()
    }

    /// The current statistics fingerprint for `q` at `p`: fold the
    /// power-of-two cardinality bucket of every atom's relation and the
    /// heavy-membership hash of every [`planning_projections`] projection
    /// as its sketch reports it — the (conservative) heavy set the planner
    /// will actually see. A projection is registered with the sketch on
    /// first need (one scan, amortized away).
    fn fingerprint_for(&mut self, q: &Query, atom_entries: &[usize], p: usize) -> u64 {
        let mut h = mix64(p as u64, 0x5e);
        for (j, &i) in atom_entries.iter().enumerate() {
            h = mix64(h, j as u64);
            h = mix64(h, cardinality_bucket(self.entries[i].rel.len()));
        }
        for (j, cols) in planning_projections(q) {
            let entry = &mut self.entries[atom_entries[j]];
            entry.sketch.ensure_projection(&entry.rel, &cols);
            let heavy = entry
                .sketch
                .heavy_hitters(&cols, p)
                .expect("projection ensured");
            h = mix64(h, j as u64 ^ heavy_membership_hash(&heavy));
        }
        h
    }

    /// Read-only [`Stats`] view over the catalog for planning `db`'s query
    /// (`atom_entries` maps its atoms to catalog entries).
    fn stats_view<'a>(&'a self, atom_entries: &[usize], db: &'a Database) -> CatalogStats<'a> {
        CatalogStats {
            sketches: atom_entries
                .iter()
                .map(|&i| &self.entries[i].sketch)
                .collect(),
            exact: ExactStats::of(db),
        }
    }

    /// Drop every cached plan whose query references `name`, counting
    /// invalidations (the LOAD-replace path: the old statistics are gone).
    fn drop_plans_referencing(&mut self, name: &str) {
        let before = self.plans.len();
        self.plans.retain(|key, _| !key.shape.references(name));
        self.counters.invalidations += (before - self.plans.len()) as u64;
    }

    /// Re-fingerprint cached plans whose query references `name` and drop
    /// exactly the stale ones (the APPEND path). Plans over other
    /// relations are untouched.
    fn revalidate_plans_referencing(&mut self, name: &str) {
        let affected: Vec<PlanKey> = self
            .plans
            .keys()
            .filter(|key| key.shape.references(name))
            .cloned()
            .collect();
        for key in affected {
            let query = self.plans[&key].query.clone();
            let atom_entries = self
                .resolve_atoms(&query)
                .expect("cached plan references loaded relations");
            let current = self.fingerprint_for(&query, &atom_entries, key.p);
            if self.plans[&key].fingerprint != current {
                self.plans.remove(&key);
                self.counters.invalidations += 1;
            }
        }
    }

    /// Evict least-recently-used plans until the cache fits its capacity.
    /// Recency ticks are unique, so the victim is unambiguous; the O(n)
    /// scan is bounded by the capacity itself.
    fn evict_lru_overflow(&mut self) {
        while self.plans.len() > self.plan_cache_capacity {
            let victim = self
                .plans
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
                .expect("an over-capacity cache is non-empty");
            self.plans.remove(&victim);
            self.counters.evictions += 1;
        }
    }
}

/// A cardinality rounded up to a power of two — the coarse bucket the
/// plan-cache fingerprint uses, so appends that stay within a bucket keep
/// cached plans warm.
fn cardinality_bucket(len: usize) -> u64 {
    (len.max(1) as u64).next_power_of_two()
}

/// Order-independent XOR hash of the heavy *membership* of a batch of
/// estimates. Counts are deliberately excluded: any statistics yield a
/// correct (answer-identical) plan, and drifting frequencies of an
/// unchanged heavy set merely shift load within the paper's constants, so
/// a plan cache keyed on this hash stays warm across such drift and
/// invalidates exactly when membership changes.
fn heavy_membership_hash(estimates: &[FreqEstimate]) -> u64 {
    estimates
        .iter()
        .map(|e| {
            e.key
                .iter()
                .fold(0x9e37_79b9_7f4a_7c15, |acc, &v| mix64(acc, v))
        })
        .fold(0u64, |acc, kh| acc ^ kh)
}

/// Planner-facing view of the catalog's maintained statistics: every
/// question is answered by the relation's sketch when the projection is
/// registered there (all of [`planning_projections`] are, by the
/// fingerprint that precedes planning), and otherwise by one exact scan,
/// memoized for the life of the view (e.g. a pinned §4.2 run asking for a
/// joint variable subset outside [`planning_projections`]) — registering
/// it would need to mutate the catalog through a shared view.
struct CatalogStats<'a> {
    /// The sketch of each atom's relation, in atom order.
    sketches: Vec<&'a RelationSketch>,
    exact: ExactStats<'a>,
}

impl Stats for CatalogStats<'_> {
    fn simple(&self) -> SimpleStatistics {
        self.exact.simple()
    }

    fn heavy_hitters(&self, atom: usize, cols: &[usize], p: usize) -> Vec<FreqEstimate> {
        self.sketches[atom]
            .heavy_hitters(cols, p)
            .unwrap_or_else(|| self.exact.heavy_hitters(atom, cols, p))
    }

    fn frequency(&self, atom: usize, cols: &[usize], key: &[u64]) -> usize {
        self.sketches[atom]
            .frequency(cols, key)
            .unwrap_or_else(|| self.exact.frequency(atom, cols, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::generators;
    use mpc_data::rng::Rng;
    use mpc_query::parse_query;

    fn loaded_service() -> Service {
        let mut rng = Rng::seed_from_u64(11);
        let n = 1u64 << 12;
        let mut svc = Service::new(n)
            .with_backend(Backend::Sequential)
            .with_defaults(16, 3);
        svc.load(generators::uniform("S1", 2, 500, n, &mut rng))
            .unwrap();
        svc.load(generators::uniform("S2", 2, 500, n, &mut rng))
            .unwrap();
        svc.load(generators::uniform("S3", 2, 400, n, &mut rng))
            .unwrap();
        svc
    }

    #[test]
    fn warm_cache_skips_planning_and_counts() {
        let mut svc = loaded_service();
        let q = parse_query("S1(x,z), S2(y,z)").unwrap();
        let first = svc.query(&q).unwrap();
        assert_eq!(first.cache_status(), CacheStatus::Miss);
        let second = svc.query(&q).unwrap();
        assert_eq!(second.cache_status(), CacheStatus::Hit);
        assert_eq!(second.answers(), first.answers());
        // A shape-equal query with different spellings shares the plan.
        let renamed = parse_query("S1(a,c), S2(b,c)").unwrap();
        assert_eq!(
            svc.query(&renamed).unwrap().cache_status(),
            CacheStatus::Hit
        );
        assert_eq!(
            svc.counters(),
            CacheCounters {
                hits: 2,
                misses: 1,
                invalidations: 0,
                evictions: 0
            }
        );
        assert_eq!(svc.cached_plans(), 1);
        // Different p / seed / pinned algorithm are distinct entries.
        let spec = QuerySpec::new(q.clone()).p(8);
        assert_eq!(
            svc.query_spec(&spec).unwrap().cache_status(),
            CacheStatus::Miss
        );
        let pinned = QuerySpec::new(q).algorithm(Algorithm::HashJoin);
        assert_eq!(
            svc.query_spec(&pinned).unwrap().cache_status(),
            CacheStatus::Miss
        );
        assert_eq!(svc.cached_plans(), 3);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let mut svc = loaded_service().with_plan_cache_capacity(2);
        let qa = parse_query("S1(x,z), S2(y,z)").unwrap();
        let qb = parse_query("S1(x,y), S3(y,z)").unwrap();
        let qc = parse_query("S2(x,y), S3(y,z)").unwrap();
        // Fill to capacity, then touch A so B is the LRU entry.
        svc.query(&qa).unwrap();
        svc.query(&qb).unwrap();
        assert_eq!(svc.query(&qa).unwrap().cache_status(), CacheStatus::Hit);
        assert_eq!(svc.counters().evictions, 0);
        // Inserting C overflows the capacity and evicts B.
        assert_eq!(svc.query(&qc).unwrap().cache_status(), CacheStatus::Miss);
        assert_eq!(svc.cached_plans(), 2);
        assert_eq!(svc.counters().evictions, 1);
        // A survived (recently used); B replans correctly: miss, then hit.
        assert_eq!(svc.query(&qa).unwrap().cache_status(), CacheStatus::Hit);
        let replanned = svc.query(&qb).unwrap();
        assert_eq!(replanned.cache_status(), CacheStatus::Miss);
        assert_eq!(svc.query(&qb).unwrap().cache_status(), CacheStatus::Hit);
        // The B reinsert displaced C in turn.
        assert_eq!(svc.counters().evictions, 2);
        assert_eq!(svc.cached_plans(), 2);
    }

    #[test]
    fn append_within_bucket_keeps_plans_warm() {
        let mut svc = loaded_service();
        let q = parse_query("S1(x,z), S2(y,z)").unwrap();
        svc.query(&q).unwrap();
        // A handful of light tuples: same power-of-two bucket, no heavy
        // membership change.
        svc.append("S2", &[1, 2, 3, 4]).unwrap();
        let after = svc.query(&q).unwrap();
        assert_eq!(after.cache_status(), CacheStatus::Hit);
        assert_eq!(svc.counters().invalidations, 0);
        // Appending to an unrelated relation never touches this plan.
        svc.append("S3", &[5, 6]).unwrap();
        assert_eq!(svc.query(&q).unwrap().cache_status(), CacheStatus::Hit);
    }

    #[test]
    fn load_replace_invalidates() {
        let mut svc = loaded_service();
        let q = parse_query("S1(x,z), S2(y,z)").unwrap();
        svc.query(&q).unwrap();
        let mut rng = Rng::seed_from_u64(99);
        svc.load(generators::uniform("S2", 2, 300, 1 << 12, &mut rng))
            .unwrap();
        assert_eq!(svc.counters().invalidations, 1);
        assert_eq!(svc.cached_plans(), 0);
        assert_eq!(svc.query(&q).unwrap().cache_status(), CacheStatus::Miss);
    }

    #[test]
    fn errors_are_reported() {
        let mut svc = loaded_service();
        let q = parse_query("S1(x,z), Nope(y,z)").unwrap();
        assert_eq!(
            svc.query(&q).unwrap_err(),
            ServiceError::NotLoaded("Nope".into())
        );
        let q = parse_query("S1(x,y,z), S2(u,v)").unwrap();
        assert!(matches!(
            svc.query(&q),
            Err(ServiceError::ArityMismatch { .. })
        ));
        assert!(matches!(
            svc.append("S1", &[1, 1 << 20]),
            Err(ServiceError::ValueOutOfDomain { .. })
        ));
        assert!(matches!(
            svc.append("S1", &[1, 2, 3]),
            Err(ServiceError::ArityMismatch { .. })
        ));
        // Failed ingest mutated nothing.
        assert_eq!(svc.relation("S1").unwrap().len(), 500);
    }

    #[test]
    fn batch_matches_serial_and_shares_the_cache() {
        let mut svc = loaded_service();
        let specs = vec![
            QuerySpec::new(parse_query("S1(x,z), S2(y,z)").unwrap()),
            QuerySpec::new(parse_query("S1(x,y), S3(y,z)").unwrap()),
            QuerySpec::new(parse_query("S1(a,c), S2(b,c)").unwrap()),
        ];
        let results = svc.query_batch(&specs);
        assert_eq!(results.len(), 3);
        let batch_answers: Vec<&AnswerSet> = results
            .iter()
            .map(|r| r.as_ref().unwrap().answers())
            .collect();
        // Spec 2 is shape-equal to spec 0: served from the cache.
        assert_eq!(svc.counters().hits, 1);
        assert_eq!(svc.counters().misses, 2);
        let mut fresh = loaded_service();
        for (spec, batch) in specs.iter().zip(&batch_answers) {
            assert_eq!(fresh.query_spec(spec).unwrap().answers(), *batch);
        }
        assert_eq!(batch_answers[0], batch_answers[2]);
    }

    #[test]
    #[should_panic(expected = "exact or sketch, not synthetic")]
    fn synthetic_stats_mode_is_refused() {
        let _ = Service::new(16).with_stats_mode(StatsMode::Synthetic);
    }

    #[test]
    fn cardinality_bucket_is_power_of_two() {
        assert_eq!(cardinality_bucket(0), 1);
        assert_eq!(cardinality_bucket(5), 8);
        assert_eq!(cardinality_bucket(8), 8);
        assert_eq!(cardinality_bucket(9), 16);
    }

    #[test]
    fn membership_hash_ignores_count_drift_and_sees_membership_changes() {
        // 8 tuples, z=7 appears 3 times: threshold at p=4 is 2.0, so z=7 is
        // heavy.
        let zs = [7u64, 7, 7, 1, 2, 3, 4, 5];
        let mut rel = Relation::new("S", 2);
        for (i, z) in zs.into_iter().enumerate() {
            rel.push(&[i as u64, z]);
        }
        let mut sk = RelationSketch::of(&rel, SpaceSaving::UNBOUNDED);
        sk.ensure_projection(&rel, &[1]);
        let heavy = |sk: &RelationSketch| sk.heavy_hitters(&[1], 4).unwrap();
        let h0 = heavy_membership_hash(&heavy(&sk));
        assert_eq!(heavy(&sk), vec![FreqEstimate::exact(vec![7], 3)]);
        // Growing the heavy key's count (and m with it) keeps membership —
        // hash unchanged.
        sk.append_rows(&[8, 7]);
        assert_eq!(heavy(&sk), vec![FreqEstimate::exact(vec![7], 4)]);
        assert_eq!(heavy_membership_hash(&heavy(&sk)), h0);
        // Flooding with distinct z values raises the threshold until z=7
        // falls light: membership changes, hash changes.
        let flood: Vec<u64> = (0..40u64).flat_map(|i| [100 + i, 200 + i]).collect();
        sk.append_rows(&flood);
        assert!(heavy(&sk).is_empty());
        assert_ne!(heavy_membership_hash(&heavy(&sk)), h0);
    }

    #[test]
    fn frequency_is_the_lookup_into_the_map_it_replaces() {
        // `Stats::frequency` must return what the map-shaped `frequencies()`
        // shim it replaced returned for every key, known or not. That shim
        // defaulted to "every estimate the source can produce (`p =
        // usize::MAX` drives the threshold to ~0), each at `count_upper`";
        // the service view overrode it with the sketch's tracked estimates
        // on a registered projection and the exact map on any other.
        use crate::engine::{ExactStats, SketchStats};
        use mpc_data::stats_scan_bytes_total;
        let n = 1u64 << 12;
        for mode in [StatsMode::Exact, StatsMode::Sketch] {
            let mut rng = Rng::seed_from_u64(5);
            // p = 4 puts the sketch capacity at its floor of 64, far below
            // the hundreds of distinct z values, so sketch mode evicts.
            let mut svc = Service::new(n)
                .with_backend(Backend::Sequential)
                .with_defaults(4, 3)
                .with_stats_mode(mode);
            for name in ["S1", "S2"] {
                svc.load(generators::uniform(name, 2, 600, 512, &mut rng))
                    .unwrap();
            }
            let q = parse_query("S1(x,z), S2(y,z)").unwrap().canonical();
            svc.query(&q).unwrap(); // registers the z projection of both atoms
            let atoms = svc.resolve_atoms(&q).unwrap();
            let rels = atoms.iter().map(|&i| svc.entries[i].rel.clone()).collect();
            let db = Database::from_shared(q, rels, n).unwrap();
            let absent = vec![n - 1];
            let check = |stats: &dyn Stats, cols: &[usize], shim: &FastMap<Vec<u64>, usize>| {
                for key in db.relation(0).frequencies(cols).keys().chain([&absent]) {
                    let want = shim.get(key).copied().unwrap_or(0);
                    assert_eq!(
                        stats.frequency(0, cols, key),
                        want,
                        "{mode} {cols:?} {key:?}"
                    );
                }
            };
            let at_count_upper = |estimates: Vec<FreqEstimate>| -> FastMap<Vec<u64>, usize> {
                let upper = |e: FreqEstimate| (e.key.clone(), e.count_upper());
                estimates.into_iter().map(upper).collect()
            };
            let (truth_z, truth_x) = (
                db.relation(0).frequencies(&[1]),
                db.relation(0).frequencies(&[0]),
            );

            // The free-standing sources register a projection on demand.
            let (exact, sketch) = (ExactStats::of(&db), SketchStats::of(&db, 16));
            check(&exact, &[1], &truth_z);
            let sketched = at_count_upper(sketch.heavy_hitters(0, &[1], usize::MAX));
            assert_eq!(sketched.len(), 16, "16 slots over hundreds of keys");
            check(&sketch, &[1], &sketched);

            // The service view, on a projection its sketch has registered...
            let view = svc.stats_view(&atoms, &db);
            let summary = svc.entries[atoms[0]].sketch.projection(&[1]);
            let tracked = at_count_upper(summary.expect("registered above").estimates());
            check(&view, &[1], &tracked);
            match mode {
                StatsMode::Exact => assert_eq!(tracked, truth_z),
                _ => assert!(tracked.len() < truth_z.len(), "sketch mode must evict here"),
            }
            // ... and on one it has not (x is no join variable): exact
            // counts from one scan, memoized for the life of the view.
            let before = stats_scan_bytes_total();
            check(&view, &[0], &truth_x);
            let two_scans = 2 * db.relation(0).len() as u64 * 2 * 8;
            assert_eq!(
                stats_scan_bytes_total() - before,
                two_scans,
                "check's + the view's"
            );
        }
    }

    #[test]
    fn panic_classification_pins_the_wire_vocabulary() {
        // The `JoinIndex` u32 row-id guard panics with this message; the
        // containment boundary must map it to `unsupported`, not
        // `internal`, since it is a stated engine limit, not a bug.
        let overflow =
            "relation \"R\" has 5000000000 rows, which exceeds the u32 row-id space of JoinIndex"
                .to_string();
        let e = classify_panic(Box::new(overflow.clone()));
        assert_eq!(e, ServiceError::Unsupported(overflow.clone()));
        assert_eq!(format!("err {e}"), format!("err unsupported {overflow}"));

        // Everything else stringly-typed is an internal fault...
        assert_eq!(
            classify_panic(Box::new("index out of bounds".to_string())),
            ServiceError::Internal("index out of bounds".to_string())
        );
        assert_eq!(
            classify_panic(Box::new("static payload")),
            ServiceError::Internal("static payload".to_string())
        );
        // ... including payloads that are not strings at all.
        assert_eq!(
            classify_panic(Box::new(17u64)),
            ServiceError::Internal("worker panicked with a non-string payload".to_string())
        );
        // Budget trips re-raised as panics keep their typed identity.
        assert_eq!(
            classify_panic(Box::new(BudgetExceeded {
                kind: BudgetKind::Deadline
            })),
            ServiceError::Timeout
        );

        // The remaining wire error classes, byte-for-byte.
        assert_eq!(
            format!("{}", ServiceError::Timeout),
            "timeout query deadline exceeded"
        );
        assert_eq!(
            format!("{}", ServiceError::LimitExceeded("max_rows".to_string())),
            "limit max_rows exceeded"
        );
        assert_eq!(
            format!(
                "{}",
                ServiceError::Overloaded {
                    active: 64,
                    max: 64
                }
            ),
            "overloaded 64 active clients (max 64)"
        );
    }
}
