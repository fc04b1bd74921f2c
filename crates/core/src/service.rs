//! The resident query service: a long-lived catalog with maintained
//! statistics, a fingerprinted plan cache, and an incremental ingest path.
//!
//! A [`Service`] owns named relations behind [`Arc`] handles and keeps one
//! [`RelationSketch`] per relation — the only statistics state it
//! maintains, at a bounded capacity in [`StatsMode::Sketch`] and at
//! [`SpaceSaving::UNBOUNDED`] (where every count is exact) in
//! [`StatsMode::Exact`]; the mode is nothing but that capacity — so the
//! per-query pipeline becomes:
//!
//! 1. refuse what the engine cannot plan ([`admit`], as
//!    [`ServiceError::Unsupported`]), canonicalize the query
//!    ([`Query::canonical`]) and look its [`PlanKey`] up in the plan cache
//!    (at most [`DEFAULT_PLAN_CACHE_CAPACITY`] plans, least recently used
//!    evicted first);
//! 2. APPEND/LOAD drop exactly the stale plans; a key found is a hit;
//! 3. on a hit, skip fingerprinting and `Engine` planning entirely and
//!    execute the cached [`Plan`] against a `Database` assembled from
//!    `Arc` clones (no tuple copies, no validation rescans);
//! 4. on a miss, fingerprint the statistics (heavy-hitter membership over
//!    [`planning_projections`] plus power-of-two cardinality buckets), plan
//!    once from them, and cache the plan with its fingerprint. Both read
//!    the one [`SketchStats`] the engine, the CLI and the benchmark plan
//!    from, here over the query's catalog entries, each lending its
//!    relation and its maintained sketch to the one atom that names it:
//!    cardinalities off the relations, heavy hitters off the sketches,
//!    each projection registered — its one backfill scan — the first time
//!    anything asks for it. A §4.2 plan's joint-variable projections are
//!    registered like the rest and kept up to date from then on; no
//!    question is ever answered by scanning a relation.
//!
//! The planner reads nothing but those statistics, and only ingest changes
//! them, so staleness is decided once, where they change.
//! [`Service::append`] folds new tuples into the relation and its sketch
//! in place (`O(appended × tracked projections)`) and re-fingerprints only
//! the cached plans whose query references the appended relation,
//! dropping exactly the stale ones; [`Service::load`] replacing a relation
//! drops every plan that references it.
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
    admit, planning_projections, sketch_capacity, Algorithm, Engine, Plan, PlanKey, RunOutcome,
    SketchStats, Stats, StatsMode,
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
use mpc_stats::sketch::{FreqEstimate, RelationSketch, SpaceSaving};
use std::fmt;
use std::sync::Arc;

/// Errors raised by the service surface — the one typed vocabulary the
/// wire protocol renders (`err {Display}`), replacing the ad-hoc strings
/// that used to thread through engine/service/wire. The fault-containment
/// boundary around planning and execution in [`Service::query_spec`]
/// guarantees every query resolves to `Ok` or one of these: worker panics
/// become [`ServiceError::Internal`] (or [`ServiceError::Unsupported`] for
/// known capability limits), budget trips become [`ServiceError::Timeout`]
/// / [`ServiceError::LimitExceeded`], and the service stays usable for the
/// next query.
#[derive(Debug, PartialEq, Eq)]
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

/// Classify a caught panic payload into a [`ServiceError`]. A panic is
/// always a fault (budget trips return as values and never unwind): known
/// capability limits (the join index's u32 row-id space) become
/// [`ServiceError::Unsupported`]; everything else is
/// [`ServiceError::Internal`].
fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> ServiceError {
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
/// including worker panics re-raised on the caller and injected
/// failpoints — is caught and classified instead of tearing down the
/// caller, and the budget trips `f` returns surface as their typed errors.
pub(crate) fn run_contained<T>(
    f: impl FnOnce() -> Result<T, BudgetExceeded>,
) -> Result<T, ServiceError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(budget_error(e)),
        Err(payload) => Err(classify_panic(payload)),
    }
}

/// How the plan cache served one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Cached plan reused; `Engine` planning was skipped entirely.
    Hit,
    /// No entry for this key (never planned, evicted, or dropped by an
    /// ingest that changed its statistics); planned and cached.
    Miss,
}

impl CacheStatus {
    /// Stable wire/display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
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

    /// Override the hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
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
/// every later read is a borrow of the same set. A wire `QUERY` without
/// `rows` on a plan that partitions derivations never builds the set: it
/// reads [`RunOutcome::answer_count`], counted per server.
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
    /// typed [`ServiceError`]. The wire layer renders `rows` replies
    /// through this, and only those: a reply without `rows` prints the
    /// answer count, which materializes only on a `general` plan.
    pub fn try_answers(&self) -> Result<&AnswerSet, ServiceError> {
        run_contained(|| Ok(self.outcome.answers()))
    }

    /// The pushed-down aggregate result, when the spec carried an
    /// aggregate head.
    pub fn aggregate(&self) -> Option<&crate::aggregate::AggregateResult> {
        self.outcome.aggregate()
    }

    /// Maximum bits received by any server.
    pub fn max_load_bits(&self) -> u64 {
        self.outcome.max_load_bits()
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
            .finish_non_exhaustive()
    }
}

/// A query [`Service::prepare`] admitted and planned. Its `Database` of
/// catalog `Arc`s is a snapshot no later ingest changes.
pub(crate) struct PreparedQuery {
    plan: Arc<Plan>,
    db: Database,
    cache: CacheStatus,
    budget: QueryBudget,
    backend: Backend,
}

impl PreparedQuery {
    /// Execute without the service, inside the fault-containment boundary:
    /// a worker panic or a tripped budget is a typed [`ServiceError`]. A
    /// limited budget also joins a plain query here: into its answer set
    /// when the caller will read `rows`, into its answer count alone when
    /// it will not and the plan partitions derivations.
    pub(crate) fn run(self, rows: bool) -> Result<ServiceOutcome, ServiceError> {
        let outcome =
            run_contained(|| (self.plan).try_execute(&self.db, self.backend, &self.budget, rows))?;
        Ok(ServiceOutcome {
            outcome,
            cache: self.cache,
        })
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
    /// Least-recently-used entries dropped to keep the cache within
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`] plans.
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

/// The bound on the number of cached plans: an insert past it evicts the
/// least-recently-used plan (and advances [`CacheCounters::evictions`]),
/// so an unbounded stream of distinct plan keys cannot grow the cache
/// without limit.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// The resident query service. See the [module docs](self) for the
/// architecture and an end-to-end example.
pub struct Service {
    domain: u64,
    /// `None` until [`Service::with_backend`] is called: queries then run
    /// on [`Backend::from_env`].
    backend: Option<Backend>,
    default_p: usize,
    default_seed: u64,
    entries: Vec<CatalogEntry>,
    names: FastMap<String, usize>,
    plans: FastMap<PlanKey, CacheEntry>,
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
    /// `seed = 1`, and — until [`Service::with_backend`] — the
    /// environment-selected backend ([`Backend::from_env`], read per query).
    pub fn new(domain: u64) -> Service {
        assert!(domain >= 1, "domain must be non-empty");
        Service {
            domain,
            backend: None,
            default_p: 64,
            default_seed: 1,
            entries: Vec::new(),
            names: FastMap::default(),
            plans: FastMap::default(),
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
        self.backend = Some(backend);
        self
    }

    /// The backend queries run on: the one set by
    /// [`Service::with_backend`], else [`Backend::from_env`].
    fn backend(&self) -> Backend {
        self.backend.unwrap_or_else(Backend::from_env)
    }

    /// Set the statistics mode for relations loaded *after* this call
    /// (configure before loading; `mpcskew serve` defaults to
    /// [`StatsMode::Sketch`]). The mode is the capacity of each relation's
    /// [`RelationSketch`]: unbounded — every count exact — in
    /// [`StatsMode::Exact`], sized with headroom over the default `p`
    /// ([`Service::sketch_capacity_for_p`]) in [`StatsMode::Sketch`], where
    /// planning and plan-cache fingerprints read `O(capacity)` state.
    /// Either way appends fold into the summaries without ever rescanning
    /// the relation. In sketch mode a query whose `p` exceeds the capacity
    /// is refused ([`ServiceError::Unsupported`]): below `p` counters a
    /// summary can miss a true `m/p`-heavy hitter.
    pub fn with_stats_mode(mut self, mode: StatsMode) -> Self {
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

    /// The configured statistics mode.
    pub fn stats_mode(&self) -> StatsMode {
        self.stats_mode
    }

    /// The SpaceSaving capacity [`StatsMode::Sketch`] builds summaries
    /// at: the engine's [`sketch_capacity`] for the default `p`, doubled
    /// again and floored at 64 — headroom so per-query `p` above the
    /// default keeps the no-missed-heavy-hitter guarantee. It is also the
    /// largest `p` a sketch-mode query may ask for.
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
    pub(crate) fn relation(&self, name: &str) -> Option<&Relation> {
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
    /// dropped (counted as invalidations). A query prepared before the
    /// append and still executing reads the relation as it was; that
    /// costs one copy of the relation. Returns the new cardinality.
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
        // A prepared query holds the relation until it has executed; with
        // none in flight the service holds the only strong reference and
        // this appends in place. A query in flight costs one copy and
        // keeps reading its snapshot.
        Arc::make_mut(&mut entry.rel).push_rows(tuples);
        let len = entry.rel.len();
        self.revalidate_plans_referencing(name);
        Ok(len)
    }

    /// Set the default deadline for queries that do not override it
    /// (`None` = unlimited). The wire's `SET timeout_ms=` lands here.
    pub(crate) fn set_default_timeout_ms(&mut self, ms: Option<u64>) {
        self.default_timeout_ms = ms;
    }

    /// Set the default cap on materialized answer rows (`None` =
    /// unlimited).
    pub(crate) fn set_default_max_rows(&mut self, rows: Option<u64>) {
        self.default_max_rows = rows;
    }

    /// Set the default cap on aggregate groups (`None` = unlimited).
    pub(crate) fn set_default_max_groups(&mut self, groups: Option<u64>) {
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

    /// Run one fully-specified query: `Service::prepare`, then
    /// `PreparedQuery::run` for a caller that reads the answers, so a
    /// limited budget materializes them inside the run.
    pub fn query_spec(&mut self, spec: &QuerySpec) -> Result<ServiceOutcome, ServiceError> {
        self.prepare(spec)?.run(true)
    }

    /// The part of a query that needs the service, and all a server holds
    /// its service lock for: admission, the plan-cache lookup (fingerprint
    /// and plan through the [`Engine`] only on a miss), the zero-copy
    /// `Database` to run on, and the budget and backend to run under.
    pub(crate) fn prepare(&mut self, spec: &QuerySpec) -> Result<PreparedQuery, ServiceError> {
        let p = spec.p.unwrap_or(self.default_p);
        let seed = spec.seed.unwrap_or(self.default_seed);
        admit(&spec.query, spec.algorithm, spec.aggregate.as_ref())
            .map_err(ServiceError::Unsupported)?;
        let capacity = self.sketch_capacity_for_p();
        if self.stats_mode == StatsMode::Sketch && p > capacity {
            return Err(ServiceError::Unsupported(format!(
                "p={p} is above the sketch capacity {capacity}: a summary of fewer than p \
                 counters can miss an m/p-heavy hitter"
            )));
        }
        // Canonicalization renames variables but keeps their indices, so
        // the aggregate spec applies to the canonical query unchanged.
        let canonical = spec.query.canonical();
        let atom_entries = self.resolve_atoms(&canonical)?;
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
        // APPEND and LOAD drop every plan their statistics change made
        // stale, so an entry that is still here is fresh.
        let (plan, cache) = if let Some(entry) = self.plans.get_mut(&key) {
            self.counters.hits += 1;
            self.tick += 1;
            entry.last_used = self.tick;
            (entry.plan.clone(), CacheStatus::Hit)
        } else {
            let stats = self.sketch_stats(&atom_entries);
            let fingerprint = fingerprint(&stats, &canonical, p);
            let mut engine = Engine::new(&canonical)
                .p(p)
                .seed(seed)
                .algorithm(spec.algorithm);
            if let Some(agg) = &spec.aggregate {
                engine = engine.aggregate(agg.clone());
            }
            // Planning runs inside the containment boundary like execution:
            // a planner panic is this query's `err internal`, and nothing is
            // counted or cached for it.
            let plan = Arc::new(run_contained(|| Ok(engine.stats(&stats).plan(&db)))?);
            self.counters.misses += 1;
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
            (plan, CacheStatus::Miss)
        };
        Ok(PreparedQuery {
            plan,
            db,
            cache,
            budget: self.budget_for(spec),
            backend: self.backend(),
        })
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

    /// The statistics planning and fingerprinting read for a query whose
    /// atoms `atom_entries` maps to catalog entries: a [`SketchStats`] to
    /// which each entry lends its relation and its sketch. Queries have no
    /// self-joins, so no entry is lent twice.
    fn sketch_stats(&mut self, atom_entries: &[usize]) -> SketchStats<'_, &mut RelationSketch> {
        let mut entries: Vec<Option<&mut CatalogEntry>> =
            self.entries.iter_mut().map(Some).collect();
        let (relations, sketches) = atom_entries
            .iter()
            .map(|&i| {
                let CatalogEntry { rel, sketch } = entries[i].take().expect("no self-joins");
                (&**rel, sketch)
            })
            .unzip();
        SketchStats::over(relations, sketches, self.domain)
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
            let current = fingerprint(&self.sketch_stats(&atom_entries), &query, key.p);
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
        while self.plans.len() > DEFAULT_PLAN_CACHE_CAPACITY {
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

/// The plan-cache fingerprint of `q` at `p`: fold the power-of-two
/// cardinality bucket of every atom's relation and the heavy-membership
/// hash of every [`planning_projections`] projection as the planner will
/// read it from `stats` — the (conservative) heavy set it will actually
/// see.
fn fingerprint(stats: &dyn Stats, q: &Query, p: usize) -> u64 {
    let mut h = mix64(p as u64, 0x5e);
    for (j, &m) in stats.simple().cardinalities.iter().enumerate() {
        h = mix64(h, j as u64);
        h = mix64(h, cardinality_bucket(m));
    }
    for (j, cols) in planning_projections(q) {
        let heavy = stats.heavy_hitters(j, &cols, p);
        h = mix64(h, j as u64 ^ heavy_membership_hash(&heavy));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::generators;
    use mpc_data::rng::Rng;
    use mpc_query::{parse_query, AggregateOp};

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
    fn a_prepared_query_runs_on_its_snapshot() {
        let mut svc = Service::new(16)
            .with_backend(Backend::Sequential)
            .with_defaults(4, 1);
        svc.load(Relation::from_rows("S1", 2, &[&[0, 1], &[1, 1]]))
            .unwrap();
        svc.load(Relation::from_rows("S2", 2, &[&[5, 1]])).unwrap();
        let spec = QuerySpec::new(parse_query("S1(x,z), S2(y,z)").unwrap());
        // Prepared before the append and run after it, the query reads S2
        // as it was; the append copied S2 rather than change it under the
        // query.
        let prepared = svc.prepare(&spec).unwrap();
        assert_eq!(svc.append("S2", &[6, 1]), Ok(2));
        assert_eq!(prepared.run(true).unwrap().answers().len(), 2);
        assert_eq!(svc.query_spec(&spec).unwrap().answers().len(), 4);
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
        // Different p / seed / pinned algorithm are distinct entries, even
        // a pin on the algorithm Auto resolves to here.
        let spec = QuerySpec {
            p: Some(8),
            ..QuerySpec::new(q.clone())
        };
        assert_eq!(
            svc.query_spec(&spec).unwrap().cache_status(),
            CacheStatus::Miss
        );
        let pinned = QuerySpec {
            algorithm: Algorithm::HyperCube,
            ..QuerySpec::new(q)
        };
        assert_eq!(
            svc.query_spec(&pinned).unwrap().cache_status(),
            CacheStatus::Miss
        );
        assert_eq!(svc.cached_plans(), 3);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        use CacheStatus::{Hit, Miss};
        // A tiny catalog keeps every plan cheap; each `seed=` is its own
        // plan key.
        let mut svc = Service::new(16)
            .with_backend(Backend::Sequential)
            .with_defaults(4, 1);
        svc.load(Relation::from_rows("S1", 2, &[&[1, 2], &[3, 2]]))
            .unwrap();
        svc.load(Relation::from_rows("S2", 2, &[&[5, 2]])).unwrap();
        let q = parse_query("S1(x,z), S2(y,z)").unwrap();
        let status = |svc: &mut Service, seed: u64| {
            let spec = QuerySpec::new(q.clone()).seed(seed);
            svc.query_spec(&spec).unwrap().cache_status()
        };
        // Fill to capacity, then touch seed 0 so seed 1 is the LRU entry.
        let cap = DEFAULT_PLAN_CACHE_CAPACITY as u64;
        for seed in 0..cap {
            assert_eq!(status(&mut svc, seed), Miss);
        }
        assert_eq!(status(&mut svc, 0), Hit);
        assert_eq!(svc.counters().evictions, 0);
        // One more key overflows the capacity and evicts seed 1.
        assert_eq!(status(&mut svc, cap), Miss);
        assert_eq!(svc.cached_plans(), DEFAULT_PLAN_CACHE_CAPACITY);
        assert_eq!(svc.counters().evictions, 1);
        // Seed 0 survived (recently used); seed 1 replans: miss, then hit.
        assert_eq!(status(&mut svc, 0), Hit);
        assert_eq!(status(&mut svc, 1), Miss);
        assert_eq!(status(&mut svc, 1), Hit);
        // The seed-1 reinsert displaced seed 2, the LRU entry by then.
        assert_eq!(svc.counters().evictions, 2);
        assert_eq!(svc.cached_plans(), DEFAULT_PLAN_CACHE_CAPACITY);
        assert_eq!(status(&mut svc, 3), Hit);
        assert_eq!(status(&mut svc, 2), Miss);
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
        // Admission refuses an aggregate over variables the query lacks,
        // before asking whether its pinned algorithm may aggregate.
        let bad = AggregateSpec::new(vec![9], vec![AggregateOp::Count]).unwrap();
        let triangle = parse_query("S1(x,y), S2(y,z), S3(z,x)").unwrap();
        let spec = QuerySpec {
            algorithm: Algorithm::GeneralSkew,
            ..QuerySpec::new(triangle)
        };
        let Err(ServiceError::Unsupported(invalid)) = svc.query_spec(&spec.aggregate(bad)) else {
            panic!("an out-of-range group-by variable is admitted");
        };
        assert!(invalid.starts_with("invalid aggregate: "), "{invalid}");
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
    fn sketch_mode_plans_from_its_sketches_alone() {
        // A Zipf triangle Auto plans with §4.2: its first miss registers
        // every projection the planner asks for; later misses, before and
        // after an APPEND, read them without scanning. In both modes the
        // service plans exactly as the engine does from the mode's
        // reference: `SketchStats` at the service's capacity in sketch
        // mode, and in exact mode the engine's own exact statistics — the
        // independent frequency-map scan, against which the service's
        // unbounded sketches must be the same state.
        use crate::engine::SketchStats;
        use mpc_data::stats_scan_bytes_total;
        let (n, p) = (1u64 << 10, 16);
        for mode in [StatsMode::Sketch, StatsMode::Exact] {
            let mut rng = Rng::seed_from_u64(7);
            let mut svc = Service::new(n)
                .with_backend(Backend::Sequential)
                .with_defaults(p, 1)
                .with_stats_mode(mode);
            for name in ["S1", "S2", "S3"] {
                svc.load(generators::zipf_column(name, 2, 2000, n, 0, 1.1, &mut rng))
                    .unwrap();
            }
            let triangle = parse_query("S1(x,y), S2(y,z), S3(z,x)")
                .unwrap()
                .canonical();
            // Plans one miss, checks it against the engine, and returns the
            // bytes the service scanned to plan it.
            let miss = |svc: &mut Service, seed: u64| -> u64 {
                let spec = QuerySpec::new(triangle.clone()).seed(seed);
                let before = stats_scan_bytes_total();
                let out = svc.query_spec(&spec).unwrap();
                let scanned = stats_scan_bytes_total() - before;
                assert_eq!(out.cache_status(), CacheStatus::Miss, "{mode} seed {seed}");
                assert_eq!(out.algorithm(), Algorithm::GeneralSkew, "{mode}");
                let key = PlanKey {
                    shape: triangle.shape(),
                    p,
                    seed,
                    algorithm: Algorithm::Auto,
                    aggregate: None,
                };
                let plan = &svc.plans[&key].plan;
                let got = (
                    plan.predicted_load_bits(),
                    plan.num_bin_combinations(),
                    out.max_load_bits(),
                );
                let atoms = svc.resolve_atoms(&triangle).unwrap();
                let rels = atoms.iter().map(|&i| svc.entries[i].rel.clone()).collect();
                let db = Database::from_shared(triangle.clone(), rels, n).unwrap();
                let engine = Engine::new(&triangle).p(p).seed(seed);
                let want = match mode {
                    StatsMode::Sketch => engine
                        .stats(&SketchStats::of(&db, svc.sketch_capacity_for_p()))
                        .plan(&db),
                    // Handed no source, the engine plans from exact
                    // statistics.
                    StatsMode::Exact => engine.plan(&db),
                };
                let want = (
                    want.predicted_load_bits(),
                    want.num_bin_combinations(),
                    want.execute(&db, Backend::Sequential).max_load_bits(),
                );
                assert_eq!(
                    got, want,
                    "{mode} seed {seed}: the service planned off its sketches"
                );
                scanned
            };
            assert!(
                miss(&mut svc, 1) > 0,
                "{mode}: the first miss registers projections"
            );
            assert_eq!(miss(&mut svc, 2), 0, "{mode}: a second miss rescans");
            svc.append("S1", &[0, 5, 1, 6, 2, 7]).unwrap();
            assert_eq!(
                miss(&mut svc, 3),
                0,
                "{mode}: a miss after an APPEND rescans"
            );

            // HyperCube and the skew join read nothing but the planning
            // projections, so they register exactly those.
            for (names, zipf, expect) in [
                (["U1", "U2"], false, Algorithm::HyperCube),
                (["Z1", "Z2"], true, Algorithm::SkewJoin),
            ] {
                for name in names {
                    svc.load(if zipf {
                        generators::zipf_column(name, 3, 2000, n, 0, 1.1, &mut rng)
                    } else {
                        generators::uniform(name, 3, 2000, n, &mut rng)
                    })
                    .unwrap();
                }
                let text = format!("{}(x,y,z), {}(x,y,w)", names[0], names[1]);
                let q = parse_query(&text).unwrap();
                assert_eq!(svc.query(&q).unwrap().algorithm(), expect, "{mode}");
                let projections = planning_projections(&q.canonical());
                for (j, name) in names.into_iter().enumerate() {
                    let info = (svc.relation_infos().into_iter())
                        .find(|info| info.name == name)
                        .unwrap();
                    let asked = projections.iter().filter(|(atom, _)| *atom == j).count();
                    assert_eq!(info.tracked_projections, asked, "{mode} {text}: {name}");
                }
            }
        }
    }

    mpc_testkit::proptest! {
        #![proptest_config(mpc_testkit::ProptestConfig::with_cases(24))]

        /// The freshness invariant a cache hit relies on: after every LOAD
        /// (new or replacing), APPEND and QUERY, each cached entry's stored
        /// fingerprint equals the one recomputed from the statistics of
        /// that moment — so a lookup that finds its key never needs to
        /// fingerprint. Ops are `(kind, relation, aux, value)`: kind 0
        /// queries shape `relation` at `p = 4 << 2·aux`; 1 appends two light
        /// tuples; 2 appends enough copies of `value` in column `aux` to push
        /// it past `m_j / p` at both `p`; 3 appends light tuples until the
        /// cardinality crosses a power of two; 4 (re)loads the relation.
        /// Kinds 2 and 3 append light tuples once a relation passes 1 024
        /// rows, which keeps every case small.
        #[test]
        fn cached_fingerprints_track_every_ingest(
            ops in mpc_testkit::collection::vec((0usize..5, 0usize..4, 0usize..2, 0u64..256), 1..16),
            seed in 0u64..1_000,
        ) {
            const NAMES: [&str; 4] = ["S1", "S2", "S3", "S4"];
            let shapes = [
                "S1(x,z), S2(y,z)",
                "S2(x,y), S3(y,z)",
                "S1(x,y), S2(y,z), S3(z,x)",
                "S3(x,z), S4(y,z)",
            ]
            .map(|text| parse_query(text).unwrap());
            let n = 256u64;
            let light = |rng: &mut Rng, rows: usize| -> Vec<u64> {
                (0..2 * rows).map(|_| rng.below(n)).collect()
            };
            for mode in [StatsMode::Exact, StatsMode::Sketch] {
                let mut rng = Rng::seed_from_u64(seed);
                let mut svc = Service::new(n)
                    .with_backend(Backend::Sequential)
                    .with_defaults(4, 1)
                    .with_stats_mode(mode);
                for name in &NAMES[..3] {
                    svc.load(generators::uniform(name, 2, 48, n, &mut rng)).unwrap();
                }
                for &(kind, r, aux, value) in &ops {
                    let name = NAMES[r];
                    let len = svc.relation(name).map_or(0, Relation::len);
                    // Ingest into a relation that was never loaded (S4
                    // before its first LOAD) errs and changes nothing.
                    let _ = match kind {
                        0 => svc
                            .query_spec(&QuerySpec {
                                p: Some(4 << (2 * aux)),
                                ..QuerySpec::new(shapes[r].clone())
                            })
                            .map(|_| 0),
                        2 if len <= 1024 => {
                            let mut rows = light(&mut rng, len / 2 + 1);
                            rows.iter_mut().skip(aux).step_by(2).for_each(|v| *v = value);
                            svc.append(name, &rows)
                        }
                        3 if len <= 1024 => {
                            let rows = light(&mut rng, len.next_power_of_two() + 1 - len);
                            svc.append(name, &rows)
                        }
                        1..=3 => svc.append(name, &light(&mut rng, 2)),
                        _ => svc.load(generators::uniform(name, 2, 16 + value as usize, n, &mut rng)),
                    };
                    let keys: Vec<PlanKey> = svc.plans.keys().cloned().collect();
                    for key in keys {
                        let query = svc.plans[&key].query.clone();
                        let atoms = svc.resolve_atoms(&query).unwrap();
                        let now = fingerprint(&svc.sketch_stats(&atoms), &query, key.p);
                        mpc_testkit::prop_assert_eq!(svc.plans[&key].fingerprint, now, "{mode} after op {kind} on {name}");
                    }
                }
            }
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
