//! The unified engine: one stats-driven plan/execute surface over every
//! algorithm in this crate.
//!
//! The paper's central argument is that the *right* algorithm depends on
//! the data: skew-free databases want HyperCube at the LP-optimal shares
//! (Section 3), skewed ones want the §4.1/§4.2 heavy-hitter
//! decompositions, and the `L(u, M, p)` bounds say what load is
//! achievable. [`Engine`] encodes that choice once, instead of every call
//! site hand-rolling its own dispatch:
//!
//! * [`Engine`] — a builder (`query`, `p`, `seed`, `backend`, `stats`,
//!   `algorithm`) that plans and executes;
//! * [`Algorithm`] — the algorithm menu, including [`Algorithm::Auto`],
//!   which picks from heavy-hitter statistics;
//! * [`Stats`] — the error-bounded statistics surface the planner
//!   consumes, re-exported from [`mpc_stats::source`] ([`ExactStats`]
//!   reads the data exactly, [`SketchStats`] answers from sublinear
//!   SpaceSaving summaries, [`SyntheticStats`] carries cardinalities only;
//!   pick with [`StatsMode`] / [`Engine::stats_mode`]);
//! * [`Plan`] — a planned algorithm carrying its predicted `L(u, M, p)`
//!   load and plan metadata (shares, heavy hitters, bin combinations,
//!   rounds); [`execute_batch`] runs many `(plan, db)` jobs in parallel
//!   across jobs;
//! * [`RunOutcome`] — the unified result: answers (held once), measured
//!   [`LoadReport`], predicted-vs-measured load, per-round statistics for
//!   the multi-round baseline.
//!
//! ```
//! use mpc_core::engine::{Algorithm, Engine};
//! use mpc_data::{generators, Database, Rng};
//! use mpc_query::named;
//!
//! // A Zipf(1.2) two-way join: skewed, so `auto` must pick the skew join.
//! let q = named::two_way_join();
//! let n = 1u64 << 12;
//! let mut rng = Rng::seed_from_u64(1);
//! let d1 = generators::zipf_degrees(3000, n, 1.2);
//! let d2 = generators::zipf_degrees(3000, n, 1.2);
//! let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
//! let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
//! let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
//!
//! let engine = Engine::new(&q).p(16).seed(42);
//! let plan = engine.plan(&db);
//! assert_eq!(plan.algorithm(), Algorithm::SkewJoin);
//! assert!(plan.predicted_load_bits() > 0.0);
//!
//! let outcome = engine.run(&db);
//! assert!(outcome.verify(&db).is_complete());
//! assert!(outcome.max_load_bits() > 0);
//! ```

use crate::aggregate::{aggregate_cluster, AggregateResult};
use crate::baselines::{FragmentReplicateRouter, HashJoinRouter};
use crate::bounds::skew_join_bound;
use crate::hypercube::HyperCube;
use crate::multi_round::{run_multi_round, MultiRoundResult};
use crate::shares::ShareAllocation;
use crate::skew_general::GeneralSkewAlgorithm;
use crate::skew_join::{SkewJoin, SkewJoinConfig};
use crate::verify::{self, aggregate_oracle, Verification};
use mpc_data::answers::AnswerSet;
use mpc_data::budget::{BudgetExceeded, QueryBudget};
use mpc_data::catalog::Database;
use mpc_query::aggregate::AggregateSpec;
use mpc_query::{Query, QueryShape, VarSet};
use mpc_sim::backend::Backend;
use mpc_sim::cluster::{Cluster, Router};
use mpc_sim::load::LoadReport;
use mpc_stats::cardinality::SimpleStatistics;
use mpc_stats::heavy::HeavyHitters;
use std::fmt;
use std::sync::OnceLock;

pub use mpc_stats::source::{ExactStats, SketchStats, Stats, SyntheticStats};

/// The one refusal every surface gives an aggregate head pinned to an
/// algorithm that fails [`Algorithm::partitions_derivations`]: the engine
/// panics with it, the service wraps it in `ServiceError::Unsupported`,
/// the CLI prints it after `error: `.
pub const AGGREGATE_NEEDS_PARTITIONING: &str =
    "aggregate heads need a plan that materializes every join derivation exactly once; \
     `multi-round` and `general` do not (use auto, hc, hc-equal, hash, fragment-replicate \
     or skew-join)";

/// The one refusal every surface gives [`Algorithm::SkewJoin`] pinned on a
/// query that is not [`Query::is_two_atom_join`], worded and surfaced like
/// [`AGGREGATE_NEEDS_PARTITIONING`].
pub const SKEW_JOIN_NEEDS_TWO_ATOMS: &str =
    "`skew-join` handles exactly two atoms that share a variable \
     (use auto, hc or general)";

/// The largest server count `p` any surface accepts (`p=` on the wire,
/// `--p` on the CLI). A round allocates `p` fragments per atom before its
/// first budget poll, so an unbounded `p` is an unbounded allocation no
/// `timeout=` can stop; at this bound an empty query already costs tens of
/// milliseconds.
pub const MAX_SERVERS: usize = 1 << 16;

/// The algorithm menu. [`Algorithm::Auto`] resolves to a concrete choice
/// at plan time from the statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Pick from the statistics: HyperCube on skew-free data, the §4.1
    /// skew join on skewed two-relation joins, the §4.2 general algorithm
    /// on any other skewed query.
    Auto,
    /// HyperCube at the LP (5)-optimal shares (Section 3.1).
    HyperCube,
    /// HyperCube at equal shares `p^{1/k}` (Corollary 3.2(ii)).
    HyperCubeEqual,
    /// The standard parallel hash join baseline.
    HashJoin,
    /// Footnote 1's broadcast join baseline.
    FragmentReplicate,
    /// The §4.1 two-relation skew join.
    SkewJoin,
    /// The §4.2 general bin-combination algorithm.
    GeneralSkew,
    /// The traditional one-join-per-round baseline.
    MultiRound,
}

impl Algorithm {
    /// Stable CLI/display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::HyperCube => "hc",
            Algorithm::HyperCubeEqual => "hc-equal",
            Algorithm::HashJoin => "hash",
            Algorithm::FragmentReplicate => "fragment-replicate",
            Algorithm::SkewJoin => "skew-join",
            Algorithm::GeneralSkew => "general",
            Algorithm::MultiRound => "multi-round",
        }
    }

    /// Parse a CLI algorithm name (the inverse of [`Algorithm::name`],
    /// plus a few ergonomic aliases).
    pub fn parse(s: &str) -> Result<Algorithm, String> {
        Ok(match s {
            "auto" => Algorithm::Auto,
            "hc" | "hypercube" => Algorithm::HyperCube,
            "hc-equal" => Algorithm::HyperCubeEqual,
            "hash" | "hash-join" => Algorithm::HashJoin,
            "fragment-replicate" | "fr" => Algorithm::FragmentReplicate,
            "skew-join" => Algorithm::SkewJoin,
            "general" => Algorithm::GeneralSkew,
            "multi-round" | "mr" => Algorithm::MultiRound,
            other => return Err(format!("unknown algorithm `{other}`")),
        })
    }

    /// True when the algorithm's routing puts each join derivation on
    /// exactly one server — what bag-semantics aggregate pushdown needs
    /// (see [`crate::aggregate`]). False for the multi-round baseline
    /// (no per-derivation fold over its rounds) and the §4.2 general
    /// algorithm (bin-combination sub-instances replicate derivations);
    /// [`Algorithm::Auto`] resolves to an eligible plan by itself.
    pub fn partitions_derivations(self) -> bool {
        !matches!(self, Algorithm::MultiRound | Algorithm::GeneralSkew)
    }

    /// Every concrete (non-auto) algorithm, in menu order.
    pub fn all() -> [Algorithm; 7] {
        [
            Algorithm::HyperCube,
            Algorithm::HyperCubeEqual,
            Algorithm::HashJoin,
            Algorithm::FragmentReplicate,
            Algorithm::SkewJoin,
            Algorithm::GeneralSkew,
            Algorithm::MultiRound,
        ]
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-projection SpaceSaving capacity the engine uses for `p`
/// servers: `2p`, floored at 16. Capacity `>= p` guarantees no true
/// `m/p`-heavy hitter is missed; the extra factor keeps the guarantee
/// under moderate per-query `p` drift and tightens the error bounds.
pub fn sketch_capacity(p: usize) -> usize {
    (2 * p).max(16)
}

/// Which statistics source [`Engine::plan`] builds when none is supplied
/// explicitly via [`Engine::stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum StatsMode {
    /// [`ExactStats`]: scan the relations per consulted projection.
    #[default]
    Exact,
    /// [`SketchStats`]: SpaceSaving summaries, error-bounded and
    /// sublinear to maintain.
    Sketch,
    /// [`SyntheticStats`]: cardinalities only — no skew visible.
    Synthetic,
}

impl StatsMode {
    /// Stable CLI/display name.
    pub fn name(self) -> &'static str {
        match self {
            StatsMode::Exact => "exact",
            StatsMode::Sketch => "sketch",
            StatsMode::Synthetic => "synthetic",
        }
    }

    /// Parse a CLI name (inverse of [`StatsMode::name`]).
    pub fn parse(s: &str) -> Result<StatsMode, String> {
        Ok(match s {
            "exact" => StatsMode::Exact,
            "sketch" => StatsMode::Sketch,
            "synthetic" => StatsMode::Synthetic,
            other => return Err(format!("unknown stats mode `{other}`")),
        })
    }
}

impl fmt::Display for StatsMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// True when some atom has a heavy hitter (frequency `> m_j/p`) on a
/// variable it shares with another atom — the condition under which the
/// §4 algorithms beat plain HyperCube. `simple` is `stats.simple()` (the
/// planner computes it once and threads it through).
///
/// Checking single shared variables suffices: any jointly-heavy
/// assignment of a larger subset projects to an at-least-as-frequent
/// assignment of each member variable at the same `m_j/p` threshold.
pub(crate) fn detects_join_skew(
    q: &Query,
    stats: &dyn Stats,
    simple: &SimpleStatistics,
    p: usize,
) -> bool {
    for j in 0..q.num_atoms() {
        let own = q.atom(j).var_set();
        let shared = (0..q.num_atoms())
            .filter(|&k| k != j)
            .fold(VarSet::EMPTY, |s, k| {
                s.union(own.intersect(q.atom(k).var_set()))
            });
        let threshold = simple.cardinalities[j] as f64 / p as f64;
        for v in shared.iter() {
            let cols = mpc_stats::heavy::columns_for(q, j, VarSet::singleton(v));
            if stats
                .heavy_hitters(j, &cols, p)
                .iter()
                .any(|e| e.may_exceed(threshold))
            {
                return true;
            }
        }
    }
    false
}

/// Resolve [`Algorithm::Auto`]: HyperCube at the LP-optimal shares when
/// the join variables are skew-free; on skewed data, the §4.1 skew join
/// for two-relation joins and the §4.2 general algorithm otherwise.
pub(crate) fn choose(
    q: &Query,
    stats: &dyn Stats,
    simple: &SimpleStatistics,
    p: usize,
) -> Algorithm {
    if !detects_join_skew(q, stats, simple, p) {
        Algorithm::HyperCube
    } else if q.is_two_atom_join() {
        Algorithm::SkewJoin
    } else {
        Algorithm::GeneralSkew
    }
}

/// The `(atom, cols)` frequency projections planning consults for `q`:
/// every single shared variable of every atom (the skew-detection
/// enumeration that resolves [`Algorithm::Auto`]), plus — on two-relation
/// joins — each side's full shared-variable projection (what
/// [`Algorithm::SkewJoin`] routes heavy hitters by). A plan cache must
/// fingerprint heavy-hitter state over exactly these projections: appends
/// that change no heavy set here cannot flip the auto choice.
pub fn planning_projections(q: &Query) -> Vec<(usize, Vec<usize>)> {
    let mut out: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut push = |entry: (usize, Vec<usize>)| {
        if !entry.1.is_empty() && !out.contains(&entry) {
            out.push(entry);
        }
    };
    for j in 0..q.num_atoms() {
        let own = q.atom(j).var_set();
        let shared = (0..q.num_atoms())
            .filter(|&k| k != j)
            .fold(VarSet::EMPTY, |s, k| {
                s.union(own.intersect(q.atom(k).var_set()))
            });
        for v in shared.iter() {
            push((j, mpc_stats::heavy::columns_for(q, j, VarSet::singleton(v))));
        }
    }
    if q.num_atoms() == 2 {
        let shared = q.atom(0).var_set().intersect(q.atom(1).var_set());
        if shared.len() > 1 {
            for j in 0..2 {
                push((j, mpc_stats::heavy::columns_for(q, j, shared)));
            }
        }
    }
    out
}

/// A plan-cache key: the canonicalized query structure plus every planning
/// parameter baked into a [`Plan`] (server count, hash seed, and the
/// *requested* algorithm — `Auto` and a pinned choice must not share an
/// entry even when they resolve identically today). Pair it with a
/// fingerprint of the statistics over [`planning_projections`] to know
/// when the cached plan went stale.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`Query::shape`] of the (canonicalized) query.
    pub shape: QueryShape,
    /// Number of servers `p`.
    pub p: usize,
    /// Seed keying the plan's hash functions.
    pub seed: u64,
    /// The algorithm as requested (possibly [`Algorithm::Auto`]).
    pub algorithm: Algorithm,
    /// The aggregate head, when the query has one. Variable indices are
    /// canonicalization-stable (renaming keeps indices), so the spec can
    /// be keyed verbatim. An aggregate query and its materializing twin
    /// must not share an entry: their plans collect differently.
    pub aggregate: Option<AggregateSpec>,
}

/// The hash-join partition variable the engine uses: the variable
/// occurring in the most atoms (ties: highest index, matching the
/// historical CLI behaviour).
pub fn default_hash_vars(q: &Query) -> VarSet {
    let key = (0..q.num_vars())
        .max_by_key(|&i| q.atoms_with_var(i).count())
        .expect("query has variables");
    VarSet::singleton(key)
}

/// A planned algorithm instance: the configured router (or multi-round
/// schedule) plus the plan's predicted load and metadata. Built by
/// [`Engine::plan`]; executed by [`Plan::execute`] or, many at a time,
/// by [`execute_batch`].
///
/// ```
/// use mpc_core::engine::{Algorithm, Engine};
/// use mpc_data::{generators, Database, Rng};
/// use mpc_query::named;
/// use mpc_sim::backend::Backend;
///
/// let q = named::two_way_join();
/// let mut rng = Rng::seed_from_u64(5);
/// let s1 = generators::uniform("S1", 2, 1000, 1 << 12, &mut rng);
/// let s2 = generators::uniform("S2", 2, 1000, 1 << 12, &mut rng);
/// let db = Database::new(q.clone(), vec![s1, s2], 1 << 12).unwrap();
///
/// // Uniform data: `auto` resolves to LP-optimal HyperCube.
/// let plan = Engine::new(&q).p(16).seed(7).plan(&db);
/// assert_eq!(plan.algorithm(), Algorithm::HyperCube);
/// assert!(plan.shares().is_some());
///
/// // Batches run across jobs and agree with one-at-a-time execution.
/// let batched = mpc_core::engine::execute_batch(&[(&plan, &db)], Backend::Pooled(2));
/// let outcome = plan.execute(&db, Backend::Sequential);
/// assert_eq!(batched[0].report(), outcome.report());
/// assert_eq!(batched[0].answers(), outcome.answers());
/// ```
pub struct Plan {
    query: Query,
    algorithm: Algorithm,
    p: usize,
    seed: u64,
    predicted_load_bits: f64,
    lower_bound_bits: f64,
    aggregate: Option<AggregateSpec>,
    kind: PlanKind,
}

enum PlanKind {
    HyperCube(HyperCube),
    HashJoin(HashJoinRouter),
    FragmentReplicate(FragmentReplicateRouter),
    SkewJoin(SkewJoin),
    GeneralSkew(Box<GeneralSkewAlgorithm>),
    MultiRound,
}

impl Plan {
    /// The resolved (never `Auto`) algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The query this plan evaluates.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The plan's predicted per-server load in bits — the algorithm's own
    /// `L(u, M, p)`-style prediction (LP (5) `p^λ` for HyperCube, Eq. (10)
    /// for the skew join, Theorem 4.6's `max_B p^{λ(B)}` for the general
    /// algorithm, scan/broadcast arithmetic for the baselines), valid up
    /// to the paper's constant and polylog factors.
    pub fn predicted_load_bits(&self) -> f64 {
        self.predicted_load_bits
    }

    /// `L_lower = max_{u ∈ pk(q)} L(u, M, p)` in bits (Theorem 3.5) for the
    /// statistics the plan was built from — what *any* one-round algorithm
    /// must pay. Computed as the LP (5) optimum `p^λ`, which Theorem 3.6
    /// proves equal to that maximum: planning solves the LP once and never
    /// enumerates packing vertices (the closed form in [`crate::bounds`] is
    /// the reference the property tests hold this number to, within 1e-4
    /// relative). Variables are non-negative, so the value floors at
    /// `p^0 = 1` bit.
    pub fn lower_bound_bits(&self) -> f64 {
        self.lower_bound_bits
    }

    /// HyperCube share vector (one dimension per variable), when the plan
    /// is a HyperCube.
    pub fn shares(&self) -> Option<Vec<usize>> {
        match &self.kind {
            PlanKind::HyperCube(hc) => Some(hc.grid().dims().to_vec()),
            _ => None,
        }
    }

    /// Planned replication per atom — the number of servers each of its
    /// tuples is sent to ([`HyperCube::replication_of`]) — when the plan is
    /// a HyperCube. Their cardinality-weighted sum is the round's total
    /// communication, the term the share LP's tie-break minimizes.
    pub fn replication(&self) -> Option<Vec<usize>> {
        match &self.kind {
            PlanKind::HyperCube(hc) => Some(
                (0..self.query.num_atoms())
                    .map(|j| hc.replication_of(j))
                    .collect(),
            ),
            _ => None,
        }
    }

    /// Number of heavy shared-variable values handled specially (§4.1
    /// skew join only).
    pub fn num_heavy(&self) -> Option<usize> {
        match &self.kind {
            PlanKind::SkewJoin(sj) => Some(sj.num_heavy()),
            _ => None,
        }
    }

    /// Number of bin combinations packed into the round (§4.2 general
    /// algorithm only).
    pub fn num_bin_combinations(&self) -> Option<usize> {
        match &self.kind {
            PlanKind::GeneralSkew(alg) => Some(alg.combination_summary().len()),
            _ => None,
        }
    }

    /// Heavy projections dropped by the `|C'(B)| <= p` cap, whose tuples
    /// fall back to `B_∅` (§4.2 general algorithm only).
    pub fn dropped_assignments(&self) -> Option<usize> {
        match &self.kind {
            PlanKind::GeneralSkew(alg) => Some(alg.dropped_assignments()),
            _ => None,
        }
    }

    /// Communication rounds the plan will take: 1 for every one-round
    /// algorithm, `max(ℓ - 1, 1)` for the multi-round baseline. Always
    /// equal to the executed [`RunOutcome::num_rounds`].
    pub fn planned_rounds(&self) -> usize {
        match &self.kind {
            PlanKind::MultiRound => self.query.num_atoms().saturating_sub(1).max(1),
            _ => 1,
        }
    }

    /// Execute the plan on `db` with an explicit backend. Results are
    /// bit-identical to invoking the planned algorithm directly
    /// (`Sequential` and `Pooled(n)` agree).
    pub fn execute(&self, db: &Database, backend: Backend) -> RunOutcome {
        self.try_execute(db, backend, &QueryBudget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
    }

    /// [`Plan::execute`] under a cooperative [`QueryBudget`]: the shuffle
    /// polls every 512 routed tuples, the pushed-down aggregate fold polls
    /// inside every server's local join and charges groups against the
    /// group cap, and the multi-round baseline does both every round (see
    /// [`crate::multi_round`]). A limited budget must charge every
    /// materialized answer row against its cap, so a plain (non-aggregate)
    /// plan's answers are joined here, inside the budget, and handed to
    /// the outcome; under [`QueryBudget::unlimited`] they stay lazy until
    /// [`RunOutcome::answers`] is first read, so callers that never read
    /// them — the batch throughput path — never pay for them.
    pub fn try_execute(
        &self,
        db: &Database,
        backend: Backend,
        budget: &QueryBudget,
    ) -> Result<RunOutcome, BudgetExceeded> {
        assert_eq!(
            db.query(),
            &self.query,
            "plan was built for a different query"
        );
        let mut answers = OnceLock::new();
        let (detail, aggregate) = match &self.kind {
            PlanKind::MultiRound => (
                OutcomeDetail::MultiRound(run_multi_round(db, self.p, self.seed, backend, budget)?),
                None,
            ),
            _ => {
                let cluster = Cluster::try_run_round_on(db, self.p, self, backend, budget)?;
                let report = cluster.report();
                // Aggregate pushdown: fold each server's local join into
                // a per-group accumulator and merge — answers are never
                // materialized into an `AnswerSet`.
                let aggregate = match &self.aggregate {
                    Some(spec) => Some(aggregate_cluster(&cluster, &self.query, spec, budget)?),
                    None => {
                        if !budget.is_unlimited() {
                            answers = OnceLock::from(cluster.try_all_answers(&self.query, budget)?);
                        }
                        None
                    }
                };
                (OutcomeDetail::OneRound { cluster, report }, aggregate)
            }
        };
        Ok(RunOutcome {
            algorithm: self.algorithm,
            predicted_load_bits: self.predicted_load_bits,
            lower_bound_bits: self.lower_bound_bits,
            query: self.query.clone(),
            aggregate_spec: self.aggregate.clone(),
            aggregate,
            answers,
            detail,
        })
    }
}

/// A one-round plan routes as the algorithm it planned.
impl Router for Plan {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        match &self.kind {
            PlanKind::HyperCube(r) => r.route(atom, tuple, out),
            PlanKind::HashJoin(r) => r.route(atom, tuple, out),
            PlanKind::FragmentReplicate(r) => r.route(atom, tuple, out),
            PlanKind::SkewJoin(r) => r.route(atom, tuple, out),
            PlanKind::GeneralSkew(r) => r.route(atom, tuple, out),
            PlanKind::MultiRound => unreachable!("multi-round plans route round by round"),
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (p={}, predicted L={:.0} bits, L_lower={:.0} bits",
            self.algorithm, self.p, self.predicted_load_bits, self.lower_bound_bits
        )?;
        if let Some(shares) = self.shares() {
            write!(f, ", shares={shares:?}")?;
        }
        if let Some(h) = self.num_heavy() {
            write!(f, ", heavy={h}")?;
        }
        if let Some(c) = self.num_bin_combinations() {
            write!(f, ", combos={c}")?;
        }
        if self.planned_rounds() > 1 {
            write!(f, ", rounds={}", self.planned_rounds())?;
        }
        write!(f, ")")
    }
}

/// The unified execution result: what every algorithm returns through the
/// engine, whether it ran one round (`Cluster` + [`LoadReport`]) or the
/// multi-round baseline ([`MultiRoundResult`]). It holds its answer set
/// once: every [`RunOutcome::answers`] read borrows the same set.
pub struct RunOutcome {
    algorithm: Algorithm,
    predicted_load_bits: f64,
    lower_bound_bits: f64,
    query: Query,
    aggregate_spec: Option<AggregateSpec>,
    aggregate: Option<AggregateResult>,
    /// A one-round outcome's answers: filled by [`Plan::try_execute`]
    /// inside a limited budget, by the first read otherwise. (A
    /// multi-round outcome's answers live in its [`MultiRoundResult`].)
    answers: OnceLock<AnswerSet>,
    detail: OutcomeDetail,
}

enum OutcomeDetail {
    OneRound {
        cluster: Cluster,
        report: LoadReport,
    },
    MultiRound(MultiRoundResult),
}

impl RunOutcome {
    /// The algorithm that ran.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The plan's predicted per-server load in bits (see
    /// [`Plan::predicted_load_bits`]).
    pub fn predicted_load_bits(&self) -> f64 {
        self.predicted_load_bits
    }

    /// `L_lower` in bits for the planning statistics (see
    /// [`Plan::lower_bound_bits`]).
    pub fn lower_bound_bits(&self) -> f64 {
        self.lower_bound_bits
    }

    /// The post-shuffle cluster (one-round algorithms only).
    pub fn cluster(&self) -> Option<&Cluster> {
        match &self.detail {
            OutcomeDetail::OneRound { cluster, .. } => Some(cluster),
            OutcomeDetail::MultiRound(_) => None,
        }
    }

    /// The measured one-round [`LoadReport`] (one-round algorithms only).
    pub fn report(&self) -> Option<&LoadReport> {
        match &self.detail {
            OutcomeDetail::OneRound { report, .. } => Some(report),
            OutcomeDetail::MultiRound(_) => None,
        }
    }

    /// The multi-round result (multi-round baseline only).
    pub fn multi_round(&self) -> Option<&MultiRoundResult> {
        match &self.detail {
            OutcomeDetail::OneRound { .. } => None,
            OutcomeDetail::MultiRound(mr) => Some(mr),
        }
    }

    /// Maximum bits received by any server in any round — the MPC cost
    /// both kinds of result are measured by.
    pub fn max_load_bits(&self) -> u64 {
        match &self.detail {
            OutcomeDetail::OneRound { report, .. } => report.max_load_bits(),
            OutcomeDetail::MultiRound(mr) => mr.max_round_load_bits(),
        }
    }

    /// Communication rounds actually executed.
    pub fn num_rounds(&self) -> usize {
        match &self.detail {
            OutcomeDetail::OneRound { .. } => 1,
            OutcomeDetail::MultiRound(mr) => mr.num_rounds(),
        }
    }

    /// The distinct answers, sorted, in query-variable order (flat
    /// [`AnswerSet`] storage; `.to_nested()` is the nested escape hatch).
    /// A one-round outcome that was not executed under a limited budget
    /// runs its servers' local joins on the first call and keeps the set.
    pub fn answers(&self) -> &AnswerSet {
        match &self.detail {
            OutcomeDetail::OneRound { cluster, .. } => self
                .answers
                .get_or_init(|| cluster.all_answers(&self.query)),
            OutcomeDetail::MultiRound(mr) => &mr.answers,
        }
    }

    /// The pushed-down aggregate result, when the plan carried an
    /// [`AggregateSpec`] (plans whose algorithm
    /// [partitions derivations](Algorithm::partitions_derivations) only).
    pub fn aggregate(&self) -> Option<&AggregateResult> {
        self.aggregate.as_ref()
    }

    /// The aggregate spec the plan evaluated, if any.
    pub fn aggregate_spec(&self) -> Option<&AggregateSpec> {
        self.aggregate_spec.as_ref()
    }

    /// Differentially check the pushed-down aggregate against the
    /// sequential Fixed-order oracle fold over `db`. `None` when this
    /// outcome carries no aggregate.
    pub fn verify_aggregate(&self, db: &Database) -> Option<bool> {
        match (&self.aggregate_spec, &self.aggregate) {
            (Some(spec), Some(result)) => Some(*result == aggregate_oracle(db, spec)),
            _ => None,
        }
    }

    /// Verify the answers against the sequential ground truth of `db`
    /// (computed on the cluster's own backend for a one-round outcome).
    pub fn verify(&self, db: &Database) -> Verification {
        let backend = match &self.detail {
            OutcomeDetail::OneRound { cluster, .. } => cluster.backend(),
            OutcomeDetail::MultiRound(_) => Backend::from_env(),
        };
        let expected = mpc_sim::oracle::join_database_on(db, backend);
        verify::diff(&expected, self.answers())
    }
}

/// Execute a batch of `(plan, db)` jobs — many small queries or repeated
/// rounds, multi-round plans included — parallelizing **across** jobs on
/// one backend instead of inside each round: the multi-query-throughput
/// shape, where a persistent pool ([`Backend::Pooled`]) amortizes its
/// spawn cost over the entire batch and schedules jobs dynamically (a slow
/// job does not hold up the queue behind it). Each job runs sequentially
/// inside, so every outcome is bit-identical to
/// `plan.execute(db, Backend::Sequential)`; results come back in job
/// order.
pub fn execute_batch(jobs: &[(&Plan, &Database)], backend: Backend) -> Vec<RunOutcome> {
    backend.run_items(jobs.len(), |i| {
        let (plan, db) = jobs[i];
        plan.execute(db, Backend::Sequential)
    })
}

/// The engine builder: configure once, then [`Engine::plan`] /
/// [`Engine::run`] any database for the query.
///
/// ```
/// use mpc_core::engine::{Algorithm, Engine};
/// use mpc_data::{generators, Database, Rng};
/// use mpc_query::named;
/// use mpc_sim::backend::Backend;
///
/// let q = named::cycle(3);
/// let mut rng = Rng::seed_from_u64(3);
/// let rels = q.atoms().iter()
///     .map(|a| generators::uniform(a.name(), a.arity(), 800, 128, &mut rng))
///     .collect();
/// let db = Database::new(q.clone(), rels, 128).unwrap();
///
/// let outcome = Engine::new(&q)
///     .p(16)
///     .seed(9)
///     .backend(Backend::Sequential)
///     .algorithm(Algorithm::Auto)
///     .run(&db);
/// assert_eq!(outcome.algorithm(), Algorithm::HyperCube); // uniform data
/// assert!(outcome.verify(&db).is_complete());
/// ```
#[derive(Clone)]
pub struct Engine<'s> {
    query: Query,
    p: usize,
    seed: u64,
    backend: Backend,
    algorithm: Algorithm,
    stats: Option<&'s dyn Stats>,
    stats_mode: StatsMode,
    aggregate: Option<AggregateSpec>,
}

impl Engine<'static> {
    /// A new engine for `query` with the defaults: `p = 64`, `seed = 1`,
    /// [`Backend::from_env`], [`Algorithm::Auto`], exact statistics read
    /// from the database at plan time ([`StatsMode::Exact`]).
    pub fn new(query: &Query) -> Engine<'static> {
        Engine {
            query: query.clone(),
            p: 64,
            seed: 1,
            backend: Backend::from_env(),
            algorithm: Algorithm::Auto,
            stats: None,
            stats_mode: StatsMode::Exact,
            aggregate: None,
        }
    }
}

impl<'s> Engine<'s> {
    /// Set the number of servers.
    pub fn p(mut self, p: usize) -> Self {
        assert!(p >= 1, "engine needs at least one server");
        self.p = p;
        self
    }

    /// Set the seed keying every hash function drawn by the plan.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the execution backend used by [`Engine::run`].
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Pin the algorithm (default: [`Algorithm::Auto`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Evaluate an aggregate head instead of materializing answers: every
    /// plan folds its local joins through [`crate::aggregate`] and the
    /// outcome carries an [`AggregateResult`]. Routing and predicted load
    /// are those of the underlying algorithm; the auto choice is the same
    /// except that [`Algorithm::GeneralSkew`] (whose bin-combination
    /// sub-instances replicate derivations) falls back to the
    /// skew-resilient [`Algorithm::HyperCubeEqual`].
    ///
    /// # Panics
    /// [`Engine::plan`] panics when the spec references variables the
    /// query does not have, or — with [`AGGREGATE_NEEDS_PARTITIONING`] —
    /// when explicitly combined with an algorithm that fails
    /// [`Algorithm::partitions_derivations`].
    pub fn aggregate(mut self, spec: AggregateSpec) -> Self {
        self.aggregate = Some(spec);
        self
    }

    /// Which statistics source [`Engine::plan`] builds when none is
    /// supplied via [`Engine::stats`] (default: [`StatsMode::Exact`]).
    /// [`StatsMode::Sketch`] plans from SpaceSaving summaries at
    /// [`sketch_capacity`]`(p)` — sublinear state, error-bounded, and
    /// conservatively safe: estimate error can only shift load, never
    /// change answers.
    pub fn stats_mode(mut self, mode: StatsMode) -> Self {
        self.stats_mode = mode;
        self
    }

    /// Plan (and pick, in auto mode) from these statistics instead of
    /// exact statistics read from the database. Estimated or synthetic
    /// statistics yield correct plans — error only shifts load. Takes
    /// precedence over [`Engine::stats_mode`].
    pub fn stats<'t>(self, stats: &'t dyn Stats) -> Engine<'t> {
        Engine {
            query: self.query,
            p: self.p,
            seed: self.seed,
            backend: self.backend,
            algorithm: self.algorithm,
            stats: Some(stats),
            stats_mode: self.stats_mode,
            aggregate: self.aggregate,
        }
    }

    /// Build the plan for `db`: resolve [`Algorithm::Auto`] from the
    /// statistics, configure the algorithm, and attach the predicted
    /// `L(u, M, p)` load.
    ///
    /// Every planner question — skew detection, skew-join routing, and
    /// the §4.2 bin combinations — goes through the [`Stats`] source's
    /// error-bounded estimates with the conservative straddle-is-heavy
    /// rule; `db` itself is only consulted for tuple routing at run time.
    ///
    /// # Panics
    /// Panics with [`SKEW_JOIN_NEEDS_TWO_ATOMS`] when
    /// [`Algorithm::SkewJoin`] is pinned on any other query shape (and see
    /// [`Engine::aggregate`]).
    pub fn plan(&self, db: &Database) -> Plan {
        assert_eq!(
            db.query(),
            &self.query,
            "engine was built for a different query"
        );
        match self.stats {
            Some(stats) => self.plan_with(db, stats),
            None => match self.stats_mode {
                StatsMode::Exact => self.plan_with(db, &ExactStats::of(db)),
                StatsMode::Sketch => {
                    self.plan_with(db, &SketchStats::of(db, sketch_capacity(self.p)))
                }
                StatsMode::Synthetic => {
                    self.plan_with(db, &SyntheticStats(SimpleStatistics::of(db)))
                }
            },
        }
    }

    /// Plan and execute on the engine's backend.
    pub fn run(&self, db: &Database) -> RunOutcome {
        self.plan(db).execute(db, self.backend)
    }

    fn plan_with(&self, db: &Database, stats: &dyn Stats) -> Plan {
        mpc_data::failpoint::hit("plan");
        let q = &self.query;
        let p = self.p;
        if let Some(spec) = &self.aggregate {
            spec.validate_for(q)
                .expect("aggregate spec references variables the query does not have");
        }
        let simple = stats.simple();
        let resolved = match self.algorithm {
            Algorithm::Auto => {
                let chosen = choose(q, stats, &simple, p);
                // Aggregates fold over join derivations, so the plan must
                // produce each derivation on exactly one server. The §4.2
                // bin-combination algorithm replicates derivations across
                // overlapping sub-instances; equal shares (Corollary
                // 3.2(ii)) is the skew-resilient exact fallback.
                if self.aggregate.is_some() && !chosen.partitions_derivations() {
                    Algorithm::HyperCubeEqual
                } else {
                    chosen
                }
            }
            other => other,
        };
        assert!(
            self.aggregate.is_none() || resolved.partitions_derivations(),
            "{AGGREGATE_NEEDS_PARTITIONING}"
        );
        assert!(
            resolved != Algorithm::SkewJoin || q.is_two_atom_join(),
            "{SKEW_JOIN_NEEDS_TWO_ATOMS}"
        );
        // LP (5), once per plan: its optimum `p^λ` is `L_lower` (Theorem
        // 3.6) whatever algorithm runs, and its shares are the HyperCube
        // arm's grid.
        let alloc = ShareAllocation::optimize(q, &simple, p).expect("share LP is always feasible");
        let lower_bound_bits = alloc.predicted_load_bits();
        let (kind, predicted) = match resolved {
            Algorithm::Auto => unreachable!("auto resolved above"),
            Algorithm::HyperCube => (
                PlanKind::HyperCube(HyperCube::new(q, &alloc, self.seed)),
                lower_bound_bits,
            ),
            Algorithm::HyperCubeEqual => {
                let hc = HyperCube::with_equal_shares(q, p, self.seed);
                // Corollary 3.2(ii): the unconditional skew-resilient cap.
                let predicted = hc.worst_case_load_bits(&simple);
                (PlanKind::HyperCube(hc), predicted)
            }
            Algorithm::HashJoin => {
                let vars = default_hash_vars(q);
                let m = simple.bit_sizes_f64();
                // Partitioned atoms pay M_j/p, broadcast atoms pay M_j.
                let predicted: f64 = (0..q.num_atoms())
                    .map(|j| {
                        if vars.is_subset(q.atom(j).var_set()) {
                            m[j] / p as f64
                        } else {
                            m[j]
                        }
                    })
                    .sum();
                (
                    PlanKind::HashJoin(HashJoinRouter::new(q, vars, p, self.seed)),
                    predicted,
                )
            }
            Algorithm::FragmentReplicate => {
                // Split the largest relation (the last one on ties, so two
                // equal atoms split the second, as always) and broadcast
                // every other: Σ_{j≠split} M_j + M_split/p.
                let split = (0..q.num_atoms())
                    .max_by_key(|&j| simple.bit_sizes[j])
                    .expect("query has atoms");
                let m = simple.bit_sizes_f64();
                let predicted: f64 = (0..q.num_atoms())
                    .map(|j| if j == split { m[j] / p as f64 } else { m[j] })
                    .sum();
                (
                    PlanKind::FragmentReplicate(FragmentReplicateRouter::new(p, split, self.seed)),
                    predicted,
                )
            }
            Algorithm::SkewJoin => {
                let shared = q.atom(0).var_set().intersect(q.atom(1).var_set());
                let (m1, m2) = (simple.cardinalities[0], simple.cardinalities[1]);
                // Heavy hitters at their largest consistent counts: the
                // straddle-is-heavy rule. The skew join and its load bound
                // consult frequencies only through the above-threshold
                // classification, so under exact statistics these pruned
                // maps reproduce the full-map plan bit for bit.
                let f1 = HeavyHitters::of(q, stats, m1, 0, shared, p).entries;
                let f2 = HeavyHitters::of(q, stats, m2, 1, shared, p).entries;
                let bound = skew_join_bound(m1, m2, &f1, &f2, p);
                // Eq. (10) is stated in tuples; convert with the widest
                // tuple so the prediction stays an upper shape.
                let width = q.max_arity() as f64 * simple.value_bits as f64;
                let sj = SkewJoin::plan_from_parts(
                    q,
                    m1,
                    m2,
                    p,
                    self.seed,
                    SkewJoinConfig::default(),
                    &f1,
                    &f2,
                );
                (PlanKind::SkewJoin(sj), bound.max_tuples() * width)
            }
            Algorithm::GeneralSkew => {
                let alg = GeneralSkewAlgorithm::plan_with(db, p, self.seed, stats);
                let predicted = alg.predicted_load_bits();
                (PlanKind::GeneralSkew(Box::new(alg)), predicted)
            }
            Algorithm::MultiRound => {
                // Best case: every round a perfectly balanced scan of the
                // inputs (intermediates can only add to this).
                let predicted = simple.total_bits() as f64 / p as f64;
                (PlanKind::MultiRound, predicted)
            }
        };
        Plan {
            query: q.clone(),
            algorithm: resolved,
            p,
            seed: self.seed,
            predicted_load_bits: predicted,
            lower_bound_bits,
            aggregate: self.aggregate.clone(),
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Rng};
    use mpc_query::named;

    fn uniform_db(q: &Query, m: usize, n: u64, seed: u64) -> Database {
        let mut rng = Rng::seed_from_u64(seed);
        let rels = q
            .atoms()
            .iter()
            .map(|a| generators::uniform(a.name(), a.arity(), m, n, &mut rng))
            .collect();
        Database::new(q.clone(), rels, n).unwrap()
    }

    fn uniform_join(m: usize, seed: u64) -> Database {
        uniform_db(&named::two_way_join(), m, 1 << 12, seed)
    }

    fn zipf_join(m: usize, theta: f64, seed: u64) -> Database {
        let q = named::two_way_join();
        let n = 1u64 << 12;
        let mut rng = Rng::seed_from_u64(seed);
        let d1 = generators::zipf_degrees(m, n, theta);
        let d2 = generators::zipf_degrees(m, n, theta);
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
        Database::new(q, vec![s1, s2], n).unwrap()
    }

    #[test]
    fn auto_picks_hypercube_on_uniform_data() {
        let db = uniform_join(2000, 1);
        let plan = Engine::new(db.query()).p(16).seed(3).plan(&db);
        assert_eq!(plan.algorithm(), Algorithm::HyperCube);
        assert!(plan.shares().is_some());
        assert!(plan.predicted_load_bits() > 0.0);
        assert!(plan.lower_bound_bits() > 0.0);
    }

    #[test]
    fn auto_picks_skew_join_on_zipf_join() {
        let db = zipf_join(3000, 1.2, 2);
        let plan = Engine::new(db.query()).p(16).seed(3).plan(&db);
        assert_eq!(plan.algorithm(), Algorithm::SkewJoin);
        assert!(plan.num_heavy().unwrap() > 0);
    }

    #[test]
    fn auto_picks_general_skew_beyond_two_atoms() {
        // Triangle with a planted heavy x1.
        let q = named::cycle(3);
        let n = 1u64 << 10;
        let m = 1200usize;
        let mut rng = Rng::seed_from_u64(4);
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![5u64], m / 2))
            .chain((0..(m / 2) as u64).map(|i| (vec![20 + (i % 900)], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[0], &degrees, n, &mut rng);
        let s2 = generators::uniform("S2", 2, m, n, &mut rng);
        let s3 = generators::uniform("S3", 2, m, n, &mut rng);
        let db = Database::new(q.clone(), vec![s1, s2, s3], n).unwrap();
        let plan = Engine::new(&q).p(16).seed(5).plan(&db);
        assert_eq!(plan.algorithm(), Algorithm::GeneralSkew);
        assert!(plan.num_bin_combinations().unwrap() > 1);
        let outcome = plan.execute(&db, Backend::Sequential);
        assert!(outcome.verify(&db).is_complete());
    }

    #[test]
    fn synthetic_stats_hide_skew_from_the_planner() {
        // Same skewed data, but cardinalities-only statistics: auto must
        // fall back to HyperCube (and still be correct).
        let db = zipf_join(2000, 1.2, 6);
        let st = SyntheticStats(SimpleStatistics::of(&db));
        let engine = Engine::new(db.query()).p(16).seed(7).stats(&st);
        let plan = engine.plan(&db);
        assert_eq!(plan.algorithm(), Algorithm::HyperCube);
        let outcome = plan.execute(&db, Backend::Sequential);
        assert!(outcome.verify(&db).is_complete());
    }

    #[test]
    fn every_algorithm_runs_and_verifies_through_the_engine() {
        // ℓ = 2 and ℓ = 3, plus the ℓ = 1 scan: a single atom is one round
        // on every algorithm, the multi-round baseline included. The §4.1
        // skew join is two-relation only.
        let scan = mpc_query::parse_query("S1(x,z)").unwrap();
        for db in [
            zipf_join(1500, 1.0, 8),
            uniform_db(&named::cycle(3), 300, 64, 8),
            uniform_db(&scan, 300, 1 << 12, 8),
        ] {
            let l = db.query().num_atoms();
            for algo in Algorithm::all() {
                if algo == Algorithm::SkewJoin && l != 2 {
                    continue;
                }
                let engine = Engine::new(db.query())
                    .p(8)
                    .seed(9)
                    .backend(Backend::Sequential)
                    .algorithm(algo);
                let plan = engine.plan(&db);
                let outcome = engine.run(&db);
                assert_eq!(outcome.algorithm(), algo);
                assert!(outcome.verify(&db).is_complete(), "{algo} lost answers");
                assert!(outcome.max_load_bits() > 0, "{algo} reported zero load");
                let rounds = match algo {
                    Algorithm::MultiRound => (l - 1).max(1),
                    _ => 1,
                };
                assert_eq!(outcome.num_rounds(), rounds, "{algo} at ℓ = {l}");
                assert_eq!(plan.planned_rounds(), rounds, "{algo} at ℓ = {l}");
                assert!(
                    outcome.predicted_load_bits() > 0.0,
                    "{algo} predicted zero load"
                );
            }
        }
    }

    #[test]
    fn engine_plan_matches_explicit_skew_join_bit_for_bit() {
        let db = zipf_join(2500, 1.2, 10);
        let p = 16usize;
        let seed = 11u64;
        let plan = Engine::new(db.query()).p(p).seed(seed).plan(&db);
        assert_eq!(plan.algorithm(), Algorithm::SkewJoin);
        let explicit = SkewJoin::plan(&db, p, seed);
        let (c_exp, r_exp) = explicit.run_on(&db, Backend::Sequential);
        let outcome = plan.execute(&db, Backend::Sequential);
        assert_eq!(outcome.report(), Some(&r_exp));
        assert_eq!(*outcome.answers(), c_exp.all_answers(db.query()));
    }

    #[test]
    fn multi_round_outcome_carries_round_stats() {
        let q = named::cycle(3);
        let db = uniform_db(&q, 600, 128, 12);
        let outcome = Engine::new(&q)
            .p(8)
            .seed(13)
            .backend(Backend::Sequential)
            .algorithm(Algorithm::MultiRound)
            .run(&db);
        assert_eq!(outcome.num_rounds(), 2);
        assert!(outcome.report().is_none());
        assert!(outcome.multi_round().is_some());
        assert!(outcome.verify(&db).is_complete());
    }

    #[test]
    fn execute_batch_matches_individual_execution() {
        let dbs: Vec<Database> = (0..4).map(|s| zipf_join(1200, 1.0, 20 + s)).collect();
        let engine = Engine::new(dbs[0].query()).p(8).seed(21);
        let plans: Vec<Plan> = dbs.iter().map(|db| engine.plan(db)).collect();
        let jobs: Vec<(&Plan, &Database)> = plans.iter().zip(&dbs).collect();
        let expected: Vec<RunOutcome> = jobs
            .iter()
            .map(|(plan, db)| plan.execute(db, Backend::Sequential))
            .collect();
        for backend in [Backend::Sequential, Backend::Pooled(3), Backend::Pooled(4)] {
            let results = execute_batch(&jobs, backend);
            assert_eq!(results.len(), jobs.len());
            for (i, (r, e)) in results.iter().zip(&expected).enumerate() {
                assert_eq!(r.report(), e.report(), "job {i} [{backend}]");
                assert_eq!(r.answers(), e.answers(), "job {i} [{backend}]");
            }
        }
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algo in Algorithm::all() {
            assert_eq!(Algorithm::parse(algo.name()), Ok(algo));
        }
        assert_eq!(Algorithm::parse("auto"), Ok(Algorithm::Auto));
        assert!(Algorithm::parse("quantum").is_err());
    }

    #[test]
    fn plan_display_names_the_choice() {
        let db = zipf_join(2000, 1.2, 30);
        let plan = Engine::new(db.query()).p(16).seed(31).plan(&db);
        let text = plan.to_string();
        assert!(text.contains("skew-join"), "{text}");
        assert!(text.contains("heavy="), "{text}");
    }

    #[test]
    #[should_panic(expected = "different query")]
    fn plan_rejects_foreign_database() {
        let db = uniform_join(100, 40);
        let other = named::cycle(3);
        let _ = Engine::new(&other).p(4).plan(&db);
    }

    #[test]
    fn exact_stats_memoize_frequency_maps() {
        use mpc_data::stats_scan_bytes_total;
        let db = zipf_join(1500, 1.0, 50);
        let stats = ExactStats::of(&db);
        let before = stats_scan_bytes_total();
        let heavy = stats.heavy_hitters(0, &[1], 16);
        let one_scan = stats_scan_bytes_total() - before;
        assert_eq!(one_scan, db.relation(0).len() as u64 * 2 * 8);
        // Every later question about the projection — another threshold, a
        // point lookup — is answered from the memoized map: no rescan.
        assert!(stats.heavy_hitters(0, &[1], 4).len() <= heavy.len());
        assert_eq!(stats.frequency(0, &[1], &heavy[0].key), heavy[0].estimate);
        assert_eq!(stats_scan_bytes_total() - before, one_scan);
    }

    #[test]
    fn exact_stats_heavy_hitters_are_exact_and_sorted() {
        let db = zipf_join(2000, 1.2, 51);
        let stats = ExactStats::of(&db);
        let p = 16usize;
        let m = db.relation(0).len();
        let threshold = m as f64 / p as f64;
        let hh = stats.heavy_hitters(0, &[1], p);
        assert!(!hh.is_empty(), "zipf 1.2 plants heavy hitters");
        assert!(hh.windows(2).all(|w| w[0].key < w[1].key), "sorted by key");
        let freq = db.relation(0).frequencies(&[1]);
        for e in &hh {
            assert_eq!(e.error_bound, 0);
            assert_eq!(e.direction, mpc_stats::sketch::ErrorDirection::Exact);
            assert_eq!(e.estimate, freq[&e.key]);
            assert!(e.estimate as f64 > threshold);
        }
        // Exactly the above-threshold keys appear.
        let expect = freq.values().filter(|&&c| c as f64 > threshold).count();
        assert_eq!(hh.len(), expect);
    }

    #[test]
    fn sketch_mode_matches_exact_picks_and_answers() {
        // Uniform → HyperCube, Zipf 1.2 → SkewJoin: the sketch-backed
        // planner must resolve auto identically, and every answer set is
        // bit-identical (answers never depend on statistics).
        for (db, expect) in [
            (uniform_join(2000, 60), Algorithm::HyperCube),
            (zipf_join(3000, 1.2, 61), Algorithm::SkewJoin),
        ] {
            let exact = Engine::new(db.query()).p(16).seed(3).plan(&db);
            let sketch = Engine::new(db.query())
                .p(16)
                .seed(3)
                .stats_mode(StatsMode::Sketch)
                .plan(&db);
            assert_eq!(exact.algorithm(), expect);
            assert_eq!(sketch.algorithm(), expect, "sketch pick diverged");
            let a = exact.execute(&db, Backend::Sequential);
            let b = sketch.execute(&db, Backend::Sequential);
            assert_eq!(a.answers(), b.answers());
        }
    }

    #[test]
    fn sketch_stats_are_conservative_supersets() {
        // Every exact heavy hitter appears in the sketch's estimate list
        // with an interval containing its true count (capacity >= p).
        let db = zipf_join(3000, 1.2, 62);
        let p = 16usize;
        let exact = ExactStats::of(&db);
        let sketch = SketchStats::of(&db, sketch_capacity(p));
        for atom in 0..2 {
            let truth = exact.heavy_hitters(atom, &[1], p);
            let est = sketch.heavy_hitters(atom, &[1], p);
            for t in &truth {
                let e = est
                    .iter()
                    .find(|e| e.key == t.key)
                    .unwrap_or_else(|| panic!("sketch missed heavy hitter {:?}", t.key));
                assert!(
                    e.count_lower() <= t.estimate && t.estimate <= e.count_upper(),
                    "true count {} outside [{}, {}]",
                    t.estimate,
                    e.count_lower(),
                    e.count_upper()
                );
            }
        }
    }

    #[test]
    fn stats_mode_names_round_trip() {
        for mode in [StatsMode::Exact, StatsMode::Sketch, StatsMode::Synthetic] {
            assert_eq!(StatsMode::parse(mode.name()), Ok(mode));
        }
        assert!(StatsMode::parse("psychic").is_err());
    }
}
