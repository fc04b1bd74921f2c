//! Every use the benchmark makes of the program's Rust API, in one file.
//!
//! Two jobs, both in-process on `Backend::Sequential` with sketch
//! statistics — what `mpcskew serve --threads 1` runs:
//!
//! * [`oracle`] replays one period of a workload through `Session::handle`,
//!   checks it against the sequential oracle join, and records what every
//!   reply of the end-to-end run must look like;
//! * [`trace`] replays the script at three depths — engine calls,
//!   `Service`, `Session::handle` — with a span around each call into a
//!   layer's public functions. Spans inside the program are a later change
//!   and will replace this file.

use crate::alloc::allocations;
use crate::client::{Conn, Status};
use crate::e2e::{Expect, Expectations, WINDOW_CYCLES};
use crate::stats::{median, quietest_median};
use crate::trace::Tracer;
use crate::workloads::{Cmd, SeedSchedule, Workload, MAX_ROWS_PER_CYCLE, P};
use mpc_core::engine::{
    planning_projections, sketch_capacity, Engine, Plan, SketchStats, Stats, StatsMode,
};
use mpc_core::service::{CacheStatus, QuerySpec, Service};
use mpc_core::shares::ShareAllocation;
use mpc_core::wire::Session;
use mpc_data::{
    rows_materialized_total, stats_scan_bytes_total, visited_bindings_total, Database, Relation,
};
use mpc_query::{parse_aggregate_query, pk, AggregateSpec, Query};
use mpc_sim::backend::Backend;
use mpc_stats::{RelationSketch, SimpleStatistics};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The capacity `Service` builds its sketches at for `p = 64`
/// (`Service::sketch_capacity_for_p`).
fn service_sketch_capacity() -> usize {
    (2 * sketch_capacity(P)).max(64)
}

fn relation(w: &Workload, rel: usize) -> Relation {
    let r = &w.relations[rel];
    Relation::from_flat(r.name.clone(), 2, r.flat.clone())
}

/// A service configured like `mpcskew serve --p 64 --threads 1`, loaded.
fn service(w: &Workload) -> Service {
    let mut svc = Service::new(w.domain)
        .with_backend(Backend::Sequential)
        .with_defaults(P, 1)
        .with_stats_mode(StatsMode::Sketch);
    for rel in 0..w.relations.len() {
        svc.load(relation(w, rel))
            .expect("generated tuples lie inside the domain");
    }
    svc
}

/// The benchmark's own copy of the catalog, kept in step with the script's
/// appends and reloads so a `Database` can be assembled for any query.
struct Tables {
    domain: u64,
    rels: Vec<Arc<Relation>>,
}

impl Tables {
    fn new(w: &Workload) -> Tables {
        Tables {
            domain: w.domain,
            rels: (0..w.relations.len())
                .map(|i| Arc::new(relation(w, i)))
                .collect(),
        }
    }

    fn apply(&mut self, w: &Workload, cmd: &Cmd) {
        match cmd {
            Cmd::Append { rel, flat } => Arc::make_mut(&mut self.rels[*rel]).push_rows(flat),
            Cmd::Reload { rel } => self.rels[*rel] = Arc::new(relation(w, *rel)),
            Cmd::Query { .. } => {}
        }
    }

    fn index(&self, name: &str) -> usize {
        let found = self.rels.iter().position(|r| r.name() == name);
        found.expect("scripts only name generated relations")
    }

    fn database(&self, q: &Query) -> Database {
        let rels = q
            .atoms()
            .iter()
            .map(|a| Arc::clone(&self.rels[self.index(a.name())]))
            .collect();
        Database::from_shared(q.clone(), rels, self.domain).expect("script arities match")
    }
}

fn parse(body: &str) -> (Query, Option<AggregateSpec>) {
    parse_aggregate_query(body).expect("scripted query bodies parse")
}

fn spec_for(body: &str, seed: Option<u64>) -> QuerySpec {
    let (q, agg) = parse(body);
    let mut spec = QuerySpec::new(q);
    if let Some(agg) = agg {
        spec = spec.aggregate(agg);
    }
    if let Some(seed) = seed {
        spec = spec.seed(seed);
    }
    spec
}

/// What [`oracle`] established about one workload.
pub struct Oracle {
    pub expect: Expectations,
    /// Query replies compared with the sequential oracle join or fold.
    pub verified: usize,
    /// Largest number of answer rows any cycle produced.
    pub max_rows_per_cycle: u64,
}

/// Replay one period through `Session::handle`. The first and last cycle
/// are also run through `Service::query_spec` and verified against the
/// sequential oracle (`RunOutcome::verify` / `verify_aggregate`). A session
/// row cap of [`MAX_ROWS_PER_CYCLE`] makes an oversized answer an `err
/// limit` reply here — before any server is spawned — instead of an
/// out-of-memory kill later.
pub fn oracle(w: &Workload) -> Result<Oracle, String> {
    let mut svc = service(w);
    let mut session = Session::new();
    session.handle(
        &mut svc,
        &format!("SET max_rows={MAX_ROWS_PER_CYCLE} max_groups={MAX_ROWS_PER_CYCLE}"),
    );
    let mut tables = Tables::new(w);
    let mut seeds = SeedSchedule::new();
    let mut out = Oracle {
        expect: Vec::new(),
        verified: 0,
        max_rows_per_cycle: 0,
    };
    let last = w.period.len() - 1;
    for (c, cycle) in w.period.iter().enumerate() {
        let mut expect = Vec::new();
        let mut rows = 0;
        for cmd in cycle {
            tables.apply(w, cmd);
            let seed = seeds.for_cmd(cmd);
            if let (Cmd::Query { body, .. }, true) = (cmd, c == 0 || c == last) {
                let spec = spec_for(body, seed);
                let db = tables.database(&spec.query);
                let outcome = svc
                    .query_spec(&spec)
                    .map_err(|e| format!("{}: `{body}` failed in-process: {e}", w.name))?;
                let run = outcome.run_outcome();
                let ok = match run.verify_aggregate(&db) {
                    Some(same) => same,
                    None => run.verify(&db).is_complete(),
                };
                if !ok {
                    return Err(format!("{}: `{body}` differs from the oracle", w.name));
                }
                out.verified += 1;
            }
            let line = w.line(cmd, seed);
            let framed = matches!(cmd, Cmd::Query { rows: true, .. });
            let reply = Conn::over(session.handle(&mut svc, &line).join("\n") + "\n")
                .read_reply(framed, false)?;
            match &reply.status {
                Status::Err { class, message } => {
                    return Err(format!(
                        "{}: `{}` answers err {class} {message}",
                        w.name,
                        &line[..line.len().min(80)]
                    ))
                }
                Status::Query {
                    aggregate: false,
                    count,
                    ..
                } => rows += count,
                _ => {}
            }
            expect.push(Expect::of(&reply));
        }
        out.max_rows_per_cycle = out.max_rows_per_cycle.max(rows);
        if rows > MAX_ROWS_PER_CYCLE {
            return Err(format!(
                "{}: cycle {c} produces {rows} answer rows, above the bound of {MAX_ROWS_PER_CYCLE}",
                w.name
            ));
        }
        out.expect.push(expect);
    }
    Ok(out)
}

/// Per-layer numbers of one traced replay, by metric name.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
    /// Median in-process `Session::handle` time per cycle, in ms.
    pub handle_ms: f64,
}

/// What the `Service` depth hands down to the engine depth: how the plan
/// cache served each query, and the load it reported.
struct Served {
    cache: CacheStatus,
    load_bits: u64,
}

/// Cycles each depth replays, rounded up to whole periods.
pub fn trace_cycles(w: &Workload) -> usize {
    20usize.div_ceil(w.period.len()) * w.period.len()
}

/// `Session::handle` depth, with per-cycle wall-clock and allocations.
struct WireDepth<'w> {
    w: &'w Workload,
    svc: Service,
    session: Session,
    seeds: SeedSchedule,
    ms: Vec<f64>,
    allocs: Vec<f64>,
}

impl<'w> WireDepth<'w> {
    fn new(w: &'w Workload) -> Self {
        WireDepth {
            w,
            svc: service(w),
            session: Session::new(),
            seeds: SeedSchedule::new(),
            ms: Vec::new(),
            allocs: Vec::new(),
        }
    }

    /// Cycle `index` of the replay; the first `warmup_cycles` are run as in
    /// a round, so that the recorded ones see a warm plan cache.
    fn cycle(&mut self, index: usize, tracer: &mut Tracer) {
        let w = self.w;
        let timed = index >= w.warmup_cycles();
        let lines: Vec<String> = w.period[index % w.period.len()]
            .iter()
            .map(|cmd| w.line(cmd, self.seeds.for_cmd(cmd)))
            .collect();
        let (a0, t0) = (allocations(), Instant::now());
        for (k, line) in lines.iter().enumerate() {
            tracer.at(index.saturating_sub(w.warmup_cycles()), k);
            let span = tracer.begin_if(timed, "wire.handle");
            std::hint::black_box(self.session.handle(&mut self.svc, line));
            tracer.end(span);
        }
        if timed {
            self.ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.allocs.push((allocations() - a0) as f64);
        }
    }
}

/// `Service` depth: the calls `Session::handle` makes, without the parsing
/// before and the rendering after.
struct ServiceDepth<'w> {
    w: &'w Workload,
    svc: Service,
    seeds: SeedSchedule,
    /// What every query of every cycle so far (warm-up included) was served.
    served: Vec<Vec<Option<Served>>>,
    /// Per recorded cycle, the deltas of the three `mpc_data` probe totals:
    /// visited bindings, materialized rows, statistics scan bytes.
    counters: [Vec<f64>; 3],
}

impl<'w> ServiceDepth<'w> {
    fn new(w: &'w Workload) -> Self {
        ServiceDepth {
            w,
            svc: service(w),
            seeds: SeedSchedule::new(),
            served: Vec::new(),
            counters: Default::default(),
        }
    }

    fn cycle(&mut self, index: usize, tracer: &mut Tracer) {
        let w = self.w;
        let timed = index >= w.warmup_cycles();
        let read = || {
            [
                visited_bindings_total(),
                rows_materialized_total(),
                stats_scan_bytes_total(),
            ]
        };
        let before = read();
        let mut row = Vec::new();
        for (k, cmd) in w.period[index % w.period.len()].iter().enumerate() {
            tracer.at(index.saturating_sub(w.warmup_cycles()), k);
            let seed = self.seeds.for_cmd(cmd);
            row.push(match cmd {
                Cmd::Query { body, .. } => {
                    let spec = spec_for(body, seed);
                    let span = tracer.begin_if(timed, "service.query");
                    let outcome = self
                        .svc
                        .query_spec(&spec)
                        .expect("the oracle ran this query");
                    if outcome.aggregate().is_none() {
                        // The wire layer reads the answers to print their
                        // count, so a plain query always materializes them.
                        std::hint::black_box(outcome.try_answers().expect("materializes"));
                    }
                    tracer.end(span);
                    Some(Served {
                        cache: outcome.cache_status(),
                        load_bits: outcome.max_load_bits(),
                    })
                }
                Cmd::Append { rel, flat } => {
                    let span = tracer.begin_if(timed, "service.append");
                    self.svc
                        .append(&w.relations[*rel].name, flat)
                        .expect("appends to a loaded relation");
                    tracer.end(span);
                    None
                }
                Cmd::Reload { rel } => {
                    let fresh = relation(w, *rel);
                    let span = tracer.begin_if(timed, "service.load");
                    self.svc.load(fresh).expect("reloads generated tuples");
                    tracer.end(span);
                    None
                }
            });
        }
        if timed {
            let after = read();
            for (slot, (a, b)) in self.counters.iter_mut().zip(after.iter().zip(before)) {
                slot.push(a.wrapping_sub(b) as f64);
            }
        }
        self.served.push(row);
    }
}

/// A memoized plan: what the service would hold in its plan cache, plus —
/// for an aggregate head — the plain twin whose execution is the shuffle
/// alone.
struct Planned {
    plan: Plan,
    plain_twin: Option<Plan>,
}

/// Running sums over the queries the engine depth executed.
#[derive(Default)]
struct LoadSums {
    queries: f64,
    max_bits: f64,
    total_bits: f64,
    replication: f64,
    imbalance: f64,
    predicted: f64,
    lower: f64,
    over_lower: f64,
    heavy: f64,
    bin_combinations: f64,
    /// Queries whose load differs from what the service reported: the
    /// engine depth is then not replaying the plan the service ran.
    mismatched: u64,
}

/// Engine depth: the steps `Service::query_spec` goes through, each called
/// directly. Planning runs only where the service reported a miss or an
/// invalidation.
struct EngineDepth<'w> {
    w: &'w Workload,
    tables: Tables,
    seeds: SeedSchedule,
    plans: HashMap<(String, Option<u64>), Planned>,
    sketches: Vec<RelationSketch>,
    sums: LoadSums,
}

impl<'w> EngineDepth<'w> {
    fn new(w: &'w Workload) -> Self {
        let tables = Tables::new(w);
        let sketches = tables
            .rels
            .iter()
            .map(|r| RelationSketch::of(r, service_sketch_capacity()))
            .collect();
        EngineDepth {
            w,
            tables,
            seeds: SeedSchedule::new(),
            plans: HashMap::new(),
            sketches,
            sums: LoadSums::default(),
        }
    }

    /// Cycle `index`, given what the `Service` depth served in it.
    fn cycle(&mut self, index: usize, served_cycle: &[Option<Served>], tracer: &mut Tracer) {
        let w = self.w;
        let timed = index >= w.warmup_cycles();
        let cycle = index.saturating_sub(w.warmup_cycles());
        for (k, cmd) in w.period[index % w.period.len()].iter().enumerate() {
            tracer.at(cycle, k);
            let seed = self.seeds.for_cmd(cmd);
            self.tables.apply(w, cmd);
            let body = match cmd {
                Cmd::Query { body, .. } => body,
                Cmd::Append { rel, flat } => {
                    let span = tracer.begin_if(timed, "stats.append");
                    self.sketches[*rel].append_rows(flat);
                    tracer.end(span);
                    continue;
                }
                Cmd::Reload { rel } => {
                    let span = tracer.begin_if(timed, "stats.sketch_build");
                    self.sketches[*rel] =
                        RelationSketch::of(&self.tables.rels[*rel], service_sketch_capacity());
                    tracer.end(span);
                    continue;
                }
            };
            let span = tracer.begin_if(timed, "query.parse");
            let (q, agg) = parse(body);
            tracer.end(span);
            let db = self.tables.database(&q);
            let key = (body.clone(), seed);
            let service_saw = served_cycle[k].as_ref().expect("a query");
            if service_saw.cache != CacheStatus::Hit {
                // What the service pays in statistics before it plans: it
                // reads the heavy hitters of every planning projection off
                // sketches it keeps up to date, scanning a relation only
                // the first time a projection of it is asked for.
                let span = tracer.begin_if(timed, "stats.sketch_build");
                for (atom, cols) in planning_projections(&q) {
                    let rel = self.tables.index(q.atom(atom).name());
                    self.sketches[rel].ensure_projection(&self.tables.rels[rel], &cols);
                    std::hint::black_box(self.sketches[rel].heavy_hitters(&cols, P));
                }
                tracer.end(span);
                // The planner wants a `Stats` source; build and warm one
                // outside the spans.
                let warm = SketchStats::of(&db, service_sketch_capacity());
                for (atom, cols) in planning_projections(&q) {
                    std::hint::black_box(warm.heavy_hitters(atom, &cols, P));
                }
                let engine = Engine::new(&q)
                    .p(P)
                    .seed(seed.unwrap_or(1))
                    .backend(Backend::Sequential);
                let planner = match &agg {
                    Some(spec) => engine.clone().aggregate(spec.clone()),
                    None => engine.clone(),
                };
                let span = tracer.begin_if(timed, "core.plan");
                let plan = planner.stats(&warm).plan(&db);
                tracer.end(span);
                if timed {
                    tracer.probe_under(span, "query.pk", || std::hint::black_box(pk(&q)));
                    let simple = SimpleStatistics::of(&db);
                    tracer.probe_under(span, "lp.share_lp", || {
                        ShareAllocation::optimize(&q, &simple, P).expect("share LP is feasible")
                    });
                }
                let plain_twin = agg.as_ref().map(|_| engine.stats(&warm).plan(&db));
                self.plans.insert(key.clone(), Planned { plan, plain_twin });
            }
            let planned = &self.plans[&key];
            let outcome = match &planned.plain_twin {
                None => {
                    let span = tracer.begin_if(timed, "sim.shuffle");
                    let outcome = planned.plan.execute(&db, Backend::Sequential);
                    tracer.end(span);
                    let span = tracer.begin_if(timed, "data.local_join");
                    std::hint::black_box(outcome.answers());
                    tracer.end(span);
                    outcome
                }
                Some(twin) => {
                    let span = tracer.begin_if(timed, "core.aggregate_fold");
                    let outcome = planned.plan.execute(&db, Backend::Sequential);
                    tracer.end(span);
                    if timed {
                        tracer.probe_under(span, "sim.shuffle", || {
                            std::hint::black_box(twin.execute(&db, Backend::Sequential))
                        });
                    }
                    outcome
                }
            };
            if !timed {
                continue;
            }
            let report = outcome.report().expect("one-round plans report load");
            let plan = &planned.plan;
            self.sums.queries += 1.0;
            self.sums.max_bits += report.max_load_bits() as f64;
            self.sums.total_bits += report.total_bits() as f64;
            self.sums.replication += report.replication_rate();
            self.sums.imbalance += report.imbalance();
            self.sums.predicted += plan.predicted_load_bits();
            self.sums.lower += plan.lower_bound_bits();
            self.sums.over_lower += report.max_load_bits() as f64 / plan.lower_bound_bits();
            self.sums.heavy += plan.num_heavy().unwrap_or(0) as f64;
            self.sums.bin_combinations += plan.num_bin_combinations().unwrap_or(0) as f64;
            self.sums.mismatched += u64::from(report.max_load_bits() != service_saw.load_bits);
        }
    }
}

/// The traced replay: three depths over the same generated inputs and the
/// same `seed=` schedule, plus an untraced pass at the `Session::handle`
/// depth whose ratio to the traced one is the tracing overhead.
///
/// The depths take turns, a window's worth of cycles each, rather than
/// running one after the other: what the host does during the replay then
/// falls on all of them alike, and each gets several chances at a quiet
/// window, while all but the first cycle of a turn run on warm caches.
pub fn trace(w: &Workload) -> Traced {
    let cycles = trace_cycles(w);
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut service = ServiceDepth::new(w);
    let mut engine = EngineDepth::new(w);
    let mut untraced = WireDepth::new(w);
    let mut wire = WireDepth::new(w);
    let all: Vec<usize> = (0..w.warmup_cycles() + cycles).collect();
    for turn in all.chunks(WINDOW_CYCLES) {
        for &index in turn {
            service.cycle(index, &mut tracer);
        }
        for &index in turn {
            engine.cycle(index, &service.served[index], &mut tracer);
        }
        for &index in turn {
            untraced.cycle(index, &mut off);
        }
        for &index in turn {
            wire.cycle(index, &mut tracer);
        }
    }
    let (sums, counters) = (engine.sums, service.counters);
    let (handle_ms, allocs, untraced_ms) = (wire.ms, wire.allocs, untraced.ms);
    if sums.mismatched > 0 {
        eprintln!(
            "mpcbench: {}: {} engine-depth queries report another load than the service",
            w.name, sums.mismatched
        );
    }
    // Times are read from the quietest window of the replay, as in the
    // end-to-end run.
    let quiet = |ms: &[f64]| quietest_median(ms, w.period.len(), WINDOW_CYCLES);
    let per_cycle = |name| quiet(&tracer.per_cycle_ms(name, cycles));
    let service_ms = ["service.query", "service.append", "service.load"].map(per_cycle);
    // Engine-depth spans that stand for work inside the service calls:
    // parsing happens before those, and probes measure parts of it twice.
    const ENGINE_WORK: [&str; 6] = [
        "stats.sketch_build",
        "stats.append",
        "core.plan",
        "sim.shuffle",
        "data.local_join",
        "core.aggregate_fold",
    ];
    let engine_total =
        quiet(&tracer.per_cycle(cycles, |s| !s.probe && ENGINE_WORK.contains(&s.name)));
    let service_total = quiet(&tracer.per_cycle(cycles, |s| s.name.starts_with("service.")));
    let handle = quiet(&handle_ms);
    let mean = |total: f64| total / sums.queries.max(1.0);
    let metrics = vec![
        ("query.parse_ms", per_cycle("query.parse")),
        ("query.pk_ms", per_cycle("query.pk")),
        ("lp.share_lp_ms", per_cycle("lp.share_lp")),
        ("stats.sketch_build_ms", per_cycle("stats.sketch_build")),
        ("stats.append_ms", per_cycle("stats.append")),
        ("core.plan_ms", per_cycle("core.plan")),
        ("sim.shuffle_ms", per_cycle("sim.shuffle")),
        ("data.local_join_ms", per_cycle("data.local_join")),
        (
            "core.aggregate_fold_ms",
            quiet(&tracer.per_cycle_self_ms("core.aggregate_fold", cycles)),
        ),
        ("service.query_ms", service_ms[0]),
        ("service.append_ms", service_ms[1]),
        ("service.load_ms", service_ms[2]),
        ("wire.handle_ms", handle),
        (
            "wire.parse_render_ms",
            handle - service_ms.iter().sum::<f64>(),
        ),
        ("data.join_bindings", median(&counters[0])),
        ("data.rows_materialized", median(&counters[1])),
        ("stats.scan_bytes", median(&counters[2])),
        ("alloc.count", median(&allocs)),
        ("sim.load_max_bits", mean(sums.max_bits)),
        ("sim.load_total_bits", mean(sums.total_bits)),
        ("sim.replication_rate", mean(sums.replication)),
        ("sim.load_imbalance", mean(sums.imbalance)),
        ("core.predicted_bits", mean(sums.predicted)),
        ("core.lower_bound_bits", mean(sums.lower)),
        ("core.load_over_lower", mean(sums.over_lower)),
        ("core.heavy_count", mean(sums.heavy)),
        ("core.bin_combinations", mean(sums.bin_combinations)),
        ("trace.coverage", engine_total / service_total),
        ("trace.overhead", handle / quiet(&untraced_ms)),
    ];
    Traced {
        metrics,
        tracer,
        handle_ms: handle,
    }
}
