//! `mpcskew` — a command-line front end for the library.
//!
//! ```text
//! # Analyze a query's bounds for given statistics:
//! mpcskew bounds "S1(x,y), S2(y,z), S3(z,x)" --cards 65536,65536,65536 --p 64
//!
//! # Generate a workload and let the engine pick the algorithm:
//! mpcskew run "S1(x,z), S2(y,z)" --m 20000 --p 64 --theta 1.2
//!
//! # Or pin one explicitly (--flag=value works everywhere):
//! mpcskew run "S1(x,z), S2(y,z)" --algo=skew-join --theta=1.2
//! ```
//!
//! Every `run` goes through `mpc_core::engine::Engine`: `--algo auto`
//! (the default) picks the algorithm from heavy-hitter statistics, and the
//! output reports the plan's predicted `L(u, M, p)` next to the measured
//! load.
//!
//! `mpcskew serve` starts the resident query service instead: load
//! relations once, then stream `QUERY`/`APPEND` lines against memoized
//! statistics and a fingerprinted plan cache (see `mpc_core::wire` for the
//! protocol), on stdin or — with `--listen host:port` — a TCP socket
//! shared by concurrent clients.

use mpc_skew::core::bounds;
use mpc_skew::core::engine::{
    admit, sketch_capacity, Algorithm, Engine, ExactStats, SketchStats, Stats, StatsMode,
    SyntheticStats, MAX_SERVERS,
};
use mpc_skew::core::service::{Service, ServiceError};
use mpc_skew::core::shares::ShareAllocation;
use mpc_skew::core::wire;
use mpc_skew::data::{generators, Database, Rng};
use mpc_skew::query::aggregate::AggregateSpec;
use mpc_skew::query::{parse_aggregate_query, Query};
use mpc_skew::sim::backend::Backend;
use mpc_skew::stats::SimpleStatistics;
use std::process::ExitCode;

/// Parsed flags: `--flag value`, `--flag=value`, or bare boolean `--flag`.
struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// The value of `--name` (`None` when absent or valueless).
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// True when `--name` appears at all (boolean flags).
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == name)
    }

    /// The value of `--name`, erroring when the flag is present without
    /// one (`--p` alone is a mistake, not a boolean).
    fn value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.get(name) {
            Some(v) => Ok(Some(v)),
            None if self.has(name) => Err(format!("--{name} is missing a value")),
            None => Ok(None),
        }
    }

    fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got `{v}`")),
        }
    }

    /// `--p` (default 64), held to `1..=MAX_SERVERS` like `p=` on the wire.
    fn servers(&self) -> Result<usize, String> {
        match self.usize_or("p", 64)? {
            0 => Err("--p must be at least 1".to_string()),
            p if p > MAX_SERVERS => Err(format!("--p must be at most {MAX_SERVERS}")),
            p => Ok(p),
        }
    }

    /// `--domain`, the value domain `[n]` the data is drawn from or the
    /// bounds are stated over: at least 1.
    fn domain(&self, default: u64) -> Result<u64, String> {
        match self.usize_or("domain", default as usize)? {
            0 => Err("--domain must be at least 1".to_string()),
            n => Ok(n as u64),
        }
    }

    /// `--theta`, the Zipf exponent (default 0: uniform): finite and
    /// non-negative.
    fn theta(&self) -> Result<f64, String> {
        let Some(v) = self.value("theta")? else {
            return Ok(0.0);
        };
        match v.parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
            Ok(_) => Err(format!("--theta must be a finite number >= 0, got `{v}`")),
            Err(_) => Err(format!("--theta expects a number, got `{v}`")),
        }
    }

    /// The `--threads` backend (default: `MPCSKEW_THREADS` or all cores).
    /// The variable is read only without `--threads`, and a malformed one
    /// is an input error like any other.
    fn backend(&self) -> Result<Backend, String> {
        match self.value("threads")? {
            Some(v) => {
                Backend::parse(v).map_err(|_| format!("--threads expects an integer, got `{v}`"))
            }
            None => match std::env::var("MPCSKEW_THREADS") {
                Ok(v) => Backend::parse(&v)
                    .map_err(|e| format!("MPCSKEW_THREADS expects an integer, {e}")),
                Err(_) => Ok(Backend::available()),
            },
        }
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut flags = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let k = raw[i]
            .strip_prefix("--")
            .filter(|k| !k.is_empty())
            .ok_or_else(|| format!("expected --flag, got `{}`", raw[i]))?;
        if let Some((name, value)) = k.split_once('=') {
            // --flag=value
            flags.push((name.to_string(), Some(value.to_string())));
            i += 1;
        } else if let Some(v) = raw.get(i + 1).filter(|v| !v.starts_with("--")) {
            // --flag value
            flags.push((k.to_string(), Some(v.clone())));
            i += 2;
        } else {
            // bare boolean --flag
            flags.push((k.to_string(), None));
            i += 1;
        }
    }
    Ok(Args { flags })
}

fn usage() -> &'static str {
    "usage:\n  \
     mpcskew bounds <query> --cards m1,m2,... [--p 64] [--domain 1048576]\n  \
     mpcskew run <query> [--m 10000] [--p 64] [--domain 65536] [--algo auto]\n          \
     [--theta 0.0] [--seed 1] [--skew-col 1] [--threads N] [--no-verify]\n          \
     [--stats exact|sketch|synthetic]\n  \
     mpcskew serve [--domain 65536] [--p 64] [--seed 1] [--threads N]\n          \
     [--listen host:port] [--max-clients 64] [--stats exact|sketch]\n  \
     mpcskew --help\n\n\
     queries are conjunctive-query text, e.g. \"S1(x,z), S2(y,z)\"; `run`\n\
     also takes aggregate heads — \"Q(x; count) :- S1(x,z), S2(y,z)\" with\n\
     ops count | sum(v) | min(v) | max(v) | count_distinct(v) — folded\n\
     inside the local joins, never materializing the join output;\n\
     flags accept both `--flag value` and `--flag=value`;\n\
     algos: auto | hc | skew-join | general — `auto` (the default) picks\n\
     from heavy-hitter statistics: HyperCube when the join variables are\n\
     skew-free, the \u{a7}4.1 skew join on skewed two-relation joins, the\n\
     \u{a7}4.2 general algorithm otherwise;\n\
     --threads: simulator worker threads (1 = sequential backend, N = the\n\
     caller plus N-1 scoped threads per parallel loop, 0 = one per core;\n\
     default: MPCSKEW_THREADS or all available cores; results are identical\n\
     whichever backend runs);\n\
     --stats: in run, the planner's statistics source — exact (default),\n\
     sketch (SpaceSaving summaries: sublinear, each count an overcount\n\
     interval) or synthetic (cardinalities only); in serve, the capacity of\n\
     the one summary kept per relation — sketch (default) or exact\n\
     (unbounded); estimates can only shift load, never change answers;\n\
     serve: resident service speaking the line protocol (LOAD / APPEND /\n\
     QUERY / SET / STATS / SHUTDOWN) on stdin, or on a TCP\n\
     socket with --listen — relations stay loaded, statistics are kept current,\n\
     and repeated query shapes hit a fingerprinted plan cache; worker\n\
     panics are contained per query (`err internal ...`), SET/timeout=/\n\
     limit= budgets bound runaway queries (`err timeout`/`err limit`), and\n\
     --max-clients sheds excess TCP clients with `err overloaded`"
}

fn cmd_bounds(q: &Query, args: &Args) -> Result<(), String> {
    let p = args.servers()?;
    let domain = args.domain(1 << 20)?;
    let cards: Vec<usize> = args
        .value("cards")?
        .ok_or("--cards m1,m2,... is required")?
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad cardinality `{s}`"))
        })
        .collect::<Result<_, _>>()?;
    if cards.len() != q.num_atoms() {
        return Err(format!(
            "query has {} atoms but {} cardinalities were given",
            q.num_atoms(),
            cards.len()
        ));
    }
    let arities: Vec<usize> = q.atoms().iter().map(|a| a.arity()).collect();
    let st = SimpleStatistics::synthetic(&arities, cards.clone(), domain);

    let vertices = mpc_skew::query::packing_vertices(q);
    println!("query           : {q}");
    println!("p               : {p}");
    println!("M (bits)        : {:?}", st.bit_sizes);
    println!(
        "tau* (max pack) : {}",
        mpc_skew::query::max_packing_value(&vertices)
    );
    println!(
        "rho* (min cover): {:.4}",
        mpc_skew::query::cover::edge_cover_number(q).map_err(|e| e.to_string())?
    );
    println!(
        "AGM bound       : {:.3e} tuples",
        mpc_skew::query::cover::agm_bound(q, &cards).map_err(|e| e.to_string())?
    );
    println!(
        "E[|q(I)|]       : {:.3e} tuples (Lemma A.1)",
        bounds::expected_answers(q, &cards, domain)
    );
    println!(
        "space exponent  : {:.4}",
        bounds::space_exponent(&vertices, &st, p)
    );
    println!("\npk(q) load table (Example 3.7 style):");
    for (u, l) in bounds::packing_load_table(&vertices, &st, p) {
        println!("  u = {:?}  ->  L = {:.0} bits", u.to_f64(), l);
    }
    let (lower, best) = bounds::l_lower(&vertices, &st, p);
    println!(
        "\nL_lower = L_upper = {:.0} bits  (packing {:?})",
        lower,
        best.to_f64()
    );
    let alloc = ShareAllocation::optimize(q, &st, p).map_err(|e| e.to_string())?;
    println!(
        "optimal shares  : {:?}  (exponents {:?})",
        alloc.shares,
        alloc
            .exponents
            .iter()
            .map(|e| (e * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    Ok(())
}

fn cmd_execute(q: &Query, aggregate: Option<&AggregateSpec>, args: &Args) -> Result<(), String> {
    let p = args.servers()?;
    let m = args.usize_or("m", 10_000)?;
    let domain = args.domain(1 << 16)?;
    let theta = args.theta()?;
    let seed = args.usize_or("seed", 1)? as u64;
    let skew_col = args.usize_or("skew-col", 1)?;
    // A skew column past every atom would run uniform data under a header
    // echoing `theta`.
    let widest = q.atoms().iter().map(|a| a.arity()).max().unwrap_or(0);
    if theta > 0.0 && skew_col >= widest {
        return Err(format!(
            "--skew-col {skew_col} is past every atom (the widest has arity {widest})"
        ));
    }
    let algo = match args.value("algo")? {
        None => Algorithm::Auto,
        Some(v) => Algorithm::parse(v).map_err(|e| format!("{e}\n{}", usage()))?,
    };
    admit(q, algo, aggregate)?;
    // The planner's statistics source: what `run` reads of its own data.
    let stats_name = args.value("stats")?.unwrap_or("exact");
    if !["exact", "sketch", "synthetic"].contains(&stats_name) {
        return Err(format!("unknown stats mode `{stats_name}`\n{}", usage()));
    }
    let backend = args.backend()?;

    // Workload: every relation Zipf(theta) on `skew-col` (uniform if 0.0).
    let mut rng = Rng::seed_from_u64(seed);
    let rels: Vec<mpc_skew::data::Relation> = q
        .atoms()
        .iter()
        .map(|a| {
            if theta > 0.0 && skew_col < a.arity() {
                generators::zipf_column(a.name(), a.arity(), m, domain, skew_col, theta, &mut rng)
            } else {
                generators::uniform(a.name(), a.arity(), m, domain, &mut rng)
            }
        })
        .collect();
    let db = Database::new(q.clone(), rels, domain).map_err(|e| e.to_string())?;

    println!("query  : {q}");
    println!(
        "data   : {} atoms x {m} tuples over [{domain}], theta = {theta}",
        q.num_atoms()
    );
    println!(
        "algo   : {algo}, p = {p}, seed = {seed}, backend = {backend}, stats = {stats_name}\n"
    );

    let stats: Box<dyn Stats> = match stats_name {
        "sketch" => Box::new(SketchStats::of(&db, sketch_capacity(p))),
        "synthetic" => Box::new(SyntheticStats(SimpleStatistics::of(&db))),
        _ => Box::new(ExactStats::of(&db)),
    };
    let mut engine = Engine::new(q)
        .p(p)
        .seed(seed)
        .backend(backend)
        .algorithm(algo)
        .stats(&*stats);
    if let Some(spec) = aggregate {
        engine = engine.aggregate(spec.clone());
    }
    let plan = engine.plan(&db);
    println!("plan   : {plan}");
    // Each accessor answers for its own algorithm only.
    if let (Some(shares), Some(replication)) = (plan.shares(), plan.replication()) {
        println!("shares : {shares:?}");
        let copies: Vec<String> = (q.atoms().iter())
            .zip(replication)
            .map(|(atom, r)| format!("{} {r}x", atom.name()))
            .collect();
        println!("planned repl. : {}", copies.join(", "));
    }
    if let Some(heavy) = plan.num_heavy() {
        println!("heavy z: {heavy}");
    }
    if let Some(combos) = plan.num_bin_combinations() {
        println!("combos : {combos}");
    }

    let outcome = plan.execute(&db, backend);
    let report = outcome.report().expect("every plan reports its round");
    println!(
        "\nmax load      : {} bits ({} tuples)",
        report.max_load_bits(),
        report.max_load_tuples()
    );
    println!("mean load     : {:.0} bits", report.mean_load_bits());
    println!("imbalance     : {:.2}x", report.imbalance());
    println!("replication   : {:.2}x", report.replication_rate());
    println!("predicted L   : {:.0} bits", outcome.predicted_load_bits());
    println!("L_lower       : {:.0} bits", outcome.lower_bound_bits());
    println!(
        "load/bound    : {:.2}x",
        outcome.max_load_bits() as f64 / outcome.lower_bound_bits()
    );
    if let Some(agg) = outcome.aggregate() {
        let spec = outcome.aggregate_spec().expect("aggregate spec");
        println!("aggregate     : {}", spec.display_with(q));
        println!("groups        : {}", agg.num_groups());
        const SHOWN: usize = 20;
        for line in agg.to_string().lines().take(SHOWN) {
            println!("  {line}");
        }
        if agg.num_groups() > SHOWN {
            println!("  ... ({} more groups)", agg.num_groups() - SHOWN);
        }
        if args.has("no-verify") {
            println!("verification  : skipped");
            return Ok(());
        }
        let ok = outcome.verify_aggregate(&db).expect("aggregate outcome");
        println!(
            "verification  : {} (vs sequential oracle fold)",
            if ok { "PASSED" } else { "FAILED" }
        );
        if !ok {
            return Err("aggregate result differs from the sequential oracle".to_string());
        }
        return Ok(());
    }
    if args.has("no-verify") {
        // Counted per server without building the answer set, except on
        // a `general` plan.
        println!(
            "answers       : {} distinct (verification skipped)",
            outcome.answer_count()
        );
        return Ok(());
    }
    let v = outcome.verify(&db);
    println!(
        "answers       : {} distinct, verification {}",
        v.found,
        if v.is_complete() { "PASSED" } else { "FAILED" }
    );
    if !v.is_complete() {
        return Err(format!("{} answers missing", v.missing.len()));
    }
    Ok(())
}

/// Build the service from the shared serve flags.
fn service_from_args(args: &Args) -> Result<Service, String> {
    let domain = args.domain(1 << 16)?;
    let p = args.servers()?;
    let seed = args.usize_or("seed", 1)? as u64;
    let backend = args.backend()?;
    // A resident service defaults to sketch statistics: ingest folds into
    // O(p)-space summaries instead of unbounded exact ones, so planning
    // state stays sublinear however large the catalog grows.
    // The flag is the capacity of the one summary kept per relation; a
    // resident service always has its data, so `synthetic` is unknown here.
    let stats_mode = match args.value("stats")? {
        None => StatsMode::Sketch,
        Some(v) => StatsMode::parse(v).map_err(|e| format!("{e}\n{}", usage()))?,
    };
    Ok(Service::new(domain)
        .with_backend(backend)
        .with_defaults(p, seed)
        .with_stats_mode(stats_mode))
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let service = service_from_args(args)?;
    let max_clients = args.usize_or("max-clients", 64)?;
    if max_clients == 0 {
        return Err("--max-clients must be at least 1".to_string());
    }
    match args.value("listen")? {
        None => serve_stdio(service),
        Some(addr) => serve_tcp(service, addr, max_clients),
    }
}

/// One session over stdin/stdout: the classic filter shape, scriptable with
/// a here-doc (see `ci.sh`'s smoke stage). Each reply is written and
/// flushed as one unit before the next command is read. The service sits
/// behind the same mutex as on TCP, never contended here; as there, the
/// lock covers only a command's apply step.
fn serve_stdio(service: Service) -> Result<(), String> {
    let service = std::sync::Mutex::new(service);
    let end = wire::serve(std::io::stdin().lock(), std::io::stdout().lock(), &service);
    match end.error {
        Some(e) => Err(format!("stdio: {e}")),
        None => Ok(()),
    }
}

/// Concurrent clients multiplexed onto one catalog: each connection gets its
/// own session (parser state), all of them sharing the `Service` — and
/// therefore its memoized statistics and plan cache — behind a mutex held
/// only while a command is applied: catalog, plan cache, ingest, and
/// planning on a miss. A query's execution and render run outside it, so
/// clients' queries run side by side. Any client's SHUTDOWN stops the
/// listener.
///
/// Every connection runs the same [`wire::serve`] loop as stdio: a reply is
/// rendered completely, then written to the socket in one `write_all`,
/// with the lock released. Sockets are `TCP_NODELAY`, so a
/// reply leaves when it is written instead of waiting out Nagle's algorithm
/// against the client's delayed ACK (44 ms per reply, measured on Linux
/// loopback).
///
/// The listener is fault-contained: a client vanishing mid-line or
/// mid-response ends only its own session (whose thread handle is reaped,
/// not leaked), a session thread panic is caught without poisoning the
/// shared service for everyone else, and connections past `max_clients`
/// are shed with one `err overloaded` line, which bounds the sessions (and
/// so the queries) running at once.
fn serve_tcp(service: Service, addr: &str, max_clients: usize) -> Result<(), String> {
    use std::io::{BufReader, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // Printed first so scripts (and the CLI tests) can discover the port
    // when `--listen 127.0.0.1:0` asked the OS to pick one.
    println!("listening on {local}");
    std::io::stdout().flush().ok();

    let service = Arc::new(Mutex::new(service));
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Reap finished sessions so a long-lived server holds one handle
        // per *live* client, not one per client that ever connected.
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let _ = handles.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        let mut stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let now = active.load(Ordering::SeqCst);
        if now >= max_clients {
            // Load shedding: one typed line in one write, then close.
            // Never block the listener behind a full house.
            let mut shed = String::new();
            wire::render_err(
                &mut shed,
                &ServiceError::Overloaded {
                    active: now,
                    max: max_clients,
                },
            );
            let _ = stream.write_all(shed.as_bytes());
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let active = Arc::clone(&active);
        handles.push(std::thread::spawn(move || {
            // Contain even an unexpected session panic: the slot must be
            // released and the listener must keep accepting.
            let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Best effort: without it replies are late, not wrong.
                let _ = stream.set_nodelay(true);
                match stream.try_clone() {
                    Ok(read_half) => {
                        wire::serve(BufReader::new(read_half), stream, &service).shutdown
                    }
                    Err(_) => false,
                }
            }))
            .unwrap_or(false);
            active.fetch_sub(1, Ordering::SeqCst);
            if done {
                stop.store(true, Ordering::SeqCst);
                // Wake the blocking accept so the listener can observe the
                // flag; the no-op connection is dropped unserved.
                let _ = TcpStream::connect(local);
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    // `serve` takes no query positional — dispatch it before query parsing.
    if argv[0] == "serve" {
        let result = parse_args(&argv[1..]).and_then(|args| cmd_serve(&args));
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.len() < 2 {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let cmd = argv[0].as_str();
    let query_text = argv[1].as_str();
    let (q, aggregate) = match parse_aggregate_query(query_text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("cannot parse query `{query_text}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = match parse_args(&argv[2..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "bounds" if aggregate.is_some() => {
            Err("`bounds` analyzes the join body — drop the aggregate head".to_string())
        }
        "bounds" => cmd_bounds(&q, &args),
        "run" => cmd_execute(&q, aggregate.as_ref(), &args),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
