//! The service's line protocol — what `mpcskew serve` speaks on stdin or a
//! TCP socket, factored out so it is testable without a process.
//!
//! One command per line; every command produces one or more response
//! lines, the first always starting with `ok` or `err`:
//!
//! ```text
//! LOAD <rel> <arity> [<v>,<v>,..;<v>,..]   register/replace a relation
//! APPEND <rel> <v>,<v>,..;..               incremental ingest
//! QUERY <body> [p=N] [seed=N] [algo=NAME] [timeout=MS] [limit=N] [rows]
//! SET [timeout_ms=N] [max_rows=N] [max_groups=N]   session-wide defaults
//! BATCH / RUN                              queue QUERYs, run multiplexed
//! STATS                                    counters + catalog, then `end`
//! SHUTDOWN                                 `ok bye`, session done
//! ```
//!
//! `QUERY` takes a conjunctive-query body (`S1(x,z), S2(y,z)`, optionally
//! double-quoted) followed by options; with `rows` the answer tuples
//! follow the `ok` line, one per line, terminated by `end`. The body may
//! also carry an aggregate head (`Q(x; count) :- S1(x,z), S2(y,z)`), in
//! which case the status line reports `ok groups=N ...` and `rows` emits
//! `key.. | value..` group lines instead of answer tuples. Blank lines
//! and `#` comments are ignored.
//!
//! **Budgets and errors.** `SET timeout_ms=`/`max_rows=`/`max_groups=`
//! install default query budgets on the shared service (0 = unlimited);
//! per-query `timeout=MS` and `limit=N` (answer rows, or groups for an
//! aggregate head; 0 = unlimited) override them. Every failure is one
//! `err` line whose first word classifies it: `err timeout ...` (deadline
//! expired), `err limit ...` (row/group cap), `err unsupported ...`
//! (recognized capability limit), `err internal ...` (a worker panic,
//! contained — the session and service survive, and the next query on
//! the same connection runs normally). The TCP front end additionally
//! sheds clients past its `--max-clients` cap with `err overloaded ...`.
//!
//! ```
//! use mpc_core::service::Service;
//! use mpc_core::wire::Session;
//! use mpc_sim::backend::Backend;
//!
//! let mut svc = Service::new(64).with_backend(Backend::Sequential).with_defaults(4, 1);
//! let mut session = Session::new();
//! session.handle(&mut svc, "LOAD S1 2 0,1;2,3");
//! session.handle(&mut svc, "LOAD S2 2 9,1");
//! let reply = session.handle(&mut svc, "QUERY S1(x,z), S2(y,z) rows");
//! assert!(reply[0].starts_with("ok answers=1 "));
//! assert!(reply[0].contains("cache=miss"));
//! assert_eq!(reply[1], "0 1 9"); // x z y, interning order
//! assert_eq!(reply[2], "end");
//! assert!(session.handle(&mut svc, "SHUTDOWN")[0].starts_with("ok bye"));
//! assert!(session.is_done());
//! ```

use crate::engine::Algorithm;
use crate::service::{QuerySpec, Service, ServiceError, ServiceOutcome};
use mpc_query::parse_aggregate_query;

/// Per-connection protocol state: queued batch specs and the shutdown
/// flag. All catalog/cache state lives in the [`Service`], which many
/// sessions may share.
#[derive(Default)]
pub struct Session {
    pending: Vec<QuerySpec>,
    pending_rows: Vec<bool>,
    in_batch: bool,
    done: bool,
}

impl Session {
    /// A fresh session.
    pub fn new() -> Session {
        Session::default()
    }

    /// True once the client sent `SHUTDOWN`.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Process one protocol line against `service`, returning the
    /// response lines.
    pub fn handle(&mut self, service: &mut Service, line: &str) -> Vec<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Vec::new();
        }
        let (keyword, rest) = match line.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        match keyword.to_ascii_uppercase().as_str() {
            "LOAD" => self.cmd_load(service, rest),
            "APPEND" => self.cmd_append(service, rest),
            "QUERY" => self.cmd_query(service, rest),
            "SET" => self.cmd_set(service, rest),
            "BATCH" => self.cmd_batch(),
            "RUN" => self.cmd_run(service),
            "STATS" => self.cmd_stats(service),
            "SHUTDOWN" => {
                if self.in_batch {
                    return vec!["err SHUTDOWN inside BATCH (send RUN first)".to_string()];
                }
                self.done = true;
                vec!["ok bye".to_string()]
            }
            other => vec![format!("err unknown command `{other}`")],
        }
    }

    fn cmd_load(&mut self, service: &mut Service, rest: &str) -> Vec<String> {
        if self.in_batch {
            return vec!["err LOAD inside BATCH".to_string()];
        }
        let mut parts = rest.splitn(3, char::is_whitespace);
        let name = match parts.next().filter(|s| !s.is_empty()) {
            Some(n) => n,
            None => return vec!["err LOAD needs: LOAD <rel> <arity> [rows]".to_string()],
        };
        let arity: usize = match parts.next().and_then(|a| a.parse().ok()) {
            Some(a) if a > 0 => a,
            _ => return vec!["err LOAD needs a positive integer arity".to_string()],
        };
        let flat = match parse_rows(parts.next().unwrap_or(""), arity) {
            Ok(flat) => flat,
            Err(e) => return vec![format!("err {e}")],
        };
        let rel = mpc_data::relation::Relation::from_flat(name, arity, flat);
        match service.load(rel) {
            Ok(len) => vec![format!("ok loaded {name} arity={arity} tuples={len}")],
            Err(e) => vec![format!("err {e}")],
        }
    }

    fn cmd_append(&mut self, service: &mut Service, rest: &str) -> Vec<String> {
        if self.in_batch {
            return vec!["err APPEND inside BATCH".to_string()];
        }
        let (name, rows) = match rest.split_once(char::is_whitespace) {
            Some((n, r)) => (n, r.trim()),
            None => return vec!["err APPEND needs: APPEND <rel> <rows>".to_string()],
        };
        let arity = match service.relation(name) {
            Some(rel) => rel.arity(),
            None => return vec![format!("err relation `{name}` is not loaded")],
        };
        let flat = match parse_rows(rows, arity) {
            Ok(flat) if !flat.is_empty() => flat,
            Ok(_) => return vec!["err APPEND needs at least one tuple".to_string()],
            Err(e) => return vec![format!("err {e}")],
        };
        let appended = flat.len() / arity;
        match service.append(name, &flat) {
            Ok(len) => vec![format!("ok appended {name} +{appended} tuples={len}")],
            Err(e) => vec![format!("err {e}")],
        }
    }

    fn cmd_query(&mut self, service: &mut Service, rest: &str) -> Vec<String> {
        let (spec, want_rows) = match parse_query_line(rest) {
            Ok(parsed) => parsed,
            Err(e) => return vec![format!("err {e}")],
        };
        if self.in_batch {
            self.pending.push(spec);
            self.pending_rows.push(want_rows);
            return vec![format!("ok queued {}", self.pending.len())];
        }
        match service.query_spec(&spec) {
            Ok(outcome) => render_outcome(&outcome, want_rows),
            Err(e) => vec![format!("err {e}")],
        }
    }

    /// `SET key=value ...`: install default query budgets on the service
    /// (shared by every session on a TCP front). `0` clears a default
    /// back to unlimited.
    fn cmd_set(&mut self, service: &mut Service, rest: &str) -> Vec<String> {
        if self.in_batch {
            return vec!["err SET inside BATCH".to_string()];
        }
        if rest.is_empty() {
            return vec![
                "err SET needs: SET [timeout_ms=N] [max_rows=N] [max_groups=N]".to_string(),
            ];
        }
        let mut echo = Vec::new();
        for pair in rest.split_whitespace() {
            let Some((key, value)) = pair.split_once('=') else {
                return vec![format!("err SET expects key=value, got `{pair}`")];
            };
            let Ok(n) = value.parse::<u64>() else {
                return vec![format!("err SET {key}= expects an integer, got `{value}`")];
            };
            let setting = if n == 0 { None } else { Some(n) };
            match key {
                "timeout_ms" => service.set_default_timeout_ms(setting),
                "max_rows" => service.set_default_max_rows(setting),
                "max_groups" => service.set_default_max_groups(setting),
                other => return vec![format!("err SET has no key `{other}`")],
            }
            echo.push(format!("{key}={n}"));
        }
        vec![format!("ok set {}", echo.join(" "))]
    }

    fn cmd_batch(&mut self) -> Vec<String> {
        if self.in_batch {
            return vec!["err already in BATCH".to_string()];
        }
        self.in_batch = true;
        vec!["ok batch".to_string()]
    }

    fn cmd_run(&mut self, service: &mut Service) -> Vec<String> {
        if !self.in_batch {
            return vec!["err RUN outside BATCH".to_string()];
        }
        self.in_batch = false;
        let specs = std::mem::take(&mut self.pending);
        let rows = std::mem::take(&mut self.pending_rows);
        let mut out = Vec::new();
        for (result, want_rows) in service.query_batch(&specs).into_iter().zip(rows) {
            match result {
                Ok(outcome) => out.extend(render_outcome(&outcome, want_rows)),
                Err(e) => out.push(format!("err {e}")),
            }
        }
        out.push(format!("ok ran {}", specs.len()));
        out
    }

    fn cmd_stats(&mut self, service: &mut Service) -> Vec<String> {
        let c = service.counters();
        let mut out = vec![format!(
            "ok plans={} hits={} misses={} invalidations={} evictions={} relations={} mode={}",
            service.cached_plans(),
            c.hits,
            c.misses,
            c.invalidations,
            c.evictions,
            service.relation_infos().len(),
            service.stats_mode()
        )];
        if let Some(t) = service.sketch_telemetry() {
            out.push(format!(
                "sketch bytes={} capacity={} max_error={}",
                t.bytes, t.capacity, t.max_error
            ));
        }
        for info in service.relation_infos() {
            out.push(format!(
                "rel {} arity={} tuples={} tracked={}",
                info.name, info.arity, info.tuples, info.tracked_projections
            ));
        }
        out.push("end".to_string());
        out
    }
}

/// Render one query outcome: the `ok` status line, plus the answer tuples
/// (or `key | value` group lines for aggregate heads) and an `end`
/// terminator when the client asked for rows.
fn render_outcome(outcome: &ServiceOutcome, want_rows: bool) -> Vec<String> {
    if let Some(agg) = outcome.aggregate() {
        let mut out = vec![format!(
            "ok groups={} algo={} cache={} rounds={} load={} predicted={:.0}",
            agg.num_groups(),
            outcome.algorithm(),
            outcome.cache_status(),
            outcome.num_rounds(),
            outcome.max_load_bits(),
            outcome.run_outcome().predicted_load_bits(),
        )];
        if want_rows {
            out.extend(agg.to_string().lines().map(str::to_string));
            out.push("end".to_string());
        }
        return out;
    }
    // Containment extends to the lazy row materialization: a worker panic
    // while joining the rows yields one `err` line, not a torn reply.
    let answers = match outcome.try_answers() {
        Ok(a) => a,
        Err(e) => return vec![format!("err {e}")],
    };
    let mut out = vec![format!(
        "ok answers={} algo={} cache={} rounds={} load={} predicted={:.0}",
        answers.len(),
        outcome.algorithm(),
        outcome.cache_status(),
        outcome.num_rounds(),
        outcome.max_load_bits(),
        outcome.run_outcome().predicted_load_bits(),
    )];
    if want_rows {
        for row in answers.rows() {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push(cells.join(" "));
        }
        out.push("end".to_string());
    }
    out
}

/// Parse `v,v,..;v,v,..` into flat row-major data, validating row widths.
fn parse_rows(text: &str, arity: usize) -> Result<Vec<u64>, String> {
    let text = text.trim();
    let mut flat = Vec::new();
    if text.is_empty() {
        return Ok(flat);
    }
    for (i, row) in text.split(';').enumerate() {
        let row = row.trim();
        if row.is_empty() {
            continue;
        }
        let before = flat.len();
        for cell in row.split(',') {
            let v: u64 = cell
                .trim()
                .parse()
                .map_err(|_| format!("tuple {} has non-integer value `{}`", i + 1, cell.trim()))?;
            flat.push(v);
        }
        if flat.len() - before != arity {
            return Err(format!(
                "tuple {} has {} values, expected arity {}",
                i + 1,
                flat.len() - before,
                arity
            ));
        }
    }
    Ok(flat)
}

/// Split a `QUERY` line into the query body and trailing options. Options
/// are parsed right-to-left so the body itself may contain spaces without
/// quoting. Syntax problems come back as [`ServiceError::Parse`] — the
/// same typed vocabulary every other query failure uses.
fn parse_query_line(rest: &str) -> Result<(QuerySpec, bool), ServiceError> {
    let parse_err = |msg: &str| ServiceError::Parse(msg.to_string());
    let mut body = rest.trim();
    let mut p = None;
    let mut seed = None;
    let mut timeout_ms = None;
    let mut limit = None;
    let mut algorithm = Algorithm::Auto;
    let mut want_rows = false;
    while let Some((head, tail)) = body.rsplit_once(char::is_whitespace) {
        let tail = tail.trim();
        if tail.eq_ignore_ascii_case("rows") {
            want_rows = true;
        } else if let Some(v) = tail.strip_prefix("p=") {
            p = Some(
                v.parse::<usize>()
                    .map_err(|_| parse_err("p= expects an integer"))?,
            );
            if p == Some(0) {
                return Err(parse_err("p= must be at least 1"));
            }
        } else if let Some(v) = tail.strip_prefix("seed=") {
            seed = Some(
                v.parse::<u64>()
                    .map_err(|_| parse_err("seed= expects an integer"))?,
            );
        } else if let Some(v) = tail.strip_prefix("timeout=") {
            timeout_ms = Some(
                v.parse::<u64>()
                    .map_err(|_| parse_err("timeout= expects milliseconds"))?,
            );
        } else if let Some(v) = tail.strip_prefix("limit=") {
            limit = Some(
                v.parse::<u64>()
                    .map_err(|_| parse_err("limit= expects an integer"))?,
            );
        } else if let Some(v) = tail.strip_prefix("algo=") {
            algorithm = Algorithm::parse(v).map_err(ServiceError::Parse)?;
        } else {
            break;
        }
        body = head.trim_end();
    }
    let body = body
        .strip_prefix('"')
        .and_then(|b| b.strip_suffix('"'))
        .unwrap_or(body)
        .trim();
    if body.is_empty() {
        return Err(parse_err("QUERY needs a query body"));
    }
    let (query, aggregate) = parse_aggregate_query(body)
        .map_err(|e| ServiceError::Parse(format!("cannot parse query: {e}")))?;
    let mut spec = QuerySpec::new(query).algorithm(algorithm);
    if let Some(agg) = aggregate {
        spec = spec.aggregate(agg);
    }
    if let Some(p) = p {
        spec = spec.p(p);
    }
    if let Some(seed) = seed {
        spec = spec.seed(seed);
    }
    if let Some(ms) = timeout_ms {
        spec = spec.timeout_ms(ms);
    }
    if let Some(n) = limit {
        spec = spec.limit(n);
    }
    Ok((spec, want_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_sim::backend::Backend;

    fn service() -> Service {
        Service::new(1 << 10)
            .with_backend(Backend::Sequential)
            .with_defaults(4, 1)
    }

    fn one(session: &mut Session, svc: &mut Service, line: &str) -> String {
        let out = session.handle(svc, line);
        assert_eq!(out.len(), 1, "expected one line, got {out:?}");
        out.into_iter().next().unwrap()
    }

    #[test]
    fn load_query_append_roundtrip() {
        let mut svc = service();
        let mut s = Session::new();
        assert_eq!(
            one(&mut s, &mut svc, "LOAD S1 2 0,1;1,1;2,3"),
            "ok loaded S1 arity=2 tuples=3"
        );
        assert_eq!(
            one(&mut s, &mut svc, "LOAD S2 2 5,1;6,3"),
            "ok loaded S2 arity=2 tuples=2"
        );
        let out = s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) rows");
        assert!(out[0].starts_with("ok answers=3 "), "{out:?}");
        assert!(out[0].contains("cache=miss"), "{out:?}");
        // Answers in (x, z, y) interning order, sorted.
        assert_eq!(out[1..], ["0 1 5", "1 1 5", "2 3 6", "end"]);
        assert_eq!(
            one(&mut s, &mut svc, "APPEND S2 7,1"),
            "ok appended S2 +1 tuples=3"
        );
        let out = s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) rows");
        assert!(out[0].starts_with("ok answers=5 "), "{out:?}");
        assert_eq!(
            out[1..],
            ["0 1 5", "0 1 7", "1 1 5", "1 1 7", "2 3 6", "end"]
        );
        // Comments and blank lines are ignored.
        assert!(s.handle(&mut svc, "  ").is_empty());
        assert!(s.handle(&mut svc, "# hi").is_empty());
        assert_eq!(one(&mut s, &mut svc, "SHUTDOWN"), "ok bye");
        assert!(s.is_done());
    }

    #[test]
    fn stats_reports_counters_and_catalog() {
        let mut svc = service();
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,2");
        s.handle(&mut svc, "LOAD S2 2 5,1");
        s.handle(&mut svc, "QUERY S1(x,z), S2(y,z)");
        s.handle(&mut svc, "QUERY S1(x,z), S2(y,z)");
        let out = s.handle(&mut svc, "STATS");
        assert_eq!(
            out[0],
            "ok plans=1 hits=1 misses=1 invalidations=0 evictions=0 relations=2 mode=exact"
        );
        // No sketch record outside sketch mode.
        assert!(!out.iter().any(|l| l.starts_with("sketch ")), "{out:?}");
        assert!(
            out.contains(&"rel S1 arity=2 tuples=2 tracked=1".to_string()),
            "{out:?}"
        );
        assert_eq!(out.last().unwrap(), "end");
    }

    #[test]
    fn stats_reports_sketch_telemetry_in_sketch_mode() {
        use crate::engine::StatsMode;
        let mut svc = service().with_stats_mode(StatsMode::Sketch);
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,2");
        s.handle(&mut svc, "LOAD S2 2 5,1");
        s.handle(&mut svc, "QUERY S1(x,z), S2(y,z)");
        let out = s.handle(&mut svc, "STATS");
        assert!(out[0].ends_with(" mode=sketch"), "{out:?}");
        let sketch = out
            .iter()
            .find(|l| l.starts_with("sketch "))
            .unwrap_or_else(|| panic!("no sketch record: {out:?}"));
        assert!(sketch.contains(" capacity="), "{sketch}");
        assert!(sketch.contains(" max_error="), "{sketch}");
        let bytes: usize = sketch
            .split_whitespace()
            .find_map(|f| f.strip_prefix("bytes="))
            .unwrap()
            .parse()
            .unwrap();
        assert!(bytes > 0);
        // The join query registered the z projection with each sketch.
        assert!(
            out.contains(&"rel S1 arity=2 tuples=2 tracked=1".to_string()),
            "{out:?}"
        );
        assert_eq!(out.last().unwrap(), "end");
    }

    #[test]
    fn batch_queues_and_runs_multiplexed() {
        let mut svc = service();
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,1");
        s.handle(&mut svc, "LOAD S2 2 5,1");
        s.handle(&mut svc, "LOAD S3 2 1,9");
        assert_eq!(one(&mut s, &mut svc, "BATCH"), "ok batch");
        assert_eq!(
            one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z)"),
            "ok queued 1"
        );
        assert_eq!(
            one(&mut s, &mut svc, "QUERY S2(x,z), S3(z,y) rows"),
            "ok queued 2"
        );
        assert_eq!(one(&mut s, &mut svc, "LOAD X 1 1"), "err LOAD inside BATCH");
        let out = s.handle(&mut svc, "RUN");
        assert!(out[0].starts_with("ok answers=2 "), "{out:?}");
        // S2(x,z) ⋈ S3(z,y): (5,1) ⋈ (1,9) → x=5, z=1, y=9.
        assert!(out[1].starts_with("ok answers=1 "), "{out:?}");
        assert_eq!(out[2..], ["5 1 9", "end", "ok ran 2"]);
        assert_eq!(one(&mut s, &mut svc, "RUN"), "err RUN outside BATCH");
    }

    #[test]
    fn query_options_parse_from_the_right() {
        let mut svc = service();
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,1");
        s.handle(&mut svc, "LOAD S2 2 5,1");
        let out = one(
            &mut s,
            &mut svc,
            "QUERY \"S1(x,z), S2(y,z)\" p=2 seed=9 algo=hash",
        );
        assert!(out.starts_with("ok answers=2 algo=hash "), "{out}");
        // Same options without quotes.
        let out = one(
            &mut s,
            &mut svc,
            "QUERY S1(x,z), S2(y,z) p=2 seed=9 algo=hash",
        );
        assert!(out.starts_with("ok answers=2 algo=hash cache=hit"), "{out}");
    }

    #[test]
    fn aggregate_query_over_the_wire() {
        let mut svc = service();
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,1;2,3");
        s.handle(&mut svc, "LOAD S2 2 5,1;6,3");
        let out = s.handle(&mut svc, "QUERY Q(z; count) :- S1(x,z), S2(y,z) rows");
        assert!(out[0].starts_with("ok groups=2 "), "{out:?}");
        assert!(out[0].contains("cache=miss"), "{out:?}");
        assert_eq!(out[1..], ["1 | 2", "3 | 1", "end"]);
        // Global aggregates have an empty key before the separator.
        let out = s.handle(
            &mut svc,
            "QUERY \"Q(; count, sum(z)) :- S1(x,z), S2(y,z)\" rows",
        );
        assert!(out[0].starts_with("ok groups=1 "), "{out:?}");
        assert_eq!(out[1..], ["| 3 5", "end"]);
        // Without `rows` only the status line comes back.
        let out = s.handle(&mut svc, "QUERY Q(z; count) :- S1(x,z), S2(y,z)");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].starts_with("ok groups=2 "), "{out:?}");
        assert!(out[0].contains("cache=hit"), "{out:?}");
    }

    #[test]
    fn aggregate_and_plain_twins_do_not_share_a_plan() {
        let mut svc = service();
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,1");
        s.handle(&mut svc, "LOAD S2 2 5,1");
        let plain = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z)");
        assert!(plain.contains("cache=miss"), "{plain}");
        // Same body with an aggregate head must be a fresh cache entry.
        let agg = one(&mut s, &mut svc, "QUERY Q(z; count) :- S1(x,z), S2(y,z)");
        assert!(agg.starts_with("ok groups="), "{agg}");
        assert!(agg.contains("cache=miss"), "{agg}");
    }

    #[test]
    fn aggregate_rejects_multi_round() {
        let mut svc = service();
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,1");
        s.handle(&mut svc, "LOAD S2 2 5,1");
        let out = one(
            &mut s,
            &mut svc,
            "QUERY \"Q(; count) :- S1(x,z), S2(y,z)\" algo=multi-round",
        );
        assert!(
            out.starts_with("err unsupported invalid aggregate"),
            "{out}"
        );
    }

    #[test]
    fn query_limit_and_timeout_options() {
        let mut svc = service();
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,1;2,3");
        s.handle(&mut svc, "LOAD S2 2 5,1;6,3");
        // Three answers fit a limit of 3 (exactly at the cap passes) ...
        let out = s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) limit=3 rows");
        assert!(out[0].starts_with("ok answers=3 "), "{out:?}");
        // ... but not a limit of 2.
        let out = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z) limit=2");
        assert_eq!(out, "err limit max_rows exceeded");
        // limit=0 is explicitly unlimited.
        let out = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z) limit=0");
        assert!(out.starts_with("ok answers=3 "), "{out}");
        // For an aggregate head the limit caps groups.
        let out = one(
            &mut s,
            &mut svc,
            "QUERY Q(z; count) :- S1(x,z), S2(y,z) limit=1",
        );
        assert_eq!(out, "err limit max_groups exceeded");
        // An already-expired deadline trips before any work happens; the
        // session keeps serving afterwards.
        let out = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z) timeout=0");
        assert!(
            out.starts_with("ok answers=3 "),
            "timeout=0 is unlimited: {out}"
        );
        let out = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z) seed=77");
        assert!(out.starts_with("ok answers=3 "), "{out}");
        assert!(one(&mut s, &mut svc, "QUERY S1(x,z) timeout=abc").starts_with("err timeout="));
        assert!(one(&mut s, &mut svc, "QUERY S1(x,z) limit=abc").starts_with("err limit="));
    }

    #[test]
    fn set_installs_service_defaults() {
        let mut svc = service();
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,1;2,3");
        s.handle(&mut svc, "LOAD S2 2 5,1;6,3");
        assert_eq!(
            one(&mut s, &mut svc, "SET max_rows=2 timeout_ms=60000"),
            "ok set max_rows=2 timeout_ms=60000"
        );
        let out = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z)");
        assert_eq!(out, "err limit max_rows exceeded");
        // Per-query limit=0 overrides the default back to unlimited.
        let out = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z) limit=0");
        assert!(out.starts_with("ok answers=3 "), "{out}");
        // SET ...=0 clears the default.
        assert_eq!(one(&mut s, &mut svc, "SET max_rows=0"), "ok set max_rows=0");
        let out = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z)");
        assert!(out.starts_with("ok answers=3 "), "{out}");
        // Group caps apply to aggregate heads.
        one(&mut s, &mut svc, "SET max_groups=1");
        let out = one(&mut s, &mut svc, "QUERY Q(z; count) :- S1(x,z), S2(y,z)");
        assert_eq!(out, "err limit max_groups exceeded");
        // Bad SET lines are rejected without touching anything.
        assert!(one(&mut s, &mut svc, "SET").starts_with("err SET needs"));
        assert!(one(&mut s, &mut svc, "SET frobs=1").starts_with("err SET has no key"));
        assert!(one(&mut s, &mut svc, "SET max_rows=abc").starts_with("err SET max_rows="));
        assert!(one(&mut s, &mut svc, "SET max_rows").starts_with("err SET expects key=value"));
    }

    #[test]
    fn protocol_errors() {
        let mut svc = service();
        let mut s = Session::new();
        assert!(one(&mut s, &mut svc, "FROB x").starts_with("err unknown command"));
        assert!(one(&mut s, &mut svc, "LOAD S1").starts_with("err LOAD needs"));
        assert!(one(&mut s, &mut svc, "LOAD S1 two").starts_with("err LOAD needs"));
        assert!(one(&mut s, &mut svc, "LOAD S1 2 1,2,3").starts_with("err tuple 1 has 3 values"));
        assert!(one(&mut s, &mut svc, "LOAD S1 2 1,x").starts_with("err tuple 1 has non-integer"));
        assert!(one(&mut s, &mut svc, "APPEND Nope 1,2").starts_with("err relation `Nope`"));
        assert!(one(&mut s, &mut svc, "QUERY").starts_with("err QUERY needs"));
        assert!(one(&mut s, &mut svc, "QUERY S1(x,").starts_with("err cannot parse query"));
        assert!(one(&mut s, &mut svc, "QUERY S1(x,z) p=zero").starts_with("err p="));
        s.handle(&mut svc, "LOAD S1 2 1000,0");
        assert!(one(&mut s, &mut svc, "LOAD S2 2 9999,0").starts_with("err value 9999"));
        assert!(one(&mut s, &mut svc, "QUERY S1(x,z) algo=quantum")
            .starts_with("err unknown algorithm"));
    }
}
