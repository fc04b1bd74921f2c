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
//! SET [timeout_ms=N] [max_rows=N] [max_groups=N]   service-wide defaults
//!                                          (shared by every session on a TCP front)
//! STATS                                    counters + catalog, then `end`
//! SHUTDOWN                                 `ok bye`, session done
//! ```
//!
//! `QUERY` takes a conjunctive-query body (`S1(x,z), S2(y,z)`, optionally
//! double-quoted) followed by options, each at most once (a repeat is
//! `err parse <key>= given twice`); with `rows` the answer tuples
//! follow the `ok` line, one per line, terminated by `end`. Only `rows`
//! materializes the answers: without it, `answers=N` is counted on each
//! server of a HyperCube or skew-join plan, which produces every answer
//! on one server only, and no answer set is built; a `general` plan
//! repeats answers across servers and materializes them to count. The body may
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
//! (recognized capability limit), `err internal ...` (a planner or worker
//! panic, contained — the session and service survive, and the next query
//! on the same connection runs normally). `p=` is refused outside
//! `1..=`[`MAX_SERVERS`] when the line is parsed. The TCP front end
//! additionally sheds clients past its `--max-clients` cap with
//! `err overloaded ...`.
//!
//! **Reply framing.** There is one renderer and one serve loop. Every
//! reply — status line, answer rows, group lines, `STATS`, `err` — is
//! appended as newline-terminated text to one reusable buffer
//! (`Session::handle_into`, [`render_outcome`]); [`Session::handle`] is
//! the same path split into lines. [`serve`] reads a command, holds the
//! service lock only to apply it, renders its whole reply *before* writing
//! any of it (so a panic or budget trip while the rows are materialized is
//! one `err` line, never a torn reply), and hands it to the transport in
//! one `write_all` + `flush`: a client sees each reply arrive as one unit,
//! on stdio and on TCP alike.
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
//! ```

use crate::engine::{Algorithm, MAX_SERVERS};
use crate::service::{
    run_contained, PreparedQuery, QuerySpec, Service, ServiceError, ServiceOutcome,
};
use mpc_data::relation::Relation;
use mpc_query::parse_aggregate_query;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::ops::DerefMut;
use std::sync::{Mutex, PoisonError};

/// Append one formatted, newline-terminated line to a reply buffer
/// (formatting into a `String` cannot fail).
macro_rules! reply {
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

/// Per-connection protocol state: the shutdown flag. All catalog/cache
/// state lives in the [`Service`], which many sessions may share.
#[derive(Default)]
pub struct Session {
    done: bool,
}

/// A command line parsed without the service: what
/// [`Session::handle_into`] applies to it under its lock.
enum Command<'a> {
    Load(&'a str, Relation),
    Append(&'a str, &'a str),
    Query(QuerySpec, bool),
    Set(Vec<(&'a str, u64, Setter)>),
    Stats,
}

impl Session {
    /// A fresh session.
    pub fn new() -> Session {
        Session::default()
    }

    /// True once the client sent `SHUTDOWN`.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Process one protocol line against `service`, returning the
    /// response lines: `Session::handle_into` split at its newlines.
    pub fn handle(&mut self, service: &mut Service, line: &str) -> Vec<String> {
        let mut out = String::new();
        self.handle_into(move || service, line, &mut out);
        out.lines().map(str::to_owned).collect()
    }

    /// Process one protocol line, appending its reply to `out` (a reused
    /// `out` renders even a large `rows` reply without allocating), in
    /// three phases: parse the line without the service; apply it to the
    /// one `service()` hands out (on a server, a lock guard, dropped as
    /// this phase ends); then execute and render a `QUERY` without it.
    pub(crate) fn handle_into<S: DerefMut<Target = Service>>(
        &mut self,
        service: impl FnOnce() -> S,
        line: &str,
        out: &mut String,
    ) {
        let applied = (self.parse(line, out)).and_then(|cmd| apply(cmd, &mut service(), out));
        if let Some((query, want_rows)) = applied {
            match query.run(want_rows) {
                Ok(outcome) => render_outcome(out, &outcome, want_rows),
                Err(e) => render_err(out, &e),
            }
        }
    }

    /// Phase 1: parse a line. A line that needs no service — blank, a
    /// comment, `SHUTDOWN`, or one that does not parse — is answered here.
    fn parse<'a>(&mut self, line: &'a str, out: &mut String) -> Option<Command<'a>> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let (keyword, rest) = match line.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        let parsed = match keyword.to_ascii_uppercase().as_str() {
            "LOAD" => parse_load(rest),
            "APPEND" => match rest.split_once(char::is_whitespace) {
                Some((name, rows)) => Ok(Command::Append(name, rows)),
                None => Err("APPEND needs: APPEND <rel> <rows>".to_string()),
            },
            "QUERY" => parse_query_line(rest).map_err(|e| e.to_string()),
            "SET" => parse_set(rest),
            "STATS" => Ok(Command::Stats),
            "SHUTDOWN" => {
                self.done = true;
                reply!(out, "ok bye");
                return None;
            }
            other => Err(format!("unknown command `{other}`")),
        };
        parsed.map_err(|e| reply!(out, "err {e}")).ok()
    }
}

/// Phase 2: apply a parsed command to the service. A `QUERY` is admitted
/// and planned, and comes back to run once the service is released.
fn apply(cmd: Command, service: &mut Service, out: &mut String) -> Option<(PreparedQuery, bool)> {
    match cmd {
        Command::Load(name, rel) => {
            let arity = rel.arity();
            match service.load(rel) {
                Ok(len) => reply!(out, "ok loaded {name} arity={arity} tuples={len}"),
                Err(e) => reply!(out, "err {e}"),
            }
        }
        Command::Append(name, rows) => cmd_append(service, name, rows, out),
        Command::Query(spec, want_rows) => match service.prepare(&spec) {
            Ok(query) => return Some((query, want_rows)),
            Err(e) => render_err(out, &e),
        },
        Command::Set(settings) => {
            out.push_str("ok set");
            for (key, n, set) in settings {
                set(service, (n != 0).then_some(n));
                let _ = write!(out, " {key}={n}");
            }
            out.push('\n');
        }
        Command::Stats => cmd_stats(service, out),
    }
    None
}

fn parse_load(rest: &str) -> Result<Command<'_>, String> {
    let mut parts = rest.splitn(3, char::is_whitespace);
    let name =
        (parts.next().filter(|s| !s.is_empty())).ok_or("LOAD needs: LOAD <rel> <arity> [rows]")?;
    let arity = match parts.next().and_then(|a| a.parse().ok()) {
        Some(a) if a > 0 => a,
        _ => return Err("LOAD needs a positive integer arity".to_string()),
    };
    let flat = parse_rows(parts.next().unwrap_or(""), arity)?;
    Ok(Command::Load(name, Relation::from_flat(name, arity, flat)))
}

/// `APPEND`'s rows are parsed here, under the lock, against the arity the
/// catalog gives.
fn cmd_append(service: &mut Service, name: &str, rows: &str, out: &mut String) {
    let arity = match service.relation(name) {
        Some(rel) => rel.arity(),
        None => return reply!(out, "err relation `{name}` is not loaded"),
    };
    let flat = match parse_rows(rows, arity) {
        Ok(flat) if !flat.is_empty() => flat,
        Ok(_) => return reply!(out, "err APPEND needs at least one tuple"),
        Err(e) => return reply!(out, "err {e}"),
    };
    let appended = flat.len() / arity;
    match service.append(name, &flat) {
        Ok(len) => reply!(out, "ok appended {name} +{appended} tuples={len}"),
        Err(e) => reply!(out, "err {e}"),
    }
}

/// `SET key=value ...`: default query budgets for the service (shared by
/// every session on a TCP front). `0` clears a default back to unlimited;
/// each key at most once. Every pair is parsed before any is installed: a
/// bad or repeated pair leaves every default as it was.
fn parse_set(rest: &str) -> Result<Command<'_>, String> {
    if rest.is_empty() {
        return Err("SET needs: SET [timeout_ms=N] [max_rows=N] [max_groups=N]".to_string());
    }
    let mut settings: Vec<(&str, u64, Setter)> = Vec::new();
    for pair in rest.split_whitespace() {
        let setting = parse_setting(pair)?;
        if settings.iter().any(|(key, ..)| *key == setting.0) {
            return Err(format!("SET {}= given twice", setting.0));
        }
        settings.push(setting);
    }
    Ok(Command::Set(settings))
}

fn cmd_stats(service: &Service, out: &mut String) {
    let c = service.counters();
    reply!(
        out,
        "ok plans={} hits={} misses={} invalidations={} evictions={} relations={} mode={}",
        service.cached_plans(),
        c.hits,
        c.misses,
        c.invalidations,
        c.evictions,
        service.relation_infos().len(),
        service.stats_mode()
    );
    if let Some(t) = service.sketch_telemetry() {
        reply!(
            out,
            "sketch bytes={} capacity={} max_error={}",
            t.bytes,
            t.capacity,
            t.max_error
        );
    }
    for info in service.relation_infos() {
        reply!(
            out,
            "rel {} arity={} tuples={} tracked={}",
            info.name,
            info.arity,
            info.tuples,
            info.tracked_projections
        );
    }
    reply!(out, "end")
}

/// Installs one service default (`None` = unlimited).
type Setter = fn(&mut Service, Option<u64>);

/// Parse one `SET` pair: its key, its integer value (0 clears the
/// default) and the setter that installs it.
fn parse_setting(pair: &str) -> Result<(&str, u64, Setter), String> {
    let (key, value) = pair
        .split_once('=')
        .ok_or_else(|| format!("SET expects key=value, got `{pair}`"))?;
    let n = value
        .parse::<u64>()
        .map_err(|_| format!("SET {key}= expects an integer, got `{value}`"))?;
    let set: Setter = match key {
        "timeout_ms" => Service::set_default_timeout_ms,
        "max_rows" => Service::set_default_max_rows,
        "max_groups" => Service::set_default_max_groups,
        other => return Err(format!("SET has no key `{other}`")),
    };
    Ok((key, n, set))
}

/// Append one `err <cause>` line — the shape of every failure reply,
/// including the TCP front's `err overloaded` shed line.
pub fn render_err(out: &mut String, cause: &ServiceError) {
    reply!(out, "err {cause}")
}

/// Append one query outcome to `out`: the `ok` status line, plus the
/// answer tuples (or `key | value` group lines for aggregate heads) and an
/// `end` terminator when the client asked for rows. Only a `rows` reply
/// materializes the answers: rows are written straight from the outcome's
/// [`AnswerSet`](mpc_data::answers::AnswerSet) into the buffer, so a warm
/// buffer renders without allocating. Without `rows`, `answers=N` is
/// [`RunOutcome::answer_count`](crate::engine::RunOutcome::answer_count),
/// counted per server on every plan but `general`. Every plan the service
/// runs is one communication round, so the status line's `rounds=` field
/// is always `rounds=1`.
pub fn render_outcome(out: &mut String, outcome: &ServiceOutcome, want_rows: bool) {
    let run = outcome.run_outcome();
    if let Some(agg) = outcome.aggregate() {
        reply!(
            out,
            "ok groups={} algo={} cache={} rounds=1 load={} predicted={:.0}",
            agg.num_groups(),
            outcome.algorithm(),
            outcome.cache_status(),
            outcome.max_load_bits(),
            run.predicted_load_bits(),
        );
        if want_rows {
            // `Display` separates the group lines; the last one still
            // needs its terminator.
            if agg.num_groups() > 0 {
                reply!(out, "{agg}");
            }
            reply!(out, "end");
        }
        return;
    }
    // Containment extends to the lazy row materialization and the lazy
    // count: a worker panic while joining yields one `err` line, not a torn
    // reply — nothing of this outcome is in the buffer yet.
    let read = if want_rows {
        (outcome.try_answers()).map(|answers| (answers.len() as u64, Some(answers)))
    } else {
        run_contained(|| Ok((run.answer_count(), None)))
    };
    let (count, answers) = match read {
        Ok(read) => read,
        Err(e) => return render_err(out, &e),
    };
    reply!(
        out,
        "ok answers={count} algo={} cache={} rounds=1 load={} predicted={:.0}",
        outcome.algorithm(),
        outcome.cache_status(),
        outcome.max_load_bits(),
        run.predicted_load_bits(),
    );
    if let Some(answers) = answers {
        for row in answers.rows() {
            for (i, &v) in row.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                push_u64(out, v);
            }
            out.push('\n');
        }
        reply!(out, "end");
    }
}

/// Append `v` in decimal, digits written in place (the row loop's only
/// formatting; `fmt` machinery per cell is most of a `rows` render).
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// How a [`serve`] loop ended.
#[derive(Debug)]
pub struct ServeEnd {
    /// The client sent `SHUTDOWN` (on a shared front: stop the server).
    pub shutdown: bool,
    /// The first I/O error the session met, if any. A read error ends the
    /// session; a write error only mutes it.
    pub error: Option<io::Error>,
}

/// Line and reply buffers are reused across commands up to this capacity;
/// one past it (a bulk `LOAD`, a large `rows` reply) is released after
/// use, so a session's footprint does not ratchet up to its largest
/// command.
const RETAINED_BUFFER_BYTES: usize = 64 << 10;

/// Empty `buf` for the next command, keeping its allocation unless it
/// outgrew [`RETAINED_BUFFER_BYTES`].
fn recycle(buf: &mut String) {
    if buf.capacity() > RETAINED_BUFFER_BYTES {
        *buf = String::new();
    } else {
        buf.clear();
    }
}

/// Serve one session — the loop behind both `mpcskew serve` fronts: read
/// a line, render its whole reply into a buffer, then hand the reply to
/// `writer` in one `write_all` + `flush`. Empty replies (blank lines,
/// comments) write nothing. `service`'s lock covers only a command's apply
/// step (catalog, plan cache, ingest, planning on a miss): the line is
/// parsed before it (an `APPEND`'s rows under it, against the arity), and
/// a `QUERY`'s shuffle, local join, answer materialization and render run
/// after it, so one session's query does not hold up another's commands.
/// Stdio's one session never contends.
///
/// The loop ends at `SHUTDOWN`, end of input, or a read error. A write
/// error ends only the session's *output*: its commands keep being
/// consumed, so a client that vanished cannot swallow its own `SHUTDOWN`.
pub fn serve<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    service: &Mutex<Service>,
) -> ServeEnd {
    let mut session = Session::new();
    let mut line = String::new();
    let mut reply = String::new();
    let mut error = None;
    while !session.is_done() {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                error.get_or_insert(e);
                break;
            }
        }
        // Recover the lock even if another session's thread died while
        // holding it: the service's own containment boundary means the
        // state behind a poisoned mutex is still consistent.
        session.handle_into(
            || service.lock().unwrap_or_else(PoisonError::into_inner),
            &line,
            &mut reply,
        );
        // Only a write error leaves the loop running with `error` set.
        if !reply.is_empty() && error.is_none() {
            error = writer
                .write_all(reply.as_bytes())
                .and_then(|()| writer.flush())
                .err();
        }
        recycle(&mut line);
        recycle(&mut reply);
    }
    ServeEnd {
        shutdown: session.is_done(),
        error,
    }
}

/// Parse `v,v,..;v,v,..` into flat row-major data, validating row widths.
fn parse_rows(text: &str, arity: usize) -> Result<Vec<u64>, String> {
    let mut flat = Vec::new();
    for (tuple, row) in (1..).zip(text.split(';').map(str::trim)) {
        if row.is_empty() {
            continue;
        }
        let before = flat.len();
        for cell in row.split(',').map(str::trim) {
            let v = (cell.parse())
                .map_err(|_| format!("tuple {tuple} has non-integer value `{cell}`"))?;
            flat.push(v);
        }
        let width = flat.len() - before;
        if width != arity {
            return Err(format!(
                "tuple {tuple} has {width} values, expected arity {arity}"
            ));
        }
    }
    Ok(flat)
}

/// Split a `QUERY` line into the query body and trailing options. Options
/// are parsed right-to-left so the body itself may contain spaces without
/// quoting; each may be given once. Syntax problems come back as
/// [`ServiceError::Parse`] — the same typed vocabulary every other query
/// failure uses.
fn parse_query_line(rest: &str) -> Result<Command<'static>, ServiceError> {
    let parse_err = |msg: &str| ServiceError::Parse(msg.to_string());
    let int = |v: &str, expects: &str| v.parse::<u64>().map_err(|_| parse_err(expects));
    let mut body = rest.trim();
    let mut p = None;
    let mut seed = None;
    let mut timeout_ms = None;
    let mut limit = None;
    let mut algorithm = None;
    let mut want_rows = false;
    while let Some((head, tail)) = body.rsplit_once(char::is_whitespace) {
        let tail = tail.trim();
        if tail.eq_ignore_ascii_case("rows") {
            want_rows = true;
        } else if let Some(v) = tail.strip_prefix("p=") {
            let n = v
                .parse::<usize>()
                .map_err(|_| parse_err("p= expects an integer"))?;
            if n == 0 {
                return Err(parse_err("p= must be at least 1"));
            }
            if n > MAX_SERVERS {
                return Err(ServiceError::Parse(format!(
                    "p= must be at most {MAX_SERVERS}"
                )));
            }
            set_once(&mut p, "p", n)?;
        } else if let Some(v) = tail.strip_prefix("seed=") {
            set_once(&mut seed, "seed", int(v, "seed= expects an integer")?)?;
        } else if let Some(v) = tail.strip_prefix("timeout=") {
            let ms = int(v, "timeout= expects milliseconds")?;
            set_once(&mut timeout_ms, "timeout", ms)?;
        } else if let Some(v) = tail.strip_prefix("limit=") {
            set_once(&mut limit, "limit", int(v, "limit= expects an integer")?)?;
        } else if let Some(v) = tail.strip_prefix("algo=") {
            let algo = Algorithm::parse(v).map_err(ServiceError::Parse)?;
            set_once(&mut algorithm, "algo", algo)?;
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
    let spec = QuerySpec {
        query,
        p,
        seed,
        algorithm: algorithm.unwrap_or(Algorithm::Auto),
        aggregate,
        timeout_ms,
        limit,
    };
    Ok(Command::Query(spec, want_rows))
}

/// Fill one `QUERY` option's slot, refusing the option a second time
/// (the right-to-left parse would otherwise let the leftmost one win).
fn set_once<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), ServiceError> {
    match slot.replace(value) {
        None => Ok(()),
        Some(_) => Err(ServiceError::Parse(format!("parse {key}= given twice"))),
    }
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
    fn query_options_parse_from_the_right() {
        let mut svc = service();
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,1");
        s.handle(&mut svc, "LOAD S2 2 5,1");
        let out = one(
            &mut s,
            &mut svc,
            "QUERY \"S1(x,z), S2(y,z)\" p=2 seed=9 algo=hc",
        );
        assert!(out.starts_with("ok answers=2 algo=hc "), "{out}");
        // Same options without quotes.
        let out = one(
            &mut s,
            &mut svc,
            "QUERY S1(x,z), S2(y,z) p=2 seed=9 algo=hc",
        );
        assert!(out.starts_with("ok answers=2 algo=hc cache=hit"), "{out}");
        // Each option may be given once: a repeat is refused, not dropped.
        for (repeated, key) in [
            ("p=4 p=8", "p"),
            ("seed=1 rows seed=1", "seed"),
            ("algo=hc algo=general", "algo"),
            ("timeout=5 timeout=0", "timeout"),
            ("limit=1 p=2 limit=9", "limit"),
        ] {
            let line = format!("QUERY S1(x,z), S2(y,z) {repeated}");
            let out = one(&mut s, &mut svc, &line);
            assert_eq!(out, format!("err parse {key}= given twice"), "{line}");
        }
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
        // Pinned to a baseline's name the aggregate is an unknown
        // algorithm; pinned to the §4.2 algorithm it is refused.
        use crate::engine::AGGREGATE_NEEDS_PARTITIONING;
        let mut svc = service();
        let mut s = Session::new();
        s.handle(&mut svc, "LOAD S1 2 0,1;1,1");
        s.handle(&mut svc, "LOAD S2 2 5,1");
        let query = "QUERY \"Q(; count) :- S1(x,z), S2(y,z)\" algo=";
        let out = one(&mut s, &mut svc, &format!("{query}multi-round"));
        assert_eq!(out, "err unknown algorithm `multi-round`");
        let out = one(&mut s, &mut svc, &format!("{query}general"));
        assert_eq!(
            out,
            format!("err unsupported {AGGREGATE_NEEDS_PARTITIONING}")
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
        // A rejected line installs none of its pairs, not even the valid
        // ones before the bad one.
        let out = one(&mut s, &mut svc, "SET max_rows=1 max_groups=x");
        assert!(out.starts_with("err SET max_groups="), "{out}");
        let out = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z)");
        assert!(out.starts_with("ok answers=3 "), "{out}");
        // A key given twice is refused like a repeated QUERY option, and
        // neither value is installed.
        let out = one(&mut s, &mut svc, "SET max_rows=1 max_rows=0");
        assert_eq!(out, "err SET max_rows= given twice");
        let out = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z)");
        assert!(out.starts_with("ok answers=3 "), "{out}");
    }

    #[test]
    fn an_atom_wider_than_the_local_join_is_unsupported() {
        // 65 positions over 10 variables parse, but the local join tracks
        // at most 64 positions per atom: admission refuses the query and
        // the session keeps serving.
        let mut svc = service();
        let mut s = Session::new();
        let zeros = vec!["0"; 65].join(",");
        let out = one(&mut s, &mut svc, &format!("LOAD R 65 {zeros}"));
        assert_eq!(out, "ok loaded R arity=65 tuples=1");
        let vars: Vec<String> = (0..65).map(|i| format!("v{}", i % 10)).collect();
        let out = one(&mut s, &mut svc, &format!("QUERY R({})", vars.join(",")));
        assert_eq!(
            out,
            "err unsupported atom `R` has 65 positions; the local join supports at most 64"
        );
        s.handle(&mut svc, "LOAD S1 2 0,1;1,1;2,3");
        s.handle(&mut svc, "LOAD S2 2 5,1;6,3");
        let out = one(&mut s, &mut svc, "QUERY S1(x,z), S2(y,z)");
        assert!(out.starts_with("ok answers=3 "), "{out}");
    }

    #[test]
    fn protocol_errors() {
        let mut svc = service();
        let mut s = Session::new();
        assert!(one(&mut s, &mut svc, "FROB x").starts_with("err unknown command"));
        assert_eq!(
            one(&mut s, &mut svc, "BATCH"),
            "err unknown command `BATCH`"
        );
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

    /// What a [`serve`] writer saw, call by call.
    #[derive(Debug, PartialEq)]
    enum Io {
        Write(String),
        Flush,
    }

    /// A `Write` that accepts everything and records every call.
    #[derive(Default)]
    struct Recorder(Vec<Io>);

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let text = std::str::from_utf8(buf).expect("replies are UTF-8");
            self.0.push(Io::Write(text.to_string()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.0.push(Io::Flush);
            Ok(())
        }
    }

    /// `(v, 0)` for `v` in `0..n`: joined on column 1 with another of its
    /// kind, `n * n` answers.
    fn fan(n: u64) -> String {
        let rows: Vec<String> = (0..n).map(|v| format!("{v},0")).collect();
        rows.join(";")
    }

    #[test]
    fn serve_writes_each_reply_once_and_matches_handle() {
        let script = [
            format!("LOAD A 2 {}", fan(100)),
            format!("LOAD B 2 {}", fan(100)),
            "QUERY A(x,z), B(y,z)".to_string(),
            "QUERY A(x,z), B(y,z) rows".to_string(),
            "QUERY Q(z; count, sum(x)) :- A(x,z), B(y,z) rows".to_string(),
            String::new(),
            "# a comment between commands".to_string(),
            "QUERY A(x,z), B(y,z) limit=5 rows".to_string(),
            "QUERY Q(x; count) :- A(x,z), B(y,z) rows".to_string(),
            "STATS".to_string(),
            "FROB".to_string(),
            "SET max_rows=7 frobs=1".to_string(),
            "SHUTDOWN".to_string(),
            "QUERY A(x,z), B(y,z)".to_string(), // after SHUTDOWN: never read
        ];

        // The adapter: one `Vec<String>` per command.
        let mut svc = service();
        let mut session = Session::new();
        let mut expected = Vec::new();
        for line in &script[..script.len() - 1] {
            let lines = session.handle(&mut svc, line);
            if !lines.is_empty() {
                expected.push(Io::Write(lines.join("\n") + "\n"));
                expected.push(Io::Flush);
            }
        }
        let big = match &expected[6] {
            Io::Write(reply) => reply,
            other => panic!("expected the rows reply, got {other:?}"),
        };
        assert_eq!(big.lines().count(), 10_002, "status + 10 000 rows + end");
        assert!(
            big.ends_with("\n99 0 98\n99 0 99\nend\n"),
            "{:?}",
            &big[big.len() - 40..]
        );

        // The buffer path, through the shared loop: exactly one write and
        // one flush per non-empty reply, the same bytes.
        let mut recorder = Recorder::default();
        let end = serve(
            io::Cursor::new(script.join("\n")),
            &mut recorder,
            &Mutex::new(service()),
        );
        assert!(end.shutdown);
        assert!(end.error.is_none(), "{:?}", end.error);
        assert_eq!(recorder.0.len(), expected.len());
        for (i, (got, want)) in recorder.0.iter().zip(&expected).enumerate() {
            assert!(got == want, "call {i}: got {got:?}, want {want:?}");
        }
    }

    #[test]
    fn row_cap_trip_is_one_err_line_and_nothing_before_it() {
        let script = format!(
            "LOAD A 2 {0}\nLOAD B 2 {0}\nQUERY A(x,z), B(y,z) limit=99 rows\n\
             SET max_rows=99\nQUERY A(x,z), B(y,z) rows\n",
            fan(10)
        );
        let mut recorder = Recorder::default();
        let end = serve(
            io::Cursor::new(script),
            &mut recorder,
            &Mutex::new(service()),
        );
        assert!(!end.shutdown, "input ended without SHUTDOWN");
        let writes: Vec<&str> = recorder
            .0
            .iter()
            .filter_map(|io| match io {
                Io::Write(reply) => Some(reply.as_str()),
                Io::Flush => None,
            })
            .collect();
        assert_eq!(
            writes[2..],
            [
                "err limit max_rows exceeded\n",
                "ok set max_rows=99\n",
                "err limit max_rows exceeded\n"
            ]
        );
    }

    #[test]
    fn write_error_mutes_the_session_but_not_its_commands() {
        /// Accepts one reply, then fails like a vanished peer.
        struct Vanishing(usize);
        impl Write for Vanishing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                if self.0 > 1 {
                    return Err(io::ErrorKind::BrokenPipe.into());
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let svc = Mutex::new(service());
        let mut writer = Vanishing(0);
        let end = serve(
            io::Cursor::new("LOAD S1 2 0,1\nSTATS\nLOAD S2 2 5,1\nSHUTDOWN\n"),
            &mut writer,
            &svc,
        );
        // The second write failed; nothing was attempted after it, yet the
        // LOAD and the SHUTDOWN behind it were still executed.
        assert_eq!(writer.0, 2);
        assert_eq!(end.error.map(|e| e.kind()), Some(io::ErrorKind::BrokenPipe));
        assert!(end.shutdown);
        assert!(svc.lock().unwrap().relation("S2").is_some());
    }

    #[test]
    fn buffers_do_not_retain_a_large_command() {
        let mut small = String::with_capacity(128);
        small.push_str("ok bye\n");
        recycle(&mut small);
        assert!(small.is_empty());
        assert!(small.capacity() >= 128, "small buffers are reused");
        let mut big = String::with_capacity(RETAINED_BUFFER_BYTES + 1);
        big.push('x');
        recycle(&mut big);
        assert_eq!(big.capacity(), 0, "a large buffer is released");
    }
}
