//! The untraced end-to-end run: rounds of closed-loop clients against a
//! fresh server process each, every reply checked against the expectations
//! the in-process replay recorded.

use crate::client::{parse_stats, Conn, Reply, Server, ServerStats, Status};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::workloads::{Cmd, Rendered, SeedSchedule, Workload};
use std::borrow::Cow;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Rounds per run. Each is a fresh server: `setup_s` is the best of three
/// set-ups and `peak_rss_mb` the median of three peaks.
pub const ROUNDS: u32 = 3;

/// Cycles in the windows the timing metrics are read from (see
/// [`best_over_windows`]); a multiple of every workload's period.
pub const WINDOW_CYCLES: usize = 8;

/// A server still running this long after its round began is killed.
const ROUND_DEADLINE: Duration = Duration::from_secs(120);

/// How long a round's timed phase lasts: a time box for the end-to-end
/// metrics, a fixed number of cycles for the traced run, whose counters
/// must repeat exactly for a seed. Either way only whole periods run.
#[derive(Clone, Copy)]
pub enum Phase {
    For(Duration),
    Cycles(usize),
}

/// What the reply to one scripted command must look like.
#[derive(Clone, Debug, PartialEq)]
pub struct Expect {
    /// `answers=N` / `groups=N` for a query, the text after `ok ` for
    /// anything else.
    pub head: String,
    pub row_lines: u64,
    pub row_checksum: u64,
}

impl Expect {
    pub fn of(reply: &Reply) -> Expect {
        let head = match &reply.status {
            Status::Query {
                aggregate: true,
                count,
                ..
            } => format!("groups={count}"),
            Status::Query { count, .. } => format!("answers={count}"),
            Status::Ok(text) => text.clone(),
            Status::Err { class, message } => format!("err {class} {message}"),
        };
        Expect {
            head,
            row_lines: reply.row_lines,
            row_checksum: reply.row_checksum,
        }
    }
}

/// `expect[c][k]`: command `k` of cycle `c` of the period.
pub type Expectations = Vec<Vec<Expect>>;

/// One timed cycle as its client saw it.
struct Cycle {
    ms: f64,
    commands: u64,
    reply_bytes: u64,
    reply_lines: u64,
}

/// One client's timed phase in one round.
#[derive(Default)]
struct ClientRun {
    /// Server CPU time used when this client's timed phase began and ended.
    cpu_ms: (f64, f64),
    cycles: Vec<Cycle>,
    /// Sum and count of `load=` over the queries of the first
    /// [`WINDOW_CYCLES`] timed cycles. A fixed set of requests, so the mean
    /// is exact for a seed however many cycles the time box admits —
    /// `plan_miss` plans every request under another hash seed.
    load_sum: u64,
    load_n: u64,
    attempted: u64,
    failed: u64,
}

/// One client's view of the script: which command of a cycle it starts at.
struct Client<'a> {
    w: &'a Workload,
    lines: &'a Rendered,
    expect: &'a Expectations,
    seeds: SeedSchedule,
    rotate: usize,
    run: ClientRun,
}

impl Client<'_> {
    /// Run cycle `index` (counted from the start of the round), checking
    /// every reply. `Err` means the connection is gone.
    fn cycle(&mut self, conn: &mut Conn, index: usize, timed: bool) -> Result<(), String> {
        let c = index % self.w.period.len();
        let script = &self.w.period[c];
        let started = Instant::now();
        let (mut reply_bytes, mut reply_lines) = (0, 0);
        for step in 0..script.len() {
            let k = (step + self.rotate) % script.len();
            let cmd = &script[k];
            let line = match &self.lines.period[c][k] {
                Some(line) => Cow::Borrowed(line.as_str()),
                None => Cow::Owned(self.w.line(cmd, self.seeds.for_cmd(cmd))),
            };
            let framed = matches!(cmd, Cmd::Query { rows: true, .. });
            self.run.attempted += 1;
            let reply = match conn.roundtrip(&line, framed) {
                Ok(r) => r,
                Err(e) => {
                    // The rest of this cycle can no longer be answered.
                    let rest = (script.len() - step - 1) as u64;
                    self.run.attempted += rest;
                    self.run.failed += rest + 1;
                    return Err(e);
                }
            };
            if Expect::of(&reply) != self.expect[c][k] {
                self.run.failed += 1;
                eprintln!(
                    "mpcbench: wrong reply to `{}`: got {:?}, expected {:?}",
                    &line[..line.len().min(80)],
                    Expect::of(&reply),
                    self.expect[c][k]
                );
            }
            reply_bytes += reply.bytes;
            reply_lines += reply.lines;
            let counts_for_load = timed && self.run.cycles.len() < WINDOW_CYCLES;
            if let (true, Status::Query { load_bits, .. }) = (counts_for_load, &reply.status) {
                self.run.load_sum += load_bits;
                self.run.load_n += 1;
            }
        }
        if timed {
            self.run.cycles.push(Cycle {
                ms: started.elapsed().as_secs_f64() * 1e3,
                commands: script.len() as u64,
                reply_bytes,
                reply_lines,
            });
        }
        Ok(())
    }
}

/// Everything one round measured.
struct Round {
    setup_s: f64,
    clients: Vec<ClientRun>,
    peak_rss_mib: f64,
    stats: ServerStats,
    load_failures: u64,
}

fn run_round(
    w: &Workload,
    lines: &Rendered,
    expect: &Expectations,
    server_bin: &Path,
    phase: Phase,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut server = Server::spawn(server_bin, w.domain, w.tcp, ROUND_DEADLINE)?;
    let mut conns: Vec<Conn> = if w.tcp {
        vec![server.connect()?, server.connect()?]
    } else {
        vec![server.take_stdio()]
    };
    let mut load_failures = 0;
    for (rel, line) in lines.loads.iter().enumerate() {
        let reply = conns[0].roundtrip(line, false)?;
        let want = format!(
            "loaded {} arity=2 tuples={}",
            w.relations[rel].name,
            w.relations[rel].flat.len() / 2
        );
        if reply.status != Status::Ok(want) {
            load_failures += 1;
        }
    }
    let probe = server.probe();
    let barrier = Barrier::new(conns.len());
    let mut setup_s = 0.0;
    let mut clients = Vec::new();
    let mut lost = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client {
                        w,
                        lines,
                        expect,
                        seeds: SeedSchedule::new(),
                        // The second client starts two commands into the cycle.
                        rotate: 2 * i,
                        run: ClientRun::default(),
                    };
                    let mut index = 0;
                    let mut outcome = Ok(());
                    while index < w.warmup_cycles() && outcome.is_ok() {
                        outcome = client.cycle(conn, index, false);
                        index += 1;
                    }
                    // Both clients leave warm-up together; the leader's
                    // clock reading closes set-up.
                    let leader = barrier.wait().is_leader();
                    let setup_s = t0.elapsed().as_secs_f64();
                    let cpu_at_start = probe.cpu_ms();
                    let start = Instant::now();
                    let more = |index: usize| match phase {
                        Phase::For(d) => start.elapsed() < d,
                        Phase::Cycles(n) => index < w.warmup_cycles() + n,
                    };
                    while outcome.is_ok() && more(index) {
                        for _ in 0..w.period.len() {
                            outcome = outcome.and_then(|()| client.cycle(conn, index, true));
                            index += 1;
                        }
                    }
                    match (cpu_at_start, probe.cpu_ms()) {
                        (Ok(start), Ok(end)) => client.run.cpu_ms = (start, end),
                        (Err(e), _) | (_, Err(e)) => outcome = outcome.and(Err(e)),
                    }
                    (client.run, outcome, leader.then_some(setup_s))
                })
            })
            .collect();
        for handle in handles {
            let (run, outcome, closed) = handle.join().expect("client thread");
            if let Some(s) = closed {
                setup_s = s;
            }
            if let Err(e) = outcome {
                lost = Some(e);
            }
            clients.push(run);
        }
    });
    if let Some(e) = lost {
        // Dropping the server kills it; the failures are already tallied.
        eprintln!("mpcbench: round abandoned: {e}");
        return Ok(Round {
            setup_s,
            clients,
            peak_rss_mib: 0.0,
            stats: ServerStats::default(),
            load_failures,
        });
    }
    let peak_rss_mib = probe.peak_rss_mib()?;
    conns[0]
        .send("STATS")
        .map_err(|e| format!("write failed: {e}"))?;
    let stats_reply = conns[0].read_reply(true, true)?;
    let stats = match &stats_reply.status {
        Status::Ok(text) => parse_stats(text, &stats_reply.kept)?,
        other => return Err(format!("unexpected STATS reply {other:?}")),
    };
    // A TCP server stops only once every other session has ended.
    conns.truncate(1);
    server.shutdown(&mut conns[0])?;
    Ok(Round {
        setup_s,
        clients,
        peak_rss_mib,
        stats,
        load_failures,
    })
}

/// The timings of one stretch of consecutive cycles of one client — or,
/// as [`best_over_windows`] returns it, the best of each over all stretches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timings {
    pub cycle_p50_ms: f64,
    /// Nearest rank: with eight cycles, the slowest of them.
    pub cycle_p90_ms: f64,
    /// Commands this client sent in the window ÷ the window's wall-clock.
    pub client_qps: f64,
}

/// Each timing at its best over all *windows* of a run: the stretches of
/// `len` consecutive timed cycles of one client that start on a period
/// boundary.
///
/// The sandbox shares its host, and neighbours slow it by 10–50 % for
/// seconds to minutes at a time. That noise only ever adds time, so the
/// stretch it touched least is the best estimate of what the program
/// itself costs: over ten seeds in a noisy hour the median over all cycles
/// moved by 6–14 % and their p90 by 10–26 %, the best eight-cycle window's
/// by 3–7 % and 4–6 %. Every metric picks its own window, because a
/// stretch with a quiet median can still hold one disturbed cycle. When no
/// client completed `len` cycles in a round, the longest whole-period
/// prefix of the longest series stands in.
fn best_over_windows(series: &[&[Cycle]], period: usize, len: usize) -> Timings {
    let longest = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let len = len.min(longest / period * period).max(1);
    let mut best = Timings {
        cycle_p50_ms: f64::INFINITY,
        cycle_p90_ms: f64::INFINITY,
        client_qps: 0.0,
    };
    for cycles in series {
        for start in (0..cycles.len().saturating_sub(len - 1)).step_by(period) {
            let window = &cycles[start..start + len];
            let ms: Vec<f64> = window.iter().map(|c| c.ms).collect();
            let commands = window.iter().map(|c| c.commands).sum::<u64>() as f64;
            best.cycle_p50_ms = best.cycle_p50_ms.min(median(&ms));
            best.cycle_p90_ms = best.cycle_p90_ms.min(percentile(&ms, 90));
            best.client_qps = best
                .client_qps
                .max(commands / (ms.iter().sum::<f64>() / 1e3));
        }
    }
    best
}

/// The result of a run's rounds.
pub struct E2e {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub qps: f64,
    pub cycle_p50_ms: f64,
    pub cycle_p90_ms: f64,
    pub load_bits: f64,
    pub peak_rss_mib: f64,
    pub server_cpu_ms_per_op: f64,
    /// Counters of the last round (every round runs the same script).
    pub stats: ServerStats,
    pub reply_bytes_per_cycle: f64,
    pub reply_lines_per_cycle: f64,
}

/// Run `rounds` rounds of `phase` each.
pub fn run(
    w: &Workload,
    expect: &Expectations,
    server_bin: &Path,
    phase: Phase,
    rounds: u32,
) -> Result<E2e, String> {
    let lines = w.rendered();
    let mut all = Vec::new();
    for i in 0..rounds {
        let r = run_round(w, &lines, expect, server_bin, phase)?;
        eprintln!(
            "mpcbench: {} round {i}: setup {:.3} s, {} cycles, peak rss {:.1} MiB",
            w.name,
            r.setup_s,
            r.clients.iter().map(|c| c.cycles.len()).sum::<usize>(),
            r.peak_rss_mib
        );
        all.push(r);
    }
    let runs = || all.iter().flat_map(|r| &r.clients);
    let every = |f: fn(&Cycle) -> f64| -> Vec<f64> {
        runs().flat_map(|c| c.cycles.iter().map(f)).collect()
    };
    let cycles_ms = every(|c| c.ms);
    if cycles_ms.is_empty() {
        return Err("no cycle completed in the timed phase".to_string());
    }
    let series: Vec<&[Cycle]> = runs().map(|c| c.cycles.as_slice()).collect();
    let quiet = best_over_windows(&series, w.period.len(), WINDOW_CYCLES);
    // What a client saw on this host over the whole run, at the highest
    // percentile that still has ten samples beyond it.
    let tail = highest_supported_percentile(cycles_ms.len()).unwrap_or(50);
    eprintln!(
        "mpcbench: {}: {} timed cycles, over all of them p50 {:.2} ms, p{tail} {:.2} ms; \
         best window of {WINDOW_CYCLES}: p50 {:.2} ms, p90 {:.2} ms",
        w.name,
        cycles_ms.len(),
        median(&cycles_ms),
        percentile(&cycles_ms, tail),
        quiet.cycle_p50_ms,
        quiet.cycle_p90_ms
    );
    // Clients of one round run the same loop side by side: the server did
    // `clients` times one client's commands in the window.
    let side_by_side = all[0].clients.len() as f64;
    // All clients of a round read the same process-wide clock.
    let cpu_ms: f64 = all
        .iter()
        .map(|r| {
            let ends = r.clients.iter().map(|c| c.cpu_ms.1);
            let starts = r.clients.iter().map(|c| c.cpu_ms.0);
            ends.fold(0.0, f64::max) - starts.fold(f64::INFINITY, f64::min)
        })
        .sum();
    let commands: u64 = runs().flat_map(|c| &c.cycles).map(|c| c.commands).sum();
    let load_n: u64 = runs().map(|c| c.load_n).sum();
    let per_round = |f: fn(&Round) -> f64| all.iter().map(f).collect::<Vec<_>>();
    Ok(E2e {
        attempted: runs().map(|c| c.attempted).sum::<u64>()
            + (all.len() * lines.loads.len()) as u64,
        failed: runs().map(|c| c.failed).sum::<u64>()
            + all.iter().map(|r| r.load_failures).sum::<u64>(),
        // Host noise only ever lengthens a set-up, so as with the windows
        // the least disturbed one counts: over ten seeds the median of the
        // three moved by 28 %, their minimum by 5 %.
        setup_s: per_round(|r| r.setup_s)
            .into_iter()
            .fold(f64::INFINITY, f64::min),
        qps: quiet.client_qps * side_by_side,
        cycle_p50_ms: quiet.cycle_p50_ms,
        cycle_p90_ms: quiet.cycle_p90_ms,
        load_bits: runs().map(|c| c.load_sum).sum::<u64>() as f64 / load_n.max(1) as f64,
        peak_rss_mib: median(&per_round(|r| r.peak_rss_mib)),
        server_cpu_ms_per_op: cpu_ms / commands as f64,
        stats: all.last().expect("at least one round").stats,
        reply_bytes_per_cycle: median(&every(|c| c.reply_bytes as f64)),
        reply_lines_per_cycle: median(&every(|c| c.reply_lines as f64)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycles(ms: &[f64]) -> Vec<Cycle> {
        ms.iter()
            .map(|&ms| Cycle {
                ms,
                commands: 4,
                reply_bytes: 0,
                reply_lines: 0,
            })
            .collect()
    }

    #[test]
    fn each_timing_is_its_best_over_all_windows() {
        // A disturbed stretch, a quiet one with a single hiccup, noise again.
        let noisy = cycles(&[
            90.0, 80.0, 85.0, 70.0, 50.0, 52.0, 51.0, 66.0, 50.0, 75.0, 95.0,
        ]);
        let slower = cycles(&[60.0; 6]);
        let t = best_over_windows(&[&noisy, &slower], 1, 4);
        // Lowest median: [50, 52, 51, 66] and its neighbours reach 51.5 ...
        assert_eq!(t.cycle_p50_ms, 51.5);
        // ... but every window around the hiccup has it as its slowest
        // cycle; the steadier client supplies the best tail.
        assert_eq!(t.cycle_p90_ms, 60.0);
        // Fastest stretch: [52, 51, 66, 50] in 219 ms, four commands a cycle.
        assert!((t.client_qps - 16.0 / 0.219).abs() < 1e-9);
    }

    #[test]
    fn windows_start_on_period_boundaries() {
        // Period 2: light, heavy, light, heavy, ... with a quiet middle.
        let c = cycles(&[12.0, 30.0, 10.0, 20.0, 10.0, 20.0, 12.0, 30.0]);
        let t = best_over_windows(&[&c], 2, 4);
        assert_eq!((t.cycle_p50_ms, t.cycle_p90_ms), (15.0, 20.0));
    }

    #[test]
    fn a_short_series_stands_in_with_its_whole_period_prefix() {
        let c = cycles(&[10.0, 20.0, 30.0]);
        let t = best_over_windows(&[&c], 2, 16);
        assert_eq!(t.cycle_p50_ms, 15.0);
    }
}
