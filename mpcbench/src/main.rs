//! `mpcbench`: the end-to-end benchmark of `mpcskew serve`.
//!
//! ```text
//! mpcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mpcbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!          [--repeat <N>] [--smoke]
//! ```
//!
//! The first form is one run of one workload and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The second
//! form runs every workload (or the named one) `--repeat` times on seeds
//! `seed, seed+1, ..` and prints one JSON document with each metric's unit,
//! direction, bound, values, median and spread. See `README.md` beside this
//! package's manifest for what each workload and metric is for.

mod alloc;
mod client;
mod e2e;
mod gen;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use e2e::Phase;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`: the timed phase of one run.
const RUN_SECONDS: f64 = 15.0;

struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the service sees, with the share of the parent's median
/// each may worsen by before a change counts as a regression. The timing
/// bounds are the widest the contract allows: the host's noise reaches
/// 10-50 % for minutes at a time, and even read from the best window a
/// timing moved by up to 7 % over ten seeds (README.md has the numbers).
/// `load_bits` is exact for a seed and moves by up to 5 % between seeds.
/// `server_cpu_ms_per_op` is a per-layer metric: the kernel samples CPU time
/// at 10 ms ticks, and on `rows_out` the server's cost per written line
/// falls into one of two modes 25 % apart, depending on whether the client
/// is awake when the pipe is written — it cannot hold a bound.
const END_TO_END: [(Metric, f64); 6] = [
    (metric("setup_s", "s", "lower"), 0.25),
    (metric("qps", "commands/s", "higher"), 0.25),
    (metric("cycle_p50_ms", "ms", "lower"), 0.25),
    (metric("cycle_p90_ms", "ms", "lower"), 0.25),
    (metric("load_bits", "bits", "lower"), 0.15),
    (metric("peak_rss_mb", "MiB", "lower"), 0.25),
];

/// One layer each; the layer is the module name before the dot. Times are
/// medians per cycle. README.md says which end-to-end metric each should
/// move, on which workload.
const PER_LAYER: [Metric; 39] = [
    metric("query.parse_ms", "ms", "lower"),
    metric("query.pk_ms", "ms", "lower"),
    metric("lp.share_lp_ms", "ms", "lower"),
    metric("stats.sketch_build_ms", "ms", "lower"),
    metric("stats.append_ms", "ms", "lower"),
    metric("core.plan_ms", "ms", "lower"),
    metric("sim.shuffle_ms", "ms", "lower"),
    metric("data.local_join_ms", "ms", "lower"),
    metric("core.aggregate_fold_ms", "ms", "lower"),
    metric("service.query_ms", "ms", "lower"),
    metric("service.append_ms", "ms", "lower"),
    metric("service.load_ms", "ms", "lower"),
    metric("wire.handle_ms", "ms", "lower"),
    metric("wire.parse_render_ms", "ms", "lower"),
    metric("data.join_bindings", "count", "lower"),
    metric("data.rows_materialized", "count", "lower"),
    metric("stats.scan_bytes", "bytes", "lower"),
    metric("alloc.count", "count", "lower"),
    metric("sim.load_max_bits", "bits", "lower"),
    metric("sim.load_total_bits", "bits", "lower"),
    metric("sim.replication_rate", "ratio", "lower"),
    metric("sim.load_imbalance", "ratio", "lower"),
    metric("core.predicted_bits", "bits", "lower"),
    metric("core.lower_bound_bits", "bits", "lower"),
    metric("core.load_over_lower", "ratio", "lower"),
    metric("core.heavy_count", "count", "lower"),
    metric("core.bin_combinations", "count", "lower"),
    metric("trace.coverage", "ratio", "higher"),
    metric("trace.overhead", "ratio", "lower"),
    metric("serve.transport_ms", "ms", "lower"),
    metric("server_cpu_ms_per_op", "ms", "lower"),
    metric("service.cache_hits", "count", "higher"),
    metric("service.cache_misses", "count", "lower"),
    metric("service.cache_invalidations", "count", "lower"),
    metric("service.cache_evictions", "count", "lower"),
    metric("service.hit_ratio", "ratio", "higher"),
    metric("stats.sketch_bytes", "bytes", "lower"),
    metric("wire.reply_bytes", "bytes", "lower"),
    metric("wire.reply_lines", "count", "lower"),
];

/// One workload, one seed, one run.
struct RunResult {
    input_digest: u64,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    server_bin: &Path,
) -> Result<RunResult, String> {
    let w = workloads::build(name, seed).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let input_digest = w.input_digest();
    let oracle = layers::oracle(&w)?;
    eprintln!(
        "mpcbench: {name} seed={seed} input_digest={input_digest:016x}: {} replies verified \
         against the sequential oracle, at most {} answer rows per cycle",
        oracle.verified, oracle.max_rows_per_cycle
    );
    if !traced {
        let timed = Duration::from_secs_f64(seconds / e2e::ROUNDS as f64);
        let e = e2e::run(
            &w,
            &oracle.expect,
            server_bin,
            Phase::For(timed),
            e2e::ROUNDS,
        )?;
        return Ok(RunResult {
            input_digest,
            attempted: e.attempted,
            failed: e.failed,
            metrics: vec![
                ("setup_s", e.setup_s),
                ("qps", e.qps),
                ("cycle_p50_ms", e.cycle_p50_ms),
                ("cycle_p90_ms", e.cycle_p90_ms),
                ("load_bits", e.load_bits),
                ("peak_rss_mb", e.peak_rss_mib),
            ],
        });
    }
    let t = layers::trace(&w);
    // One untraced out-of-process round of the same cycles beside the
    // in-process replay: the cycle time that transport is the remainder of,
    // and the counters only the wire shows.
    let cycles = Phase::Cycles(layers::trace_cycles(&w));
    let e = e2e::run(&w, &oracle.expect, server_bin, cycles, 1)?;
    let s = e.stats;
    let lookups = s.hits + s.misses + s.invalidations;
    let mut metrics = t.metrics;
    metrics.extend([
        ("serve.transport_ms", e.cycle_p50_ms - t.handle_ms),
        ("server_cpu_ms_per_op", e.server_cpu_ms_per_op),
        ("service.cache_hits", s.hits as f64),
        ("service.cache_misses", s.misses as f64),
        ("service.cache_invalidations", s.invalidations as f64),
        ("service.cache_evictions", s.evictions as f64),
        ("service.hit_ratio", s.hits as f64 / lookups.max(1) as f64),
        ("stats.sketch_bytes", s.sketch_bytes as f64),
        ("wire.reply_bytes", e.reply_bytes_per_cycle),
        ("wire.reply_lines", e.reply_lines_per_cycle),
    ]);
    let dir = trace_dir()?;
    let path = dir.join(format!("trace-{name}.jsonl"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, t.tracer.to_jsonl(name)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "mpcbench: {name}: {} spans in {}",
        t.tracer.spans().len(),
        path.display()
    );
    Ok(RunResult {
        input_digest,
        attempted: e.attempted,
        failed: e.failed,
        metrics,
    })
}

/// The directory of the running executable: `<target>/release`.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate mpcbench: {e}"))?;
    Ok(exe
        .parent()
        .expect("an executable has a directory")
        .to_path_buf())
}

/// `<target>/mpcbench`, beside the build profile's directory.
fn trace_dir() -> Result<PathBuf, String> {
    Ok(exe_dir()?
        .parent()
        .expect("target directory")
        .join("mpcbench"))
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The table entry of a metric, with its bound when it is end-to-end.
fn definition(name: &str) -> (&'static Metric, Option<f64>) {
    let bounded = END_TO_END.iter().map(|(m, b)| (m, Some(*b)));
    bounded
        .chain(PER_LAYER.iter().map(|m| (m, None)))
        .find(|(m, _)| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"))
}

/// The one-line result of a single run, in the order of the metric tables.
fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(*v),
                definition(name).0.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// `BENCHMARK.json`, generated from the tables above so the two cannot
/// drift apart (a unit test compares the file at the repository root).
fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"mpcbench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"mpcbench\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("String write");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads::WHY
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The document of the summary form: every run's values per metric, with
/// min, median, max, interquartile spread and spread over bound.
fn summary(name: &str, runs: &[RunResult], traced: bool) -> String {
    let first = &runs[0];
    let mut rows = Vec::new();
    for (i, (metric_name, _)) in first.metrics.iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].1).collect();
        let (def, bound) = definition(metric_name);
        let mut row =
            format!(
            "      {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"values\": [{}], \
             \"min\": {}, \"median\": {}, \"max\": {}",
            def.name,
            def.unit,
            def.better,
            values.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", "),
            num(values.iter().copied().fold(f64::INFINITY, f64::min)),
            num(stats::median(&values)),
            num(values.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        );
        if values.len() >= 2 {
            let spread = stats::spread(&values);
            write!(row, ", \"spread\": {}", num(spread)).expect("String write");
            if let Some(bound) = bound {
                write!(
                    row,
                    ", \"bound\": {bound}, \"spread_over_bound\": {}",
                    num(spread / bound)
                )
                .expect("String write");
            }
        } else if let Some(bound) = bound {
            write!(row, ", \"bound\": {bound}").expect("String write");
        }
        row.push('}');
        rows.push(row);
    }
    let digests: Vec<String> = runs
        .iter()
        .map(|r| format!("\"{:016x}\"", r.input_digest))
        .collect();
    format!(
        "    {{\"name\": \"{name}\", \"trace\": {}, \"input_digests\": [{}], \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": [\n{}\n    ]}}",
        u8::from(traced),
        digests.join(", "),
        runs.iter().all(|r| r.failed == 0),
        runs.iter().map(|r| r.attempted).sum::<u64>(),
        runs.iter().map(|r| r.failed).sum::<u64>(),
        rows.join(",\n")
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: u64,
}

const USAGE: &str = "usage: mpcbench [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--repeat <N>] [--smoke]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        repeat: 1,
    };
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--repeat" => args.repeat = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) || args.repeat == 0 {
        return Err(format!("--seconds and --repeat must be positive\n{USAGE}"));
    }
    if let Some(name) = &args.workload {
        let names = workloads::names();
        if !names.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload `{name}`; one of {}",
                names.join(", ")
            ));
        }
    }
    if smoke {
        // A pre-flight: every workload at a tenth of the timed phase.
        args.seconds /= 10.0;
    }
    Ok(args)
}

fn run(argv: &[String]) -> Result<bool, String> {
    if argv == ["--print-benchmark-json"] {
        print!("{}", benchmark_json());
        return Ok(true);
    }
    let args = parse_args(argv)?;
    let server_bin = exe_dir()?.join("mpcskew");
    if !server_bin.is_file() {
        return Err(format!(
            "{} not found: build the repository first (mpcbench/run.sh does both)",
            server_bin.display()
        ));
    }
    if let (Some(name), 1) = (&args.workload, args.repeat) {
        let r = run_one(name, args.seed, args.seconds, args.traced, &server_bin)?;
        println!("{}", result_line(&r));
        return Ok(r.failed == 0);
    }
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::names(),
    };
    let mut all_correct = true;
    let mut sections = Vec::new();
    for name in names {
        let mut runs = Vec::new();
        for i in 0..args.repeat {
            runs.push(run_one(
                name,
                args.seed + i,
                args.seconds,
                args.traced,
                &server_bin,
            )?);
        }
        all_correct &= runs.iter().all(|r| r.failed == 0);
        sections.push(summary(name, &runs, args.traced));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\n  \"nproc\": {nproc}, \"seed\": {}, \"seconds\": {}, \"repeat\": {},\n  \"workloads\": [\n{}\n  ]\n}}",
        args.seed,
        args.seconds,
        args.repeat,
        sections.join(",\n")
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        // The result was printed; some reply was wrong.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mpcbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repository_root_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `mpcbench --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(m, _)| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(workloads::names());
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        assert_eq!(END_TO_END[0].0.name, "setup_s");
        let largest = END_TO_END.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].1, largest, "set-up carries the largest bound");
        assert!(workloads::WHY
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('"')));
        assert!(workloads::names()
            .iter()
            .all(|n| workloads::build(n, 1).is_some_and(|w| w.name == *n)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            input_digest: 0,
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", 0.5), ("qps", 41.25)],
        };
        assert_eq!(
            result_line(&r),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"qps\": {\"value\": 41.25, \"unit\": \"commands/s\"}}}"
        );
    }

    #[test]
    fn arguments_parse_in_the_drivers_form() {
        let argv: Vec<String> = "--workload rows_out --seed 7 --seconds 15 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("rows_out"));
        assert_eq!((a.seed, a.seconds, a.traced, a.repeat), (7, 15.0, true, 1));
        let smoke = parse_args(&["--smoke".to_string()]).unwrap();
        assert_eq!(smoke.seconds, RUN_SECONDS / 10.0);
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string()]).is_err());
    }
}
