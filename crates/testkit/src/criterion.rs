//! A criterion-compatible micro-benchmark harness (the slice of the API
//! the workspace benches use), for `harness = false` bench targets.
//!
//! Timing model: each benchmark is calibrated so one sample takes roughly
//! [`Criterion::sample_time_ms`], then `sample_size` samples are measured
//! and the median, minimum and maximum per-iteration times are printed,
//! plus throughput when the group declares one.
//!
//! CI hooks (all optional, read per benchmark):
//!
//! * `MPC_TESTKIT_SAMPLES=<n>` / `MPC_TESTKIT_SAMPLE_MS=<ms>` override the
//!   configured sample count / per-sample time budget — `ci.sh --bench`
//!   uses them to run every group on a reduced budget;
//! * `MPC_TESTKIT_BENCH_JSON=<path>` appends one JSON object per benchmark
//!   (`{"group","bench","median_ns","min_ns","max_ns","samples",
//!   "iters_per_sample"}`, plus `"allocs_per_iter"` when an allocation
//!   probe is registered and one extra named counter field when a
//!   [`set_counter_probe`] counter is registered) to `<path>`, which
//!   `ci.sh --bench` assembles into the repo-root `BENCH_*.json`
//!   trajectory file.
//!
//! Allocation accounting: a bench binary that installs a counting
//! `#[global_allocator]` can register its counter via [`set_alloc_probe`];
//! the harness then samples the counter around the measured samples of
//! every benchmark and reports heap allocations per iteration next to the
//! wall-clock numbers — on a noisy single-core CI host, allocs/iteration
//! is the stable signal a flat-data-plane optimization shows up in.

pub use crate::{criterion_group, criterion_main};
use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The registered allocation counter (monotone total allocation count for
/// the process), if any.
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// An extra monotone counter sampled like the allocation probe: the JSON
/// field name it reports under, plus the counter itself.
type NamedProbe = (&'static str, fn() -> u64);

/// The registered extra counter, if any.
static EXTRA_PROBE: OnceLock<NamedProbe> = OnceLock::new();

/// Register a process-wide allocation counter (typically backed by a
/// counting `#[global_allocator]` in the bench binary). Must be called
/// before the first benchmark runs; later registrations are ignored. Once
/// registered, every benchmark's JSON record gains `"allocs_per_iter"`,
/// the mean heap-allocation count per iteration over the measured samples.
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

/// Register one extra monotone process-wide counter to sample alongside
/// the allocation probe. `field` names the JSON field the mean
/// per-iteration delta is reported under (e.g. `"bindings_per_iter"`
/// backed by `mpc_data::join::visited_bindings_total`); it must be a
/// valid JSON string without escapes. Must be called before the first
/// benchmark runs; later registrations are ignored.
pub fn set_counter_probe(field: &'static str, probe: fn() -> u64) {
    let _ = EXTRA_PROBE.set((field, probe));
}

/// Benchmark driver. Mirrors `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    sample_time_ms: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            sample_time_ms: 50,
        }
    }
}

impl Criterion {
    /// Set the number of measured samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Target wall-clock time per sample, in milliseconds.
    pub fn sample_time_ms(mut self, ms: u64) -> Self {
        self.sample_time_ms = ms.max(1);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("\n== {name} ==");
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and optional throughput.
/// Mirrors `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare the per-iteration workload size, enabling element/byte
    /// rates in the report.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Measure one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let label = format!("{}/{}", self.name, id.0);
        run_benchmark(
            &label,
            self.criterion.sample_size,
            self.criterion.sample_time_ms,
            self.throughput,
            f,
        );
        self
    }

    /// Finish the group (report separation only; statistics are printed
    /// per benchmark).
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group. Mirrors
/// `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// Just the parameter, for groups whose name already identifies the
    /// benchmark.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(format!("{parameter}"))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Per-iteration workload size. Mirrors `criterion::Throughput`.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Timing context handed to the benchmark closure. Mirrors
/// `criterion::Bencher`.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `iters` executions of `routine`; the harness divides by the
    /// iteration count afterwards.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Per-iteration time below which a benchmark gets four times the samples.
const NOISE_FLOOR_NS: u128 = 100_000;

fn run_benchmark<F>(
    label: &str,
    sample_size: usize,
    sample_time_ms: u64,
    throughput: Option<Throughput>,
    mut f: F,
) where
    F: FnMut(&mut Bencher),
{
    let sample_size = env_usize("MPC_TESTKIT_SAMPLES")
        .unwrap_or(sample_size)
        .max(2);
    let sample_time_ms = env_usize("MPC_TESTKIT_SAMPLE_MS")
        .map(|ms| ms as u64)
        .unwrap_or(sample_time_ms)
        .max(1);
    // Calibration: run single iterations until we know roughly how long
    // one takes, then size samples to the target sample time.
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let estimate = bencher.elapsed.max(Duration::from_nanos(1));
    let per_sample = Duration::from_millis(sample_time_ms);
    let iters = (per_sample.as_nanos() / estimate.as_nanos()).clamp(1, 1_000_000) as u64;
    // Minimum-time floor: µs-scale benchmarks are dominated by scheduler
    // and cache noise at the default budget, so quadruple the sample count
    // below 100 µs per iteration.
    let sample_size = if estimate.as_nanos() < NOISE_FLOOR_NS {
        sample_size * 4
    } else {
        sample_size
    };

    let probe = ALLOC_PROBE.get().copied();
    let allocs_before = probe.map(|p| p());
    let extra = EXTRA_PROBE.get().copied();
    let extra_before = extra.map(|(_, p)| p());
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut bencher = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        per_iter_ns.push(bencher.elapsed.as_nanos() as f64 / iters as f64);
    }
    // Mean allocations per iteration across all measured samples (the
    // counter is process-global; concurrent noise is negligible because
    // benchmarks run one at a time).
    let allocs_per_iter = probe.zip(allocs_before).map(|(p, before)| {
        let total = p().saturating_sub(before);
        total / (sample_size as u64 * iters).max(1)
    });
    // Same averaging for the extra counter (e.g. join bindings visited).
    let extra_per_iter = extra.zip(extra_before).map(|((field, p), before)| {
        let total = p().saturating_sub(before);
        (field, total / (sample_size as u64 * iters).max(1))
    });
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter_ns[per_iter_ns.len() / 2];
    let lo = per_iter_ns[0];
    let hi = per_iter_ns[per_iter_ns.len() - 1];

    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!(" {:>12}/s", si(n as f64 * 1e9 / median, "elem")),
        Throughput::Bytes(n) => format!(" {:>12}/s", si(n as f64 * 1e9 / median, "B")),
    });
    let allocs_note = allocs_per_iter
        .map(|a| format!("  allocs/iter: {a}"))
        .unwrap_or_default();
    let extra_note = extra_per_iter
        .map(|(field, n)| format!("  {}: {n}", field.replace("_per_iter", "/iter")))
        .unwrap_or_default();
    eprintln!(
        "{label:<40} time: [{} {} {}]{}{}{}",
        fmt_ns(lo),
        fmt_ns(median),
        fmt_ns(hi),
        rate.unwrap_or_default(),
        allocs_note,
        extra_note
    );

    if let Ok(path) = std::env::var("MPC_TESTKIT_BENCH_JSON") {
        let (group, bench) = match label.split_once('/') {
            Some((g, b)) => (g, b),
            None => ("", label),
        };
        let alloc_field = allocs_per_iter
            .map(|a| format!(",\"allocs_per_iter\":{a}"))
            .unwrap_or_default();
        let extra_field = extra_per_iter
            .map(|(field, n)| format!(",\"{field}\":{n}"))
            .unwrap_or_default();
        let line = format!(
            "{{\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\"samples\":{},\"iters_per_sample\":{}{}{}}}\n",
            json_escape(group),
            json_escape(bench),
            median,
            lo,
            hi,
            sample_size,
            iters,
            alloc_field,
            extra_field,
        );
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("warning: cannot append bench record to {path}: {e}");
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn si(value: f64, unit: &str) -> String {
    if value >= 1e9 {
        format!("{:.2} G{unit}", value / 1e9)
    } else if value >= 1e6 {
        format!("{:.2} M{unit}", value / 1e6)
    } else if value >= 1e3 {
        format!("{:.2} K{unit}", value / 1e3)
    } else {
        format!("{value:.1} {unit}")
    }
}

/// Declare a benchmark group function callable from
/// [`criterion_main!`](crate::criterion_main). Both the struct form
/// (`name = ..; config = ..; targets = ..`) and the positional form are
/// supported.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::criterion::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::criterion::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generate `fn main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
