//! Compare two `BENCH_<label>.json` trajectory files.
//!
//! ```text
//! bench_compare OLD.json NEW.json
//! ```
//!
//! Prints per-benchmark median deltas next to the exact per-iteration
//! counter transitions the files carry (allocations, join bindings
//! visited, relation bytes scanned for statistics, answer rows
//! materialized). The medians are information only: recorded on
//! different commits at a reduced sample budget, they swing by 2x on
//! groups a change does not touch, so nothing here calls a delta a
//! regression. The counters are exact and host-noise-free; they are the
//! evidence. `ci.sh --bench-compare <old> <new>` wraps this binary, and the
//! full gate runs it against the newest two recorded baselines.

use std::process::ExitCode;

/// One benchmark record parsed from a trajectory file.
#[derive(Clone, Debug, PartialEq)]
struct Record {
    label: String,
    median_ns: f64,
    allocs_per_iter: Option<u64>,
    bindings_per_iter: Option<u64>,
    scan_bytes_per_iter: Option<u64>,
    rows_materialized_per_iter: Option<u64>,
}

/// Extract the JSON string value of `field` from a one-record line.
fn string_field(line: &str, field: &str) -> Option<String> {
    let pat = format!("\"{field}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extract the JSON numeric value of `field` from a one-record line.
fn number_field(line: &str, field: &str) -> Option<f64> {
    let pat = format!("\"{field}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse every benchmark record out of a `BENCH_*.json` file. The records
/// are the one-object-per-line entries of the `"results"` array (the shape
/// `ci.sh --bench` writes); anything without a `median_ns` is skipped.
fn parse_records(text: &str) -> Vec<Record> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(median_ns) = number_field(line, "median_ns") else {
            continue;
        };
        let group = string_field(line, "group").unwrap_or_default();
        let Some(bench) = string_field(line, "bench") else {
            continue;
        };
        let label = if group.is_empty() {
            bench
        } else {
            format!("{group}/{bench}")
        };
        out.push(Record {
            label,
            median_ns,
            allocs_per_iter: number_field(line, "allocs_per_iter").map(|v| v as u64),
            bindings_per_iter: number_field(line, "bindings_per_iter").map(|v| v as u64),
            scan_bytes_per_iter: number_field(line, "scan_bytes_per_iter").map(|v| v as u64),
            rows_materialized_per_iter: number_field(line, "rows_materialized_per_iter")
                .map(|v| v as u64),
        });
    }
    out
}

/// `new` relative to `old` as a signed fraction (`+0.25` = 25% slower).
fn delta(old: f64, new: f64) -> f64 {
    if old <= 0.0 {
        0.0
    } else {
        (new - old) / old
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.3}s", ns / 1_000_000_000.0)
    }
}

/// Format an `old -> new` transition of one exact per-iteration counter
/// (allocations, join bindings visited): "500 -> 50 (10.0x fewer)",
/// "500 (unchanged)", "- -> 50", or empty when neither side has it.
fn counter_delta(old: Option<u64>, new: Option<u64>) -> String {
    match (old, new) {
        (Some(a), Some(b)) => {
            let ratio = if b > 0 { a as f64 / b as f64 } else { f64::NAN };
            if a == b {
                format!("{a} (unchanged)")
            } else if ratio.is_finite() && ratio >= 1.0 {
                format!("{a} -> {b} ({ratio:.1}x fewer)")
            } else {
                format!("{a} -> {b}")
            }
        }
        (None, Some(b)) => format!("- -> {b}"),
        _ => String::new(),
    }
}

/// Render the comparison: one line per benchmark in `new`, then one per
/// benchmark only `old` has.
fn compare(old: &[Record], new: &[Record], out: &mut impl std::io::Write) {
    let header = [
        "benchmark",
        "old",
        "new",
        "delta",
        "allocs/iter old->new",
        "bindings/iter old->new",
        "scan-bytes/iter old->new",
        "rows-mat/iter old->new",
    ];
    writeln!(
        out,
        "{:<44} {:>10} {:>10} {:>8}  {:<24} {:<24} {:<24} {}",
        header[0], header[1], header[2], header[3], header[4], header[5], header[6], header[7]
    )
    .unwrap();
    for n in new {
        let Some(o) = old.iter().find(|o| o.label == n.label) else {
            writeln!(
                out,
                "{:<44} {:>10} {:>10} {:>8}",
                n.label,
                "-",
                fmt_ns(n.median_ns),
                "new"
            )
            .unwrap();
            continue;
        };
        writeln!(
            out,
            "{:<44} {:>10} {:>10} {:>+7.1}%  {:<24} {:<24} {:<24} {}",
            n.label,
            fmt_ns(o.median_ns),
            fmt_ns(n.median_ns),
            delta(o.median_ns, n.median_ns) * 100.0,
            counter_delta(o.allocs_per_iter, n.allocs_per_iter),
            counter_delta(o.bindings_per_iter, n.bindings_per_iter),
            counter_delta(o.scan_bytes_per_iter, n.scan_bytes_per_iter),
            counter_delta(o.rows_materialized_per_iter, n.rows_materialized_per_iter),
        )
        .unwrap();
    }
    for o in old {
        if !new.iter().any(|n| n.label == o.label) {
            writeln!(
                out,
                "{:<44} {:>10} {:>10}  (dropped)",
                o.label,
                fmt_ns(o.median_ns),
                "-"
            )
            .unwrap();
        }
    }
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.len() != 2 {
        eprintln!("usage: bench_compare OLD.json NEW.json");
        return ExitCode::FAILURE;
    }
    let read = |path: &str| -> Option<String> {
        match std::fs::read_to_string(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                None
            }
        }
    };
    let (Some(old_text), Some(new_text)) = (read(&files[0]), read(&files[1])) else {
        return ExitCode::FAILURE;
    };
    println!("comparing {} (old) vs {} (new):", files[0], files[1]);
    compare(
        &parse_records(&old_text),
        &parse_records(&new_text),
        &mut std::io::stdout(),
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{
  "pr": "prX",
  "results": [
    {"group":"local_join","bench":"join_16k","median_ns":1000.0,"min_ns":900.0,"max_ns":1100.0,"samples":5,"iters_per_sample":10,"allocs_per_iter":500,"bindings_per_iter":9000,"scan_bytes_per_iter":65536,"rows_materialized_per_iter":16000},
    {"group":"local_join","bench":"gone","median_ns":50.0,"min_ns":50.0,"max_ns":50.0,"samples":5,"iters_per_sample":10}
  ]
}"#;

    const NEW: &str = r#"{
  "pr": "prY",
  "results": [
    {"group":"local_join","bench":"join_16k","median_ns":800.0,"min_ns":700.0,"max_ns":900.0,"samples":5,"iters_per_sample":10,"allocs_per_iter":50,"bindings_per_iter":3000,"scan_bytes_per_iter":0,"rows_materialized_per_iter":0},
    {"group":"slow","bench":"case","median_ns":99.0,"min_ns":99.0,"max_ns":99.0,"samples":5,"iters_per_sample":10}
  ]
}"#;

    #[test]
    fn parses_records_with_and_without_allocs() {
        let old = parse_records(OLD);
        assert_eq!(old.len(), 2);
        assert_eq!(old[0].label, "local_join/join_16k");
        assert_eq!(old[0].median_ns, 1000.0);
        assert_eq!(old[0].allocs_per_iter, Some(500));
        assert_eq!(old[0].bindings_per_iter, Some(9000));
        assert_eq!(old[0].scan_bytes_per_iter, Some(65536));
        assert_eq!(old[0].rows_materialized_per_iter, Some(16000));
        assert_eq!(old[1].allocs_per_iter, None);
        assert_eq!(old[1].bindings_per_iter, None);
        assert_eq!(old[1].scan_bytes_per_iter, None);
        assert_eq!(old[1].rows_materialized_per_iter, None);
    }

    #[test]
    fn rows_materialized_column_shows_the_pushdown_win() {
        let mut buf = Vec::new();
        compare(&parse_records(OLD), &parse_records(NEW), &mut buf);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("rows-mat/iter old->new"), "{text}");
        // 16000 -> 0 has no finite ratio: plain transition.
        assert!(text.contains("16000 -> 0"), "{text}");
    }

    #[test]
    fn bindings_column_shows_the_visited_bindings_delta() {
        let mut buf = Vec::new();
        compare(&parse_records(OLD), &parse_records(NEW), &mut buf);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("bindings/iter old->new"), "{text}");
        assert!(text.contains("9000 -> 3000 (3.0x fewer)"), "{text}");
    }

    #[test]
    fn counter_delta_covers_every_shape() {
        assert_eq!(
            counter_delta(Some(500), Some(50)),
            "500 -> 50 (10.0x fewer)"
        );
        assert_eq!(counter_delta(Some(7), Some(7)), "7 (unchanged)");
        assert_eq!(counter_delta(Some(5), Some(8)), "5 -> 8");
        assert_eq!(counter_delta(None, Some(8)), "- -> 8");
        assert_eq!(counter_delta(Some(5), None), "");
        assert_eq!(counter_delta(None, None), "");
    }

    #[test]
    fn scan_bytes_column_shows_the_scan_delta() {
        let mut buf = Vec::new();
        compare(&parse_records(OLD), &parse_records(NEW), &mut buf);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("scan-bytes/iter old->new"), "{text}");
        assert!(text.contains("65536 -> 0"), "{text}");
    }

    /// The `compare` output for one benchmark whose median goes from
    /// `old_ns` to `new_ns`, counters unchanged.
    fn one_line(old_ns: f64, new_ns: f64) -> String {
        let mut old = parse_records(OLD)[..1].to_vec();
        old[0].median_ns = old_ns;
        let mut new = old.clone();
        new[0].median_ns = new_ns;
        let mut buf = Vec::new();
        compare(&old, &new, &mut buf);
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn improvement_is_not_flagged() {
        let text = one_line(1_000_000.0, 500_000.0);
        assert!(text.contains("-50.0%"), "{text}");
        assert!(!text.to_lowercase().contains("regression"), "{text}");
    }

    /// A slowdown from `old_ns` to `new_ns` prints `delta` and its
    /// unchanged counters, and nothing calls it a regression or noise.
    fn assert_no_verdict(old_ns: f64, new_ns: f64, delta: &str) {
        let text = one_line(old_ns, new_ns);
        assert!(text.contains(delta), "{text}");
        assert!(text.contains("500 (unchanged)"), "{text}");
        let lower = text.to_lowercase();
        assert!(
            !lower.contains("regression") && !lower.contains("noisy"),
            "{text}"
        );
    }

    #[test]
    fn regression_over_threshold_is_flagged() {
        // There is no threshold any more: a ms-scale slowdown past the
        // old 10%, and a 2x one, print their deltas and no flag.
        assert_no_verdict(1_000_000.0, 1_111_000.0, "+11.1%");
        assert_no_verdict(1_000_000.0, 2_000_000.0, "+100.0%");
    }

    #[test]
    fn sub_floor_bench_gets_the_relaxed_threshold() {
        // µs-scale benches get no threshold of their own either: an 80µs
        // bench at +60%, 2x and +112.5% prints its delta and no flag.
        assert_no_verdict(80_000.0, 128_000.0, "+60.0%");
        assert_no_verdict(80_000.0, 160_000.0, "+100.0%");
        assert_no_verdict(80_000.0, 170_000.0, "+112.5%");
    }

    #[test]
    fn new_and_dropped_benchmarks_are_reported() {
        let mut buf = Vec::new();
        compare(&parse_records(OLD), &parse_records(NEW), &mut buf);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("slow/case"), "{text}");
        assert!(text.contains("(dropped)"), "{text}");
        assert!(text.contains("10.0x fewer"), "{text}");
    }

    #[test]
    fn delta_handles_zero_old() {
        assert_eq!(delta(0.0, 100.0), 0.0);
        assert!((delta(100.0, 150.0) - 0.5).abs() < 1e-12);
    }
}
