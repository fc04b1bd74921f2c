//! Integration tests for the `mpcskew` CLI binary.

use std::process::Command;

fn mpcskew() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpcskew"))
}

#[test]
fn bounds_command_prints_triangle_table() {
    let out = mpcskew()
        .args([
            "bounds",
            "S1(x,y), S2(y,z), S3(z,x)",
            "--cards",
            "65536,65536,65536",
            "--p",
            "64",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tau* (max pack) : 3/2"), "{text}");
    assert!(text.contains("[0.5, 0.5, 0.5]"));
    assert!(text.contains("L_lower = L_upper"));
    assert!(text.contains("optimal shares  : [4, 4, 4]"));
}

/// `mpcskew bounds` stdout, asserting a clean exit.
fn bounds_stdout(query: &str, cards: &str) -> String {
    let out = mpcskew()
        .args(["bounds", query, "--cards", cards, "--p", "64"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Every quantity `bounds` prints for the 6-atom chain, pinned whole: τ*,
/// the space exponent, the pk(q) table and L_lower all come from one
/// enumeration of the packing polytope.
#[test]
fn bounds_golden_six_atom_chain() {
    let chain = "S1(x1,x2), S2(x2,x3), S3(x3,x4), S4(x4,x5), S5(x5,x6), S6(x6,x7)";
    let got = bounds_stdout(chain, "65536,65536,65536,65536,65536,65536");
    assert_eq!(got, include_str!("golden/bounds_chain6.txt"));
}

/// A dominated vertex wins: the pk(q) table holds only `[1,1,1]`, while
/// L_lower, taken over every vertex, is attained at `[0,1,1]` because
/// adding the tiny S1 to the packing lowers `L`.
#[test]
fn bounds_golden_dominated_vertex_wins() {
    let got = bounds_stdout("S1(x), S2(y), S3(z)", "16,65536,65536");
    assert_eq!(got, include_str!("golden/bounds_dominated_vertex.txt"));
}

#[test]
fn run_command_executes_and_verifies() {
    let out = mpcskew()
        .args([
            "run",
            "S1(x,z), S2(y,z)",
            "--m",
            "2000",
            "--p",
            "16",
            "--algo",
            "hc",
            "--seed",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verification PASSED"), "{text}");
    assert!(text.contains("max load"));
}

#[test]
fn run_skew_join_on_skewed_data() {
    let out = mpcskew()
        .args([
            "run",
            "S1(x,z), S2(y,z)",
            "--m",
            "4000",
            "--p",
            "16",
            "--algo",
            "skew-join",
            "--theta",
            "1.0",
            "--seed",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("heavy z"), "{text}");
    assert!(text.contains("verification PASSED"));
}

#[test]
fn threads_flag_selects_backend_and_output_is_invariant() {
    let run = |threads: &str| {
        let out = mpcskew()
            .args([
                "run",
                "S1(x,z), S2(y,z)",
                "--m",
                "3000",
                "--p",
                "16",
                "--algo",
                "general",
                "--theta",
                "1.2",
                "--seed",
                "7",
                "--threads",
                threads,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let seq = run("1");
    assert!(seq.contains("backend = sequential"), "{seq}");
    assert!(seq.contains("verification PASSED"), "{seq}");
    let threaded = run("4");
    assert!(threaded.contains("backend = threads(4)"), "{threaded}");
    // Identical measurements, modulo the backend banner line.
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("backend = "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&seq),
        strip(&threaded),
        "output drifted on the threaded backend"
    );
}

#[test]
fn auto_algo_is_default_and_picks_by_skew() {
    // Zipf(1.2) data: auto must resolve to the §4.1 skew join.
    let out = mpcskew()
        .args([
            "run",
            "S1(x,z), S2(y,z)",
            "--m",
            "4000",
            "--p",
            "16",
            "--theta",
            "1.2",
            "--seed",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("algo   : auto"), "{text}");
    assert!(text.contains("plan   : skew-join"), "{text}");
    assert!(text.contains("heavy z"), "{text}");
    assert!(text.contains("predicted L"), "{text}");
    assert!(text.contains("verification PASSED"), "{text}");

    // Uniform data: auto must resolve to LP-optimal HyperCube.
    let out = mpcskew()
        .args(["run", "S1(x,z), S2(y,z)", "--m", "2000", "--p", "16"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("plan   : hc"), "{text}");
    assert!(text.contains("shares :"), "{text}");
}

#[test]
fn run_prints_planned_replication_next_to_shares() {
    // The share LP's tie-break, visible before the round runs: of the
    // 3-chain's two max-load-optimal grids the plan is the one that
    // partitions S2 (the other, [8,1,8,1], reads `S1 8x, S2 8x, S3 8x`).
    let out = mpcskew()
        .args(["run", "S1(x0,x1), S2(x1,x2), S3(x2,x3)"])
        .args(["--m", "2000", "--p", "64", "--algo", "hc", "--threads", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("shares : [1, 8, 8, 1]\nplanned repl. : S1 8x, S2 1x, S3 8x\n"),
        "{text}"
    );
    assert!(text.contains("verification PASSED"), "{text}");
}

#[test]
fn equals_form_flags_are_accepted() {
    let out = mpcskew()
        .args([
            "run",
            "S1(x,z), S2(y,z)",
            "--m=2000",
            "--p=16",
            "--algo=hc",
            "--seed=3",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verification PASSED"), "{text}");
}

#[test]
fn equals_and_space_forms_produce_identical_output() {
    let spaced = mpcskew()
        .args([
            "run",
            "S1(x,z), S2(y,z)",
            "--m",
            "1500",
            "--p",
            "8",
            "--seed",
            "9",
            "--threads",
            "1",
        ])
        .output()
        .expect("binary runs");
    let equals = mpcskew()
        .args([
            "run",
            "S1(x,z), S2(y,z)",
            "--m=1500",
            "--p=8",
            "--seed=9",
            "--threads=1",
        ])
        .output()
        .expect("binary runs");
    assert!(spaced.status.success() && equals.status.success());
    assert_eq!(spaced.stdout, equals.stdout, "flag forms drifted");
}

#[test]
fn no_verify_boolean_flag_skips_verification() {
    let out = mpcskew()
        .args([
            "run",
            "S1(x,z), S2(y,z)",
            "--m",
            "1500",
            "--p",
            "8",
            "--no-verify",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verification skipped"), "{text}");
    assert!(!text.contains("verification PASSED"), "{text}");
}

#[test]
fn no_verify_count_equals_the_verified_answer_count() {
    // `--no-verify` counts per server on hc and skew-join plans and
    // materializes on general; every count must equal the verified set's.
    // Zipf on z repeats rows, so a server's join can emit a binding twice.
    let distinct = |algo: &str, verify: bool| -> String {
        let mut args = vec![
            "run",
            "S1(x,z), S2(y,z)",
            "--m",
            "3000",
            "--domain",
            "64",
            "--theta",
            "1.2",
            "--p",
            "16",
            "--algo",
            algo,
        ];
        if !verify {
            args.push("--no-verify");
        }
        let out = mpcskew().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = (text.lines())
            .find_map(|l| l.strip_prefix("answers       : "))
            .unwrap_or_else(|| panic!("{algo}: no answers line in {text}"));
        let (n, rest) = line.split_once(" distinct").expect("`N distinct`");
        let tail = if verify {
            ", verification PASSED"
        } else {
            " (verification skipped)"
        };
        assert_eq!(rest, tail, "{algo}: {text}");
        n.to_string()
    };
    for algo in ["hc", "skew-join", "general"] {
        assert_eq!(distinct(algo, false), distinct(algo, true), "{algo}");
    }
}

#[test]
fn help_and_no_args_print_usage_and_exit_zero() {
    for args in [vec![], vec!["--help"], vec!["run", "S1(x,z)", "--help"]] {
        let out = mpcskew().args(&args).output().expect("binary runs");
        assert!(out.status.success(), "args {args:?} should exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("usage:"), "args {args:?}: {text}");
        assert!(text.contains("auto"), "args {args:?}: {text}");
    }
}

#[test]
fn valued_flag_without_value_is_rejected() {
    let out = mpcskew()
        .args(["run", "S1(x,z), S2(y,z)", "--m"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--m is missing a value"), "{err}");
}

#[test]
fn bad_threads_flag_is_rejected() {
    // `pool:<n>` was a second spelling of the worker count; it is gone, and
    // must fail loudly rather than fall back to a default backend.
    for bad in ["many".to_string(), format!("pool:{}", 4)] {
        let out = mpcskew()
            .args(["run", "S1(x,z), S2(y,z)", "--threads", &bad])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "--threads {bad} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--threads expects an integer"), "{err}");
    }
}

#[test]
fn malformed_threads_environment_is_an_input_error() {
    // Without `--threads`, MPCSKEW_THREADS picks the backend; a malformed
    // value is reported and exits 1 like every other bad input.
    for args in [&["run", "S1(x,z), S2(y,z)", "--m", "200"][..], &["serve"]] {
        let out = mpcskew()
            .args(args)
            .env("MPCSKEW_THREADS", "abc")
            .stdin(Stdio::null())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.trim_end(),
            "error: MPCSKEW_THREADS expects an integer, got `abc`",
            "{args:?}"
        );
    }
}

#[test]
fn domain_below_one_is_an_input_error() {
    // An empty value domain has nothing to draw data from or state a bound
    // over: every command that takes `--domain` refuses it up front.
    for args in [
        &["run", "S1(x,z), S2(y,z)", "--m", "200", "--domain", "0"][..],
        &["serve", "--domain", "0"],
        &[
            "bounds",
            "S1(x,z), S2(y,z)",
            "--cards",
            "100,100",
            "--domain",
            "0",
        ],
    ] {
        let out = mpcskew()
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.trim_end(),
            "error: --domain must be at least 1",
            "{args:?}"
        );
    }
}

#[test]
fn negative_or_non_finite_theta_is_an_input_error() {
    // A Zipf exponent must be a finite number >= 0 (0 is uniform); a
    // negative or NaN one used to run uniform data under a header echoing
    // it, and an infinite one panicked in the Zipf sampler.
    for theta in ["-1", "nan", "inf"] {
        let out = mpcskew()
            .args(["run", "S1(x,z), S2(y,z)", "--m", "200", "--theta", theta])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "--theta {theta}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.trim_end(),
            format!("error: --theta must be a finite number >= 0, got `{theta}`"),
        );
    }
}

#[test]
fn skew_column_past_every_atom_is_an_input_error() {
    // With theta > 0 a skew column no atom has used to run uniform data
    // under a header echoing theta. Without skew the column is unused.
    let run = |theta: &str| {
        mpcskew()
            .args(["run", "S1(x,z), S2(y,z)", "--m", "200", "--theta", theta])
            .args(["--skew-col", "7", "--threads", "1"])
            .output()
            .expect("binary runs")
    };
    let out = run("1.5");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        "error: --skew-col 7 is past every atom (the widest has arity 2)"
    );
    assert!(out.stdout.is_empty(), "nothing runs before the check");
    assert!(run("0").status.success());
}

#[test]
fn explicit_threads_wins_over_a_malformed_environment() {
    let out = mpcskew()
        .args(["run", "S1(x,z), S2(y,z)", "--m", "200", "--threads", "1"])
        .env("MPCSKEW_THREADS", "abc")
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("backend = sequential"), "{text}");
    assert!(text.contains("verification PASSED"), "{text}");

    // serve plans and runs a query without ever reading the variable.
    let mut child = mpcskew()
        .args(["serve", "--domain", "16", "--p", "4", "--threads", "1"])
        .env("MPCSKEW_THREADS", "abc")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"LOAD S1 2 0,1;1,1\nLOAD S2 2 5,1\nQUERY S1(x,z), S2(y,z)\nSHUTDOWN\n")
        .expect("script written");
    let out = child.wait_with_output().expect("serve exits");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("\nok answers=2 "), "{text}");
    assert!(text.ends_with("ok bye\n"), "{text}");
}

#[test]
fn bad_query_is_rejected() {
    let out = mpcskew()
        .args(["bounds", "S1(x,", "--cards", "10"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot parse query"), "{err}");
}

#[test]
fn wrong_cardinality_count_is_rejected() {
    let out = mpcskew()
        .args(["bounds", "S1(x,z), S2(y,z)", "--cards", "10"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cardinalities"), "{err}");
}

#[test]
fn unknown_algorithm_is_rejected() {
    let out = mpcskew()
        .args(["run", "S1(x,z), S2(y,z)", "--algo", "quantum"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn retired_algorithm_names_are_unknown_on_both_surfaces() {
    // The baselines' names and aliases: their routers are driven by the
    // experiments and tests, never through `--algo` or `algo=`.
    let retired = "hc-equal hash hash-join fragment-replicate fr multi-round mr";
    let mut script = String::from("LOAD S1 2 0,1;1,1;2,3\nLOAD S2 2 5,1\n");
    let mut refusals = Vec::new();
    for name in retired.split(' ') {
        let out = mpcskew()
            .args(["run", "S1(x,z), S2(y,z)", "--m", "100", "--algo", name])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "--algo {name}");
        let refusal = format!("unknown algorithm `{name}`");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).lines().next(),
            Some(format!("error: {refusal}").as_str())
        );
        script.push_str(&format!("QUERY S1(x,z), S2(y,z) algo={name}\n"));
        refusals.push(format!("err {refusal}"));
    }
    // On the wire each refusal is one `err` line, and the session keeps
    // serving: the query after the last one is answered.
    script.push_str("QUERY S1(x,z), S2(y,z) algo=hc\nSHUTDOWN\n");
    let lines = serve_stdio_session(&["--domain", "16", "--p", "4"], &script);
    assert_eq!(lines[2..9], refusals[..], "{lines:?}");
    assert!(lines[9].starts_with("ok answers=2 algo=hc "), "{lines:?}");
    assert_eq!(lines[10..], ["ok bye"], "{lines:?}");
}

#[test]
fn serve_rejects_stats_modes_it_does_not_have() {
    // `synthetic` (cardinalities only) is a `run` what-if mode: a resident
    // service always has its data, so serve refuses it like any unknown
    // mode — before it reads a single command.
    for mode in ["synthetic", "psychic"] {
        let out = mpcskew()
            .args(["serve", "--stats", mode])
            .stdin(std::process::Stdio::null())
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "serve accepted --stats {mode}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown stats mode `{mode}`")),
            "{err}"
        );
        assert!(err.contains("[--stats exact|sketch]"), "{err}");
    }
    // `run` still takes it.
    let out = mpcskew()
        .args(["run", "S1(x,z), S2(y,z)", "--m", "500", "--p", "8"])
        .args(["--stats", "synthetic"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stats = synthetic"), "{text}");
}

// ---------------------------------------------------------------------------
// `mpcskew serve`
// ---------------------------------------------------------------------------

use std::io::{BufRead, BufReader, Write};
use std::process::Stdio;

/// Run the serve protocol over piped stdin/stdout and return all reply lines.
fn serve_stdio_session(extra_args: &[&str], script: &str) -> Vec<String> {
    let mut child = mpcskew()
        .arg("serve")
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn serve_stdio_load_query_append_shutdown() {
    let lines = serve_stdio_session(
        &["--domain", "16", "--p", "4"],
        "LOAD S1 2 0,1;1,1;2,3\n\
         LOAD S2 2 5,1;6,3;7,9\n\
         QUERY S1(x,z), S2(y,z) rows\n\
         QUERY S1(x,z), S2(y,z)\n\
         APPEND S2 8,1\n\
         QUERY S1(x,z), S2(y,z)\n\
         STATS\n\
         SHUTDOWN\n",
    );
    let text = lines.join("\n");
    assert!(lines[0].starts_with("ok loaded S1"), "{text}");
    assert!(lines[1].starts_with("ok loaded S2"), "{text}");
    // Cold query: 3 answers, with the rows echoed sorted.
    assert!(lines[2].starts_with("ok answers=3"), "{text}");
    assert!(lines[2].contains("cache=miss"), "{text}");
    assert_eq!(&lines[3..6], &["0 1 5", "1 1 5", "2 3 6"], "{text}");
    assert_eq!(lines[6], "end", "{text}");
    // Same shape again: the plan cache serves it warm.
    assert!(lines[7].starts_with("ok answers=3"), "{text}");
    assert!(lines[7].contains("cache=hit"), "{text}");
    // Append grows the answer set without a reload.
    assert!(lines[8].starts_with("ok appended S2 +1 tuples=4"), "{text}");
    assert!(lines[9].starts_with("ok answers=5"), "{text}");
    // STATS reports the counters the session accumulated.
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("ok plans=") && l.contains("hits=1")),
        "{text}"
    );
    assert!(lines.iter().any(|l| l.starts_with("rel S1 ")), "{text}");
    assert_eq!(lines.last().map(String::as_str), Some("ok bye"), "{text}");
}

#[test]
fn serve_stdio_reports_errors_and_keeps_going() {
    let lines = serve_stdio_session(
        &["--domain", "8"],
        "APPEND Nope 1,2\n\
         LOAD S1 2 0,9\n\
         LOAD S1 2 0,1\n\
         QUERY S1(x,z)\n\
         SHUTDOWN\n",
    );
    let text = lines.join("\n");
    // The exact not-loaded message is part of the wire contract: clients
    // match on it to distinguish "load first" from parse errors.
    assert_eq!(lines[0], "err relation `Nope` is not loaded", "{text}");
    assert!(lines[1].starts_with("err "), "{text}"); // 9 out of domain [8]
    assert!(lines[2].starts_with("ok loaded S1"), "{text}");
    assert!(lines[3].starts_with("ok answers=1"), "{text}");
    assert_eq!(lines.last().map(String::as_str), Some("ok bye"), "{text}");
}

#[test]
fn serve_tcp_shares_catalog_and_plan_cache_across_clients() {
    use std::net::TcpStream;

    let mut child = mpcskew()
        .args([
            "serve",
            "--domain",
            "16",
            "--p",
            "4",
            "--listen",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    // The first stdout line announces the bound address.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .expect("banner format")
        .to_owned();

    let talk = |script: &str, replies: usize| -> Vec<String> {
        let stream = TcpStream::connect(&addr).expect("client connects");
        let mut writer = stream.try_clone().expect("stream clones");
        writer.write_all(script.as_bytes()).expect("script sent");
        BufReader::new(stream)
            .lines()
            .take(replies)
            .map(|l| l.expect("reply line"))
            .collect()
    };

    // Client 1 loads the catalog and plans the query (a cache miss).
    let first = talk(
        "LOAD S1 2 0,1;1,1;2,3\n\
         LOAD S2 2 5,1;6,3;7,9\n\
         QUERY S1(x,z), S2(y,z)\n",
        3,
    );
    assert!(first[2].starts_with("ok answers=3"), "{first:?}");
    assert!(first[2].contains("cache=miss"), "{first:?}");

    // Client 2 sees the same catalog and hits the cached plan.
    // Client 2 drains every reply to EOF: it sends SHUTDOWN, and the
    // server closes the connection once the session is done.
    let second = {
        let stream = TcpStream::connect(&addr).expect("client connects");
        let mut writer = stream.try_clone().expect("stream clones");
        writer
            .write_all(b"QUERY S1(x,z), S2(y,z)\nSTATS\nSHUTDOWN\n")
            .expect("script sent");
        BufReader::new(stream)
            .lines()
            .map(|l| l.expect("reply line"))
            .collect::<Vec<String>>()
    };
    assert!(second[0].starts_with("ok answers=3"), "{second:?}");
    assert!(second[0].contains("cache=hit"), "{second:?}");
    assert!(second[1].contains("hits=1"), "{second:?}");
    assert!(second[1].contains("relations=2"), "{second:?}");
    assert_eq!(
        second.last().map(String::as_str),
        Some("ok bye"),
        "{second:?}"
    );

    // SHUTDOWN from client 2 stops the whole server.
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_pins_the_unsupported_error_vocabulary() {
    // End-to-end: an aggregate head forced onto the §4.2 general plan is
    // refused with a typed `err unsupported` line — the one refusal text
    // the engine, the service and `mpcskew run` share — and the session
    // keeps serving afterwards.
    use mpc_skew::core::engine::AGGREGATE_NEEDS_PARTITIONING;
    let lines = serve_stdio_session(
        &["--domain", "16", "--p", "4"],
        "LOAD S1 2 0,1;1,1;2,3\n\
         LOAD S2 2 5,1\n\
         QUERY \"Q(; count) :- S1(x,z), S2(y,z)\" algo=general\n\
         QUERY S1(x,z), S2(y,z)\n\
         SHUTDOWN\n",
    );
    assert_eq!(
        lines[2],
        format!("err unsupported {AGGREGATE_NEEDS_PARTITIONING}"),
        "{lines:?}"
    );
    assert!(lines[3].starts_with("ok answers=2"), "{lines:?}");
    assert_eq!(lines.last().map(String::as_str), Some("ok bye"));

    let out = mpcskew()
        .args(["run", "Q(; count) :- S1(x,z), S2(y,z)", "--algo", "general"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).lines().next(),
        Some(format!("error: {AGGREGATE_NEEDS_PARTITIONING}").as_str())
    );

    // The `JoinIndex` u32 row-id overflow cannot be provoked end-to-end
    // (it needs > 4B rows), so pin the wire rendering of the error the
    // service classifier maps it to: the exact line a client would read.
    use mpc_skew::core::service::ServiceError;
    let e = ServiceError::Unsupported(
        "relation \"S1\" has 5000000000 rows, which exceeds the u32 row-id space of JoinIndex"
            .to_string(),
    );
    assert_eq!(
        format!("err {e}"),
        "err unsupported relation \"S1\" has 5000000000 rows, \
         which exceeds the u32 row-id space of JoinIndex"
    );
}

/// Spawn `mpcskew serve --listen 127.0.0.1:0`, read the banner, and hand
/// back the child plus the bound address.
fn serve_tcp_child(extra_args: &[&str]) -> (std::process::Child, String) {
    let mut child = mpcskew()
        .args([
            "serve",
            "--domain",
            "16",
            "--p",
            "4",
            "--listen",
            "127.0.0.1:0",
        ])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .expect("banner format")
        .to_owned();
    (child, addr)
}

#[test]
fn serve_tcp_survives_client_disconnects() {
    use std::net::TcpStream;

    let (child, addr) = serve_tcp_child(&["--domain", "1024"]);

    // Client 1 drops mid-line: a partial command with no newline, then
    // the socket closes. The listener must shrug it off.
    {
        let mut s = TcpStream::connect(&addr).expect("client connects");
        s.write_all(b"QUERY S1(x").expect("partial line sent");
    }

    // Client 2 loads the catalog, then drops mid-response: it reads only
    // the status line of a `rows` reply and hangs up before the rows.
    {
        let stream = TcpStream::connect(&addr).expect("client connects");
        let mut writer = stream.try_clone().expect("stream clones");
        writer
            .write_all(
                b"LOAD S1 2 0,1;1,1;2,3\n\
                  LOAD S2 2 5,1;6,3;7,9\n\
                  QUERY S1(x,z), S2(y,z) rows\n",
            )
            .expect("script sent");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for _ in 0..3 {
            line.clear();
            reader.read_line(&mut line).expect("reply line");
        }
        assert!(line.starts_with("ok answers=3"), "{line}");
        // Drop here: the server is (or was) mid-way through writing rows.
    }

    // Client 3 asks for a reply far larger than the socket buffers
    // (400 x 400 rows of ~10 bytes, > 1 MB) and hangs up without reading
    // any of it: the one buffered write fails part-way, which must end
    // that session's output and nothing else.
    {
        let fan = |n: u64| {
            let rows: Vec<String> = (0..n).map(|v| format!("{v},0")).collect();
            rows.join(";")
        };
        let stream = TcpStream::connect(&addr).expect("client connects");
        let mut writer = stream.try_clone().expect("stream clones");
        writer
            .write_all(format!("LOAD A 2 {0}\nLOAD B 2 {0}\n", fan(400)).as_bytes())
            .expect("loads sent");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for _ in 0..2 {
            line.clear();
            reader.read_line(&mut line).expect("reply line");
            assert!(line.starts_with("ok loaded"), "{line}");
        }
        writer
            .write_all(b"QUERY A(x,z), B(y,z) rows\n")
            .expect("query sent");
    }

    // A fresh client still gets the shared catalog and the cached plan,
    // proving no disconnect tore down the listener or the service.
    let survivor = {
        let stream = TcpStream::connect(&addr).expect("client connects");
        let mut writer = stream.try_clone().expect("stream clones");
        writer
            .write_all(b"QUERY S1(x,z), S2(y,z)\nQUERY A(x,z), B(y,z)\nSHUTDOWN\n")
            .expect("script sent");
        BufReader::new(stream)
            .lines()
            .map(|l| l.expect("reply line"))
            .collect::<Vec<String>>()
    };
    assert!(survivor[0].starts_with("ok answers=3"), "{survivor:?}");
    assert!(survivor[0].contains("cache=hit"), "{survivor:?}");
    assert!(
        survivor[1].starts_with("ok answers=160000 "),
        "{survivor:?}"
    );
    assert_eq!(survivor.last().map(String::as_str), Some("ok bye"));

    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_tcp_sheds_load_beyond_max_clients() {
    use std::net::TcpStream;
    use std::time::Duration;

    let (child, addr) = serve_tcp_child(&["--max-clients", "1"]);

    // Occupy the single slot; the echoed STATS reply proves the session
    // thread is registered before anyone else connects.
    let holder = TcpStream::connect(&addr).expect("holder connects");
    let mut writer = holder.try_clone().expect("stream clones");
    writer.write_all(b"STATS\n").expect("script sent");
    let mut reader = BufReader::new(holder.try_clone().expect("stream clones"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("stats reply");
    assert!(line.starts_with("ok plans="), "{line}");

    // The next client is shed with one typed line, then disconnected.
    let shed = {
        let stream = TcpStream::connect(&addr).expect("extra client connects");
        BufReader::new(stream)
            .lines()
            .map(|l| l.expect("reply line"))
            .collect::<Vec<String>>()
    };
    assert_eq!(shed, vec!["err overloaded 1 active clients (max 1)"]);

    // Release the slot; the freed capacity must become visible (slot
    // release races the next accept, so poll until SHUTDOWN lands).
    drop(writer);
    drop(reader);
    drop(holder);
    let mut said_bye = false;
    for _ in 0..200 {
        let stream = TcpStream::connect(&addr).expect("client connects");
        let mut w = stream.try_clone().expect("stream clones");
        w.write_all(b"SHUTDOWN\n").expect("script sent");
        let mut r = BufReader::new(stream);
        let mut reply = String::new();
        r.read_line(&mut reply).expect("reply line");
        if reply.starts_with("ok bye") {
            said_bye = true;
            break;
        }
        assert!(reply.starts_with("err overloaded"), "{reply}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(said_bye, "slot never freed after holder disconnected");

    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_tcp_replies_are_not_held_back_by_nagle() {
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let (child, addr) = serve_tcp_child(&[]);
    let stream = TcpStream::connect(&addr).expect("client connects");
    stream.set_nodelay(true).expect("client nodelay");
    let mut writer = stream.try_clone().expect("stream clones");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    // Closed loop: the next STATS goes out only after the previous reply's
    // `end`. A multi-line reply written line by line into a Nagle socket
    // costs one delayed ACK (~40 ms) per round trip — 2 s for these 50;
    // one buffered write on a TCP_NODELAY socket costs a few ms in all.
    let started = Instant::now();
    for _ in 0..50 {
        writer.write_all(b"STATS\n").expect("command sent");
        loop {
            line.clear();
            reader.read_line(&mut line).expect("reply line");
            if line == "end\n" {
                break;
            }
        }
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "50 STATS round trips took {took:?}"
    );

    writer.write_all(b"SHUTDOWN\n").expect("command sent");
    line.clear();
    reader.read_line(&mut line).expect("reply line");
    assert_eq!(line, "ok bye\n");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success());
}

#[test]
fn serve_stdio_and_tcp_replies_are_byte_identical() {
    use std::io::Read;
    use std::net::TcpStream;

    let script = "LOAD S1 2 0,1;1,1;2,3\n\
                  LOAD S2 2 5,1;6,3;7,9\n\
                  QUERY S1(x,z), S2(y,z) rows\n\
                  # comments and blank lines reply nothing\n\
                  \n\
                  QUERY Q(z; count, sum(x)) :- S1(x,z), S2(y,z) rows\n\
                  QUERY S1(x,z), S2(y,z) limit=1 rows\n\
                  QUERY S1(x,z), S2(y,z) rows\n\
                  QUERY S9(x,z)\n\
                  APPEND S2 8,1\n\
                  SET max_groups=1\n\
                  QUERY Q(z; count) :- S1(x,z), S2(y,z)\n\
                  FROB\n\
                  STATS\n\
                  SHUTDOWN\n";
    let args = ["--domain", "16", "--p", "4", "--threads", "1"];

    let over_stdio = serve_stdio_session(&args, script).join("\n") + "\n";
    assert!(over_stdio.contains("\nerr limit max_rows exceeded\n"));
    assert!(over_stdio.ends_with("\nend\nok bye\n"), "{over_stdio}");

    let (child, addr) = serve_tcp_child(&args[4..]);
    let mut stream = TcpStream::connect(&addr).expect("client connects");
    stream.write_all(script.as_bytes()).expect("script sent");
    let mut over_tcp = String::new();
    stream
        .read_to_string(&mut over_tcp)
        .expect("replies to EOF");
    assert_eq!(over_tcp, over_stdio);
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success());
}

#[test]
fn serve_answers_unplannable_queries_with_one_err_line_on_stdio_and_tcp() {
    // Three lines that each took the server down at plan time (a planner
    // panic outside the containment boundary, twice; `p` fragments per atom
    // allocated before the first budget poll): each gets exactly one reply,
    // the session keeps serving, and SHUTDOWN exits 0 — on both fronts.
    use mpc_skew::core::engine::SKEW_JOIN_NEEDS_TWO_ATOMS;
    use std::io::Read;
    use std::net::TcpStream;

    let script = "LOAD S1 2 0,1;1,1;2,3\n\
                  LOAD S2 2 5,1;6,3;7,9\n\
                  QUERY S1(x,z), S2(y,z) rows\n\
                  QUERY S1(x,z), S2(y,z) rows\n\
                  QUERY S1(x,z), S2(y,w) algo=skew-join\n\
                  QUERY S1(x,z), S2(y,z) p=1 algo=general\n\
                  QUERY S1(x,z), S2(y,z) p=100000000\n\
                  QUERY S1(x,z), S2(y,z) rows\n\
                  SHUTDOWN\n";
    let args = ["--domain", "16", "--p", "4", "--threads", "1"];
    let lines = serve_stdio_session(&args, script);
    let warm = &lines[7..12];
    assert!(warm[0].starts_with("ok answers=3 ") && warm[0].contains("cache=hit"));
    assert_eq!(
        lines[12..15],
        [
            format!("err unsupported {SKEW_JOIN_NEEDS_TWO_ATOMS}"),
            // B_∅ alone: the one server receives all 6 tuples (48 bits).
            "ok answers=3 algo=general cache=miss rounds=1 load=48 predicted=24".to_string(),
            "err p= must be at most 65536".to_string(),
        ],
        "{lines:?}"
    );
    // The next QUERY on the same connection is answered bit-identically.
    assert_eq!(&lines[15..20], warm, "{lines:?}");
    assert_eq!(lines[20..], ["ok bye"], "{lines:?}");

    let (child, addr) = serve_tcp_child(&args[4..]);
    let mut stream = TcpStream::connect(&addr).expect("client connects");
    stream.write_all(script.as_bytes()).expect("script sent");
    let mut over_tcp = String::new();
    stream
        .read_to_string(&mut over_tcp)
        .expect("replies to EOF");
    assert_eq!(over_tcp, lines.join("\n") + "\n");
    assert!(child
        .wait_with_output()
        .expect("serve exits")
        .status
        .success());
}

#[test]
fn run_refuses_unplannable_requests_without_a_backtrace() {
    use mpc_skew::core::engine::SKEW_JOIN_NEEDS_TWO_ATOMS;
    // 65 positions over 10 variables: the parser limits distinct variables
    // only, so admission is what keeps the atom off the local join.
    let vars: Vec<String> = (0..65).map(|i| format!("v{}", i % 10)).collect();
    let wide = format!("R({})", vars.join(","));
    for (args, message) in [
        (
            vec!["run", &wide, "--m", "10", "--domain", "1"],
            "atom `R` has 65 positions; the local join supports at most 64",
        ),
        (
            vec!["run", "S1(x,z), S2(y,w)", "--algo", "skew-join"],
            SKEW_JOIN_NEEDS_TWO_ATOMS,
        ),
        (
            vec!["run", "S1(x,z), S2(y,z)", "--p", "100000000"],
            "--p must be at most 65536",
        ),
        (
            vec!["run", "S1(x,z), S2(y,z)", "--p", "0"],
            "--p must be at least 1",
        ),
        (vec!["serve", "--p", "0"], "--p must be at least 1"),
    ] {
        let out = mpcskew().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {message}\n"),
            "{args:?}"
        );
    }
}
