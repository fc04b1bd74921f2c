#!/usr/bin/env sh
# Tier-1 verification for the mpc-skew workspace. Hermetic: no network, no
# registry dependencies (the only external surface, proptest/criterion, is
# replaced in-tree by crates/testkit).
#
#   ./ci.sh              # build + serve smoke + both-backend tests + fmt
#                        # + lint + docs + API-surface, one-shuffle-kernel
#                        # and one-share-LP (one model, one solve) guards
#                        # + bench-compile
#                        # + mpcbench (its unit tests and a --smoke run)
#   ./ci.sh --quick      # tier-1 gate only (what the driver enforces);
#                        # `cargo test` includes the rustdoc doctests
#   ./ci.sh --bench prN  # bench smoke only (reduced budget) -> BENCH_prN.json;
#                        # the label is required so medians stay comparable
#                        # PR over PR; run --quick or the full gate separately
#   ./ci.sh --bench-compare OLD.json NEW.json
#                        # per-benchmark median deltas between two recorded
#                        # trajectory files; regressions >10% are flagged
#                        # (the full gate runs this against the newest two
#                        # BENCH_*.json automatically)
#
# The test suite runs twice — pinned to the sequential backend
# (MPCSKEW_THREADS=1) and to the persistent worker pool (MPCSKEW_THREADS=4)
# — so every test doubles as a differential check across the two
# executors. Every `cargo test` passes --no-fail-fast: one red crate must
# not hide the crates behind it.
#
# A per-stage wall-clock summary is printed at the end of every run, so
# regressions in CI time itself stay visible.
set -eu

STAGE_SUMMARY=""
STAGE_NAME=""
STAGE_START=0
CI_START=$(date +%s)

stage() {
    stage_end
    STAGE_NAME="$1"
    STAGE_START=$(date +%s)
    echo "==> $1"
}

stage_end() {
    if [ -n "$STAGE_NAME" ]; then
        STAGE_SUMMARY="${STAGE_SUMMARY}  $(( $(date +%s) - STAGE_START ))s  ${STAGE_NAME}\n"
        STAGE_NAME=""
    fi
}

summary() {
    stage_end
    printf '\n==> ci.sh stage wall-clock summary (total %ss):\n' "$(( $(date +%s) - CI_START ))"
    # shellcheck disable=SC2059
    printf "$STAGE_SUMMARY"
}

if [ "${1:-}" = "--bench-compare" ]; then
    OLD="${2:-}"
    NEW="${3:-}"
    if [ -z "$OLD" ] || [ -z "$NEW" ]; then
        echo "error: --bench-compare needs two trajectory files, e.g.:" >&2
        echo "  ./ci.sh --bench-compare BENCH_pr4.json BENCH_pr5.json" >&2
        exit 2
    fi
    stage "bench_compare $OLD $NEW"
    cargo run --release -q -p mpc-bench --bin bench_compare --offline -- "$OLD" "$NEW"
    summary
    exit 0
fi

if [ "${1:-}" = "--bench" ]; then
    # Bench smoke: every criterion-lite group on a reduced sample budget,
    # recorded to BENCH_<label>.json at the repo root so the perf
    # trajectory accumulates PR over PR. The schema is documented in the
    # file's "_schema" field; per-benchmark records come from the
    # harness's MPC_TESTKIT_BENCH_JSON hook (crates/testkit/src/criterion.rs).
    LABEL="${2:-}"
    if [ -z "$LABEL" ]; then
        echo "error: --bench needs a label naming the output file, e.g.:" >&2
        echo "  ./ci.sh --bench pr4    # -> BENCH_pr4.json" >&2
        exit 2
    fi
    BENCH_OUT="BENCH_${LABEL}.json"
    stage "cargo bench (reduced budget) -> ${BENCH_OUT}"
    # Absolute path: cargo runs bench binaries with cwd at their package
    # root, not the workspace root.
    BENCH_JSONL="$(pwd)/target/bench_results.jsonl"
    rm -f "$BENCH_JSONL"
    MPC_TESTKIT_BENCH_JSON="$BENCH_JSONL" \
    MPC_TESTKIT_SAMPLES=5 \
    MPC_TESTKIT_SAMPLE_MS=20 \
        cargo bench --workspace --offline
    NPROC=$( (nproc || sysctl -n hw.ncpu || echo 1) 2>/dev/null | head -n1 )
    # Four-worker arms measure nothing on a host that cannot run four
    # workers: keep them out of the recorded trajectory there.
    if [ "$NPROC" -le 2 ]; then
        grep -v '/pooled4"' "$BENCH_JSONL" > "$BENCH_JSONL.kept"
        mv "$BENCH_JSONL.kept" "$BENCH_JSONL"
    fi
    {
        printf '{\n'
        printf '  "_schema": "results[]: one record per criterion-lite benchmark; group/bench name the benchmark (label = group/bench), median_ns|min_ns|max_ns are per-iteration wall-clock over `samples` samples of `iters_per_sample` iterations; allocs_per_iter (optional) is the mean heap-allocation count per iteration from the bench binary'\''s counting global allocator (exact and host-noise-free, present since pr5); bindings_per_iter (optional) is the mean join-bindings-visited count per iteration from mpc_data::join::visited_bindings_total (present since pr7); scan_bytes_per_iter (optional) is the mean relation bytes scanned to (re)build planner statistics per iteration from mpc_data::stats_scan_bytes_total — flat under sketch-backed append, linear under exact rebuild (present since pr8); rows_materialized_per_iter (optional) is the mean answer rows materialized into AnswerSets per iteration from mpc_data::rows_materialized_total — ~0 under aggregate pushdown, Θ(output) when answers materialize (present since pr9). Counters are exact and host-noise-free; bench_compare trusts them over wall-clock for µs-scale benches (which flag only past 100%%, vs 10%% elsewhere). backend is the default executor during the run (MPCSKEW_THREADS or all cores; individual benches may pin their own backend, named in `bench`). nproc is the CPU budget of the benching host. Compare two files with ./ci.sh --bench-compare OLD NEW.",\n'
        printf '  "pr": "%s",\n' "$LABEL"
        printf '  "generated_by": "ci.sh --bench %s",\n' "$LABEL"
        printf '  "nproc": %s,\n' "$NPROC"
        printf '  "backend": "%s",\n' "${MPCSKEW_THREADS:-default(all cores)}"
        printf '  "sample_budget": {"samples": 5, "sample_ms": 20},\n'
        printf '  "results": [\n'
        sed 's/^/    /; $!s/$/,/' "$BENCH_JSONL"
        printf '  ]\n}\n'
    } > "$BENCH_OUT"
    echo "wrote $BENCH_OUT ($(grep -c . "$BENCH_JSONL") benchmarks)"
    summary
    exit 0
fi

stage "cargo build --release"
cargo build --release --offline

stage "mpcskew serve smoke (LOAD/QUERY/APPEND/STATS/SHUTDOWN over stdin, then over TCP)"
SERVE_SCRIPT='LOAD S1 2 0,1;1,1;2,3
LOAD S2 2 5,1;6,3;7,9
QUERY S1(x,z), S2(y,z) rows
QUERY Q(z; count, sum(x)) :- S1(x,z), S2(y,z) rows
APPEND S2 8,1
QUERY S1(x,z), S2(y,z)
STATS
SHUTDOWN
'
SMOKE_DIR=target/serve_smoke
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
printf '%s' "$SERVE_SCRIPT" \
    | ./target/release/mpcskew serve --domain 16 --p 4 --threads 1 > "$SMOKE_DIR/stdio.out"
serve_expect() {
    grep -q "$1" "$SMOKE_DIR/stdio.out" || {
        echo "serve smoke: missing \`$1\` in:" >&2
        cat "$SMOKE_DIR/stdio.out" >&2
        exit 1
    }
}
serve_expect '^ok loaded S2 arity=2 tuples=3$'
serve_expect '^ok answers=3 .*cache=miss'
serve_expect '^0 1 5$'            # first joined row, echoed sorted
# Aggregate pushdown over the wire: group-by z, COUNT + SUM(x), answers
# never materialized — z=1 has derivations (0,_,1),(1,_,1), z=3 has (2,_,3).
serve_expect '^ok groups=2 '
serve_expect '^1 | 2 1$'
serve_expect '^3 | 1 2$'
serve_expect '^ok appended S2 +1 tuples=4$'
serve_expect '^ok answers=5 '     # the appended tuple joins twice
# serve defaults to sketch-backed statistics; STATS reports the mode and
# one sketch telemetry record (summary bytes, capacity, max error bound).
# Two invalidations: the APPEND changed the stats fingerprint under both
# cached plans (the plain query and its aggregate twin).
serve_expect 'invalidations=2 evictions=0 relations=2 mode=sketch$'
serve_expect '^sketch bytes=[0-9][0-9]* capacity=[0-9][0-9]* max_error=[0-9][0-9]*$'
serve_expect '^ok bye$'           # SHUTDOWN acknowledged, clean exit

# The socket front must say the same thing byte for byte: spawn the server
# on an OS-picked port, read the banner, send the same script through
# bash's /dev/tcp and read replies until the server closes (SHUTDOWN).
./target/release/mpcskew serve --domain 16 --p 4 --threads 1 --listen 127.0.0.1:0 \
    > "$SMOKE_DIR/banner" &
SERVE_PID=$!
SERVE_ADDR=""
TRIES=0
while [ -z "$SERVE_ADDR" ] && [ "$TRIES" -lt 50 ]; do
    sleep 0.1
    SERVE_ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/banner")
    TRIES=$((TRIES + 1))
done
if [ -z "$SERVE_ADDR" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
    echo "serve smoke: no \`listening on\` banner from --listen" >&2
    exit 1
fi
bash -c 'exec 3<>"/dev/tcp/${1%:*}/${1##*:}" && printf "%s" "$2" >&3 && cat <&3' \
    serve-smoke "$SERVE_ADDR" "$SERVE_SCRIPT" > "$SMOKE_DIR/tcp.out" || {
    kill "$SERVE_PID" 2>/dev/null || true
    echo "serve smoke: TCP client failed against $SERVE_ADDR" >&2
    exit 1
}
wait "$SERVE_PID"
cmp "$SMOKE_DIR/stdio.out" "$SMOKE_DIR/tcp.out" || {
    echo "serve smoke: TCP replies differ from the stdin replies" >&2
    exit 1
}

stage "cargo test -q  (MPCSKEW_THREADS=1: sequential backend)"
MPCSKEW_THREADS=1 cargo test -q --workspace --offline --no-fail-fast

stage "cargo test -q  (MPCSKEW_THREADS=4: persistent worker pool)"
MPCSKEW_THREADS=4 cargo test -q --workspace --offline --no-fail-fast

# Chaos stage: the failpoint suite again, but with the registry armed from
# the environment (the production arming path) — delay-only sites, so
# results stay bit-identical while every baseline query exercises the
# injected-latency path. Panic sites are armed by the suite itself.
stage "chaos: MPCSKEW_FAILPOINTS armed failpoint suite"
MPCSKEW_FAILPOINTS="shuffle:delay:1ms,local_join:delay:1ms" \
    cargo test -q --offline --no-fail-fast --test chaos

if [ "${1:-}" = "--quick" ]; then
    summary
    exit 0
fi

stage "cargo test -q -- --ignored   (heavy-output stress cases, pooled backend)"
MPCSKEW_THREADS=4 cargo test -q --workspace --offline --no-fail-fast -- --ignored

stage "cargo fmt --all -- --check"
cargo fmt --all -- --check

stage "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

stage "cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
# The public API (Engine/Plan/RunOutcome and everything else) must ship
# documented: broken intra-doc links and missing docs fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# API-surface guard: a budget is a property of the evaluation, so a file
# under crates/ may not define both `pub fn X` and `pub fn try_X` beyond
# the four pairs below (two pinned by mpcbench, two with dozens of callers
# on each side). The per-file `pub fn` counts go in the stage name, hence
# the summary, so surface growth shows up PR over PR.
PUB_FNS=""
for f in crates/core/src/engine.rs crates/core/src/service.rs crates/core/src/wire.rs \
    crates/sim/src/cluster.rs crates/sim/src/topology.rs crates/data/src/join.rs; do
    PUB_FNS="$PUB_FNS $(basename "$f" .rs)=$(grep -c 'pub fn ' "$f")"
done
stage "API surface: no new pub fn X / try_X twins (pub fn:$PUB_FNS)"
TWIN_ALLOWLIST='crates/core/src/engine.rs:execute
crates/core/src/service.rs:answers
crates/sim/src/cluster.rs:run_round_on
crates/sim/src/cluster.rs:all_answers'
TWINS=$(grep -rno 'pub fn try_[a-z_0-9]*' crates --include='*.rs' \
    | sed 's/^\([^:]*\):[0-9]*:pub fn try_/\1:/' \
    | while IFS=: read -r file name; do
        if grep -q "pub fn $name[(<]" "$file"; then echo "$file:$name"; fi
    done | grep -vxF "$TWIN_ALLOWLIST" || true)
if [ -n "$TWINS" ]; then
    echo "pub fn X / pub fn try_X twins outside the allowlist in ci.sh:" >&2
    echo "$TWINS" >&2
    exit 1
fi

# No fork left behind: the shuffle is one route -> count -> scatter kernel
# over per-atom compiled routes. The per-tuple subcube odometer, its
# scratch, and the two older shuffle paths must not come back beside it,
# not even as a name in a comment.
stage "one shuffle kernel: no subcube_into / SubcubeScratch / RoutedChunk / route_into_fragments / pipelined pool paths"
FORKS=$(grep -rn "subcube_into\|SubcubeScratch\|RoutedChunk\|route_into_fragments\|run_chunks_pipelined\|run_jobs_pipelined\|consume_in_order" \
    crates src tests || true)
if [ -n "$FORKS" ]; then
    echo "deleted shuffle/routing paths are named again:" >&2
    echo "$FORKS" >&2
    exit 1
fi

# One share LP per plan: `L_lower` is the LP (5) optimum (Theorem 3.6), so
# nothing on the query path may enumerate packing vertices. The closed
# form stays behind `mpcskew bounds`, the experiments and the tests. And
# one *model* per share LP: the least-communication tie-break is a third
# phase on the tableau `solve_share_lp` already solved, so shares.rs builds
# exactly one `LinearProgram` and solves it exactly once.
stage "one share LP: no l_lower / packing_vertices in the planner files; one LinearProgram, one solve in shares.rs"
ENUMERATORS=$(grep -n "l_lower\|packing_vertices" \
    crates/core/src/engine.rs crates/core/src/service.rs crates/core/src/skew_general.rs \
    crates/core/src/skew_join.rs crates/core/src/hypercube.rs || true)
if [ -n "$ENUMERATORS" ]; then
    echo "the packing-vertex enumeration is named on the query path again:" >&2
    echo "$ENUMERATORS" >&2
    exit 1
fi
MODELS=$(grep -c "LinearProgram::new" crates/core/src/shares.rs || true)
SOLVES=$(grep -c "\.solve\(_lex\)\?(" crates/core/src/shares.rs || true)
if [ "$MODELS" -ne 1 ] || [ "$SOLVES" -ne 1 ]; then
    echo "crates/core/src/shares.rs builds $MODELS LinearProgram(s) and solves $SOLVES time(s); solve_share_lp must build one and solve it once" >&2
    exit 1
fi

stage "cargo bench --no-run"
cargo bench --workspace --offline --no-run

# The judged benchmark is its own package (mpcbench/, empty [workspace]),
# so nothing above notices when a refactor breaks the Rust API its
# layers.rs compiles against or the protocol replies it checks. Build and
# test it against the crates, then drive every workload once end to end.
stage "mpcbench: unit tests + --smoke (all six workloads correct, none failed)"
cargo test --release --offline --manifest-path mpcbench/Cargo.toml
MPCBENCH_STATUS=0
MPCBENCH_OUT=$(bash mpcbench/run.sh --smoke) || MPCBENCH_STATUS=$?
echo "$MPCBENCH_OUT"
if [ "$MPCBENCH_STATUS" -ne 0 ] \
    || echo "$MPCBENCH_OUT" | grep -q '"correct": false' \
    || echo "$MPCBENCH_OUT" | grep -Eq '"failed": [1-9]'; then
    echo "mpcbench --smoke: exit $MPCBENCH_STATUS, or a workload reported wrong or failed replies" >&2
    exit 1
fi

# Bench-trajectory comparison: newest recorded baseline vs its predecessor.
# Informational — medians recorded on different commits of this noisy
# single-core host; the tool prints deltas and flags >10% regressions, and
# a fresh pair is recorded per PR via `./ci.sh --bench prN`. "Newest" is by
# the numeric part of the label (pr3 < pr4 < ... < pr10), not mtime — on a
# fresh checkout every committed file shares one mtime.
BENCH_SORTED=$(for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    n=$(printf '%s' "$f" | sed 's/[^0-9]//g')
    printf '%012d %s\n' "${n:-0}" "$f"
done | sort -n | awk '{print $2}')
BENCH_NEWEST=$(printf '%s\n' "$BENCH_SORTED" | sed -n '$p')
BENCH_PREV=$(printf '%s\n' "$BENCH_SORTED" | sed -n '$!h; ${x;p;}' | sed -n '$p')
if [ -n "$BENCH_NEWEST" ] && [ -n "$BENCH_PREV" ]; then
    stage "bench trajectory: $BENCH_PREV vs $BENCH_NEWEST"
    cargo run --release -q -p mpc-bench --bin bench_compare --offline -- \
        "$BENCH_PREV" "$BENCH_NEWEST"
fi

stage_end
echo "==> ci.sh: all green"
summary
