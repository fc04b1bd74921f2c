#!/usr/bin/env sh
# Tier-1 verification for the mpc-skew workspace. Hermetic: no network, no
# registry dependencies (the only external surface, proptest/criterion, is
# replaced in-tree by crates/testkit).
#
#   ./ci.sh              # build + serve smoke + both-backend tests + fmt
#                        # + lint + docs + API-surface, one-shuffle-kernel,
#                        # one-share-LP (one model, one solve),
#                        # four-algorithm (no baselines in the engine),
#                        # one-ground-truth/one-freshness-check,
#                        # one-statistics-surface (incl. one sketch-backed
#                        # Stats, no skew-join config), one-executor,
#                        # one-query-path, one-stop/one-narrowing,
#                        # one-enumeration-per-question and one-row-sort
#                        # guards
#                        # + bench-compile
#                        # + mpcbench (its unit tests and a --smoke run)
#   ./ci.sh --quick      # tier-1 gate only (what the driver enforces);
#                        # `cargo test` includes the rustdoc doctests
#   ./ci.sh --bench prN  # bench smoke only (reduced budget) -> BENCH_prN.json;
#                        # the label is required so medians stay comparable
#                        # PR over PR; run --quick or the full gate separately
#   ./ci.sh --bench-compare OLD.json NEW.json
#                        # per-benchmark median deltas and exact counter
#                        # transitions between two recorded trajectory files
#                        # (information only: no verdicts; the full gate runs
#                        # this against the newest two BENCH_*.json)
#
# The test suite runs twice — pinned to the sequential backend
# (MPCSKEW_THREADS=1) and to the threaded one (MPCSKEW_THREADS=4: the
# calling thread and three scoped threads per parallel loop) — so every
# test doubles as a differential check across the two executors. Every `cargo test` passes --no-fail-fast: one red crate must
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
        grep -v '/threads4"' "$BENCH_JSONL" > "$BENCH_JSONL.kept"
        mv "$BENCH_JSONL.kept" "$BENCH_JSONL"
    fi
    {
        printf '{\n'
        printf '  "_schema": "results[]: one record per criterion-lite benchmark; group/bench name the benchmark (label = group/bench), median_ns|min_ns|max_ns are per-iteration wall-clock over `samples` samples of `iters_per_sample` iterations; allocs_per_iter (optional) is the mean heap-allocation count per iteration from the bench binary'\''s counting global allocator (exact and host-noise-free, present since pr5); bindings_per_iter (optional) is the mean join-bindings-visited count per iteration from mpc_data::join::visited_bindings_total (present since pr7); scan_bytes_per_iter (optional) is the mean relation bytes scanned to (re)build planner statistics per iteration from mpc_data::stats_scan_bytes_total — flat under sketch-backed append, linear under exact rebuild (present since pr8); rows_materialized_per_iter (optional) is the mean answer rows materialized into AnswerSets per iteration from mpc_data::rows_materialized_total — ~0 under aggregate pushdown, Θ(output) when answers materialize (present since pr9). Counters are exact and host-noise-free and are the evidence; medians are information only (bench_compare prints their deltas and calls none a regression). backend is the default executor during the run (MPCSKEW_THREADS or all cores; individual benches may pin their own backend, named in `bench`). nproc is the CPU budget of the benching host. Compare two files with ./ci.sh --bench-compare OLD NEW.",\n'
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

stage "mpcskew serve smoke (LOAD/QUERY/APPEND/STATS/SHUTDOWN over stdin, then over TCP, then two TCP clients at once)"
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
serve_listen() {
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
}
serve_listen
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

# Two read-only clients at once against one server. A warm-up client loads
# the relations and caches every plan; then two clients send the same
# read-only script together, and each must read byte for byte what that
# script reads over stdin after the same warm-up. A client reads as many
# lines as the stdin replies hold and hangs up; a last one stops the server.
READ_SCRIPT=''
for _ in 1 2 3 4 5 6; do
    READ_SCRIPT="${READ_SCRIPT}QUERY S1(x,z), S2(y,z) rows
QUERY Q(z; count, sum(x)) :- S1(x,z), S2(y,z) rows
QUERY S1(x,z), S2(y,z) p=2 seed=5 algo=hc rows
"
done
WARM_SCRIPT="$(printf '%s' "$SERVE_SCRIPT" | sed -n '1,2p')
$READ_SCRIPT"
serve_stdin() {
    printf '%s' "$1" | ./target/release/mpcskew serve --domain 16 --p 4 --threads 1
}
serve_stdin "$WARM_SCRIPT" > "$SMOKE_DIR/warm.out"
serve_stdin "$WARM_SCRIPT$READ_SCRIPT" > "$SMOKE_DIR/warm_read.out"
tail -c +$(($(wc -c < "$SMOKE_DIR/warm.out") + 1)) "$SMOKE_DIR/warm_read.out" \
    > "$SMOKE_DIR/read.out"
if grep -q 'cache=miss' "$SMOKE_DIR/read.out" || ! grep -q 'cache=hit' "$SMOKE_DIR/read.out"; then
    echo "serve smoke: the read-only script is not all cache hits after its warm-up" >&2
    exit 1
fi
tcp_client() {
    timeout 30 bash -c \
        'exec 3<>"/dev/tcp/${1%:*}/${1##*:}" && printf "%s" "$2" >&3 && head -n "$3" <&3' \
        tcp-client "$SERVE_ADDR" "$1" "$2"
}
serve_listen
tcp_client "$WARM_SCRIPT" "$(wc -l < "$SMOKE_DIR/warm.out")" > "$SMOKE_DIR/tcp_warm.out"
READ_LINES=$(wc -l < "$SMOKE_DIR/read.out")
tcp_client "$READ_SCRIPT" "$READ_LINES" > "$SMOKE_DIR/tcp_read1.out" &
CLIENT1=$!
tcp_client "$READ_SCRIPT" "$READ_LINES" > "$SMOKE_DIR/tcp_read2.out" &
CLIENT2=$!
CLIENTS_OK=1
wait "$CLIENT1" || CLIENTS_OK=0
wait "$CLIENT2" || CLIENTS_OK=0
tcp_client 'SHUTDOWN
' 1 > "$SMOKE_DIR/tcp_bye.out" || CLIENTS_OK=0
if [ "$CLIENTS_OK" = 0 ]; then
    kill "$SERVE_PID" 2>/dev/null || true
    echo "serve smoke: a concurrent TCP client failed against $SERVE_ADDR" >&2
    exit 1
fi
wait "$SERVE_PID"
for out in tcp_warm:warm tcp_read1:read tcp_read2:read; do
    cmp "$SMOKE_DIR/${out%%:*}.out" "$SMOKE_DIR/${out##*:}.out" || {
        echo "serve smoke: concurrent TCP client's ${out%%:*} replies differ from stdin's" >&2
        exit 1
    }
done

stage "cargo test -q  (MPCSKEW_THREADS=1: sequential backend)"
MPCSKEW_THREADS=1 cargo test -q --workspace --offline --no-fail-fast

stage "cargo test -q  (MPCSKEW_THREADS=4: threaded backend)"
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

stage "cargo test -q -- --ignored   (heavy-output stress cases, threaded backend)"
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
# the three pairs below (two pinned by mpcbench, one with dozens of callers
# on each side). A `try_X` whose only caller is in its own crate is
# `pub(crate)`, not a twin. The per-file `pub fn` counts go in the stage name, hence
# the summary, so surface growth shows up PR over PR.
PUB_FNS=""
for f in crates/core/src/engine.rs crates/core/src/service.rs crates/core/src/wire.rs \
    crates/sim/src/cluster.rs crates/sim/src/topology.rs crates/data/src/join.rs; do
    PUB_FNS="$PUB_FNS $(basename "$f" .rs)=$(grep -c 'pub fn ' "$f")"
done
stage "API surface: no new pub fn X / try_X twins (pub fn:$PUB_FNS)"
TWIN_ALLOWLIST='crates/core/src/service.rs:answers
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

# The engine serves the paper's four algorithms (auto, hc, skew-join,
# general). The baselines it argues against — hash join, fragment-replicate,
# equal shares, multi-round — are routers the experiments and tests drive
# directly: the engine, service, wire and CLI may not name them, and no
# `Algorithm` variant for them may come back anywhere. The stage name
# carries engine.rs's size and the two largest public surfaces.
ENGINE_SIZE="engine.rs $(wc -l < crates/core/src/engine.rs) lines, pub fn engine=$(grep -c 'pub fn ' crates/core/src/engine.rs) service=$(grep -c 'pub fn ' crates/core/src/service.rs)"
stage "the engine serves four algorithms: no baselines in engine/service/wire/mpcskew ($ENGINE_SIZE)"
BASELINES=$(grep -n "HashJoinRouter\|FragmentReplicateRouter\|run_multi_round\|MultiRoundResult" \
    crates/core/src/engine.rs crates/core/src/service.rs crates/core/src/wire.rs \
    src/bin/mpcskew.rs || true)
VARIANTS=$(grep -rnE "Algorithm::(HashJoin|FragmentReplicate|HyperCubeEqual|MultiRound)" \
    crates src tests examples || true)
if [ -n "$BASELINES$VARIANTS" ]; then
    echo "a baseline is served by the engine again:" >&2
    printf '%s\n%s\n' "$BASELINES" "$VARIANTS" | sed '/^$/d' >&2
    exit 1
fi

# One path per question. Ground truth is one sequential join (no
# hash-partitioned second oracle), plan freshness is decided once at
# ingest (APPEND/LOAD drop stale plans; a lookup never re-checks), and the
# unused hypergraph module stays gone — not even as a name in a comment.
# The ratchet counts `pub fn`s under crates/*/src whose name appears in no
# other .rs file; there are none. A function only its own crate calls is
# `pub(crate)` or private, so the compiler's dead-code lint guards it.
UNCALLED_MAX=0
UNCALLED=0
for entry in $(grep -rno 'pub fn [a-z_0-9]*' crates/*/src --include='*.rs' \
    | sed 's/^\([^:]*\):[0-9]*:pub fn /\1:/'); do
    if ! grep -rlw --include='*.rs' -- "${entry##*:}" crates src tests examples mpcbench/src \
        | grep -qvxF "${entry%%:*}"; then
        UNCALLED=$((UNCALLED + 1))
    fi
done
stage "one ground truth, one freshness check (pub fn named nowhere else: $UNCALLED, max $UNCALLED_MAX)"
SECOND_PATHS=$(grep -rn "partition_join\|PartitionedJoin\|BUCKETS_PER_WORKER\|CacheStatus::Invalidated\|mod hypergraph" \
    crates src tests examples || true)
if [ -n "$SECOND_PATHS" ]; then
    echo "a deleted second ground truth, lookup-time invalidation or the hypergraph module is back:" >&2
    echo "$SECOND_PATHS" >&2
    exit 1
fi
if [ "$UNCALLED" -gt "$UNCALLED_MAX" ]; then
    echo "$UNCALLED pub fns are named in no other .rs file (max $UNCALLED_MAX): delete them or use them" >&2
    exit 1
fi

# One statistics surface. An estimate is one overcount interval (no error
# direction, no symmetric sampling adapter), heavy estimates are binned by
# one rule (`HeavyHitters::of` + `BinnedHitters::build`), the engine plans
# from `Engine::stats` or exact statistics (no mode knob), a service's
# stats mode is only a summary capacity, and the plan cache has one
# capacity. The planner reads cardinalities and heavy hitters only (no
# point lookup of a light count), and the service reads them from its
# sketches alone (no exact-scan fallback). Both skew planners read heavy
# hitters one way, `plan_with` over a `Stats` source (no §4.1 entry point
# over raw frequency maps, no Bernoulli sampler beside the sketch), and a
# plan depends on `(q, p, seed)` and that source alone (no §4.1 config
# knob: the grid ablation is a statistics view). The service plans through
# the one `SketchStats` over its catalog's lent sketches, so service.rs
# implements no `Stats` of its own. None of the retired names may come
# back, comments included.
stage "one statistics surface: no second estimate shape, binning rule, planner-stats knob, cache-capacity knob, light-count lookup, exact fallback or Stats impl in the service, sampler, raw-map planner or skew-join config"
RETIRED=$(grep -rn "ErrorDirection\|to_estimates\|bin_of_estimate\|must_exceed\|StatsMode::Synthetic\|with_plan_cache_capacity" \
    crates src tests examples || true)
RETIRED="$RETIRED$(grep -rn "mod sampling\|sample_heavy_hitters\|sampled_frequencies\|SampledFrequencies\|recommended_rate\|plan_from_parts" \
    crates src tests examples || true)"
RETIRED="$RETIRED$(grep -nw "fn merge\|fn count\|fn frequency" crates/stats/src/sketch.rs || true)"
RETIRED="$RETIRED$(grep -nw "fn frequency" crates/stats/src/source.rs || true)"
RETIRED="$RETIRED$(grep -n "ExactStats\|stats_view" crates/core/src/service.rs || true)"
RETIRED="$RETIRED$(grep -nw "fn stats_mode" crates/core/src/engine.rs || true)"
RETIRED="$RETIRED$(grep -rn "CatalogStats\|SkewJoinConfig\|use_grids" crates src tests examples || true)"
RETIRED="$RETIRED$(grep -n "impl Stats for" crates/core/src/service.rs || true)"
if [ -n "$RETIRED" ]; then
    echo "a retired statistics path is back:" >&2
    echo "$RETIRED" >&2
    exit 1
fi

# One executor. `Backend::Threads` runs each parallel loop on scoped
# threads (`std::thread::scope`), the calling thread one of them. The
# persistent worker pool, its process-wide registry and its lifecycle
# counters stay gone, not even as a name in a comment — and with them the
# only `unsafe` outside the bench crate's counting allocator.
stage "one executor: no worker pool, registry or lifecycle counters; unsafe only in the counting allocator"
POOL=$(grep -rn "mod pool\|WorkerPool\|pool::global\|spawn_count\|exit_counter\|Backend::Pooled" \
    crates src tests examples || true)
UNSAFE=$(grep -rln "unsafe" crates/*/src src | grep -vxF crates/bench/src/alloc_counter.rs || true)
if [ -n "$POOL$UNSAFE" ]; then
    echo "the worker pool is back, or unsafe code outside crates/bench/src/alloc_counter.rs:" >&2
    printf '%s\n%s\n' "$POOL" "$UNSAFE" | sed '/^$/d' >&2
    exit 1
fi

# One query path. Both serve fronts reach the service through one
# `&Mutex<Service>`, every QUERY runs through `Service::prepare` (under the
# lock) and `PreparedQuery::run` (outside it), `Service::query_spec` is those
# two calls, and concurrent sessions are the only multi-query shape. The cross-query batch
# schedule (BATCH/RUN, the session's queue, the service and engine batch
# fronts) and the trait that let stdio skip the lock stay gone, not even as
# a name in a comment.
stage "one query path: no batch schedule, session queue or ServiceAccess trait"
BATCHED=$(grep -rnE "query_batch|execute_batch|cmd_batch|cmd_run|in_batch|pending_rows|ServiceAccess" \
    crates src tests examples || true)
if [ -n "$BATCHED" ]; then
    echo "the batch schedule or the ServiceAccess trait is back:" >&2
    echo "$BATCHED" >&2
    exit 1
fi

# One way to stop, one way to narrow. A budget trip in the local join is a
# value its probe records and `Join::for_each` returns, never an unwind, so
# join.rs neither raises nor catches a panic and the CLI installs no panic
# hook to keep trips off stderr. The local join narrows only through its
# cached indexes and deduplicates driver values one way, and the load
# report is one loop: the inline-scan narrowing, the linear dedup and the
# chunked report stay gone, not even as a name in a comment.
stage "one way to stop, one way to narrow: no unwinding budget trip, panic hook, inline scan, linear dedup or chunked report"
UNWIND=$(grep -n "panic_any\|catch_unwind\|resume_unwind" crates/data/src/join.rs || true)
UNWIND="$UNWIND$(grep -rn "set_hook\|take_hook" src || true)"
FORKED=$(grep -rnE "Candidates::Inline|filter_into|masked_match|LINEAR_DEDUP_MAX|REPORT_MIN_CHUNK" \
    crates src tests examples || true)
if [ -n "$UNWIND$FORKED" ]; then
    echo "a budget trip unwinds again, a panic hook is back, or a retired local-join/report fork is named:" >&2
    printf '%s\n%s\n' "$UNWIND" "$FORKED" | sed '/^$/d' >&2
    exit 1
fi

# One enumeration per question. Each packing polytope is enumerated in one
# place (`packing_vertices` in packing.rs, `saturating_packing_vertices` in
# residual.rs), over only the rows that can be tight at a vertex, and every
# closed form in bounds.rs is derived from the vertex list its caller
# passes in: no non-test function there enumerates on its own. The 8-atom
# chain's `mpcskew bounds` enumerated its polytope four times over 1 081 575
# subsets (about 30 s); it must finish well inside 10 s.
stage "one enumeration per question: bounds.rs derives from a vertex list, enumerate_vertices has two callers, 8-chain bounds under 10 s"
REENUM=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/bounds.rs \
    | grep -nE '(^|[^a-z_])(packing_vertices|pk)\(' | grep -vE '^[0-9]+: *//' || true)
ENUM_CALLERS=$(grep -rn 'enumerate_vertices(' crates/*/src src --include='*.rs' \
    | grep -v '^crates/lp/src/vertex_enum.rs:' | grep -vE '^[^:]*:[0-9]+: *//' || true)
if [ -n "$REENUM" ] \
    || [ "$(printf '%s\n' "$ENUM_CALLERS" | sed 's/:.*//' | sort)" != "$(printf 'crates/query/src/packing.rs\ncrates/query/src/residual.rs')" ]; then
    echo "a closed form in bounds.rs enumerates the packing polytope itself, or enumerate_vertices has callers besides packing_vertices and saturating_packing_vertices:" >&2
    printf '%s\n%s\n' "$REENUM" "$ENUM_CALLERS" | sed '/^$/d' >&2
    exit 1
fi
CHAIN8="S1(x1,x2), S2(x2,x3), S3(x3,x4), S4(x4,x5), S5(x5,x6), S6(x6,x7), S7(x7,x8), S8(x8,x9)"
timeout 10 ./target/release/mpcskew bounds "$CHAIN8" \
    --cards 65536,65536,65536,65536,65536,65536,65536,65536 --p 64 > /dev/null || {
    echo "mpcskew bounds on the 8-atom chain failed or took over 10 s" >&2
    exit 1
}

# One row sort. `mpc_data::answers::sort_rows` is the only function that
# sorts row-major rows: answer sets, relations and the per-server answer
# count call it. The per-caller sorts it replaced (the cluster's distinct
# row counter, the answer set's distinct count, the cluster's materializing
# answer count) stay gone, not even as a name in a comment, and no index of
# row slices (`chunks_exact(..).collect()`) is built outside its body.
stage "one row sort: sort_rows is the only row sort; no distinct_rows, sorted_distinct_count, Cluster::answer_count or row-slice index outside it"
RESORTED=$(grep -rn "distinct_rows\|sorted_distinct_count" crates src tests || true)
RESORTED="$RESORTED$(grep -n "pub fn answer_count" crates/sim/src/cluster.rs || true)"
ROW_INDEX='chunks_exact\([^)]*\)[[:space:]]*\.collect'
ROW_INDEXES=$(grep -rnE "$ROW_INDEX" crates src tests --include='*.rs' || true)
IN_SORT_ROWS=$(sed -n '/^pub fn sort_rows(/,/^}/p' crates/data/src/answers.rs | grep -cE "$ROW_INDEX" || true)
if [ -n "$RESORTED" ] || [ "$IN_SORT_ROWS" -ne 1 ] \
    || [ "$(printf '%s\n' "$ROW_INDEXES" | grep -c .)" -ne 1 ]; then
    echo "a second row sort is back, or sort_rows no longer holds the one row-slice index:" >&2
    printf '%s\n%s\n' "$RESORTED" "$ROW_INDEXES" | sed '/^$/d' >&2
    exit 1
fi

# One placement. A router emits fragment keys and the plan's placement
# maps them to the servers holding them: the fold of virtual servers onto
# `p` is one expression, in crates/sim/src/placement.rs. No router names
# holders any more, and the skew algorithms fold nothing themselves (a
# hash reduced to servers, `% self.p as u64`, is not a fold).
stage "one placement: no Router::holders, no fold in the skew routers, one % self.p fold in placement.rs"
FOLDS=$(grep -rn "fn holders" crates || true)
FOLDS="$FOLDS$(grep -nE 'fn fold\b|% *self\.p\b' crates/core/src/skew_join.rs crates/core/src/skew_general.rs || true)"
FOLD_SITES=$(grep -rnE '% *self\.p\b' crates src --include='*.rs' | grep -vE '% *self\.p as ' || true)
if [ -n "$FOLDS" ] || [ "$(printf '%s\n' "$FOLD_SITES" | grep -c .)" -ne 1 ] \
    || ! printf '%s\n' "$FOLD_SITES" | grep -q '^crates/sim/src/placement.rs:'; then
    echo "a router names holders, a skew router folds, or a second fold is back outside the placement:" >&2
    printf '%s\n%s\n' "$FOLDS" "$FOLD_SITES" | sed '/^$/d' >&2
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
# Informational — medians recorded on different commits of a noisy host at
# a reduced sample budget swing 2x on untouched groups, so the tool prints
# their deltas beside the exact counters and calls nothing a regression; a
# fresh record is made per PR via `./ci.sh --bench prN`. "Newest" is by
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
