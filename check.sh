#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, the unsafe audit and the race-freedom
# matrix, then the full test suite, and last the mutation lane. Everything
# runs offline. Every lane runs, whether or not one before it failed; the
# failed lanes are listed at the end, and then the gate exits 1.
set -euo pipefail
cd "$(dirname "$0")"

# The lanes' shared scratch directory and helpers.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
REPRO="$PWD/target/release/repro"
# Every repro command below that runs UPDATE at P > 1 goes through sweep,
# whose `timeout` turns a hang into a failed gate instead of a wedged one;
# a clean matrix run takes ~5 s.
sweep() {
    local rc=0
    (cd "$SMOKE_DIR" && timeout 120 "$REPRO" "$@" >/dev/null) || rc=$?
    if [ "$rc" -eq 124 ]; then
        echo "repro $* still running after 120 s"
    fi
    return "$rc"
}
# eval_gate BINARY SYMBOL PATTERN...: SYMBOL's listing in BINARY matches
# every PATTERN and issues no scalar sqrt or divide.
eval_gate() {
    local bin="$1" sym="$2" asm pat
    shift 2
    asm="$(objdump -d --no-show-raw-insn "$bin" | awk "/<[^>]*$sym[^>]*>:\$/,/^\$/")"
    [ -n "$asm" ] || { echo "$bin has no $sym symbol"; return 1; }
    for pat in "$@"; do
        grep -qE "$pat" <<<"$asm" || { echo "$sym issues no $pat"; return 1; }
    done
    if grep -qE "v(sqrt|div)s[sd] " <<<"$asm"; then
        echo "$sym issues a scalar sqrt or divide:"
        grep -E "v(sqrt|div)s[sd] " <<<"$asm"
        return 1
    fi
}

FAILED=()
# lane TITLE FUNCTION: run FUNCTION in a subshell under `set -e`, so that its
# first failing command ends it, and record TITLE if it failed.
lane() {
    echo "== $1 =="
    set +e
    (
        set -e
        "$2"
    )
    local rc=$?
    set -e
    if [ "$rc" -ne 0 ]; then
        echo "== lane failed (exit $rc): $1 =="
        FAILED+=("$1")
    fi
}

fmt_lane() {
    cargo fmt --all -- --check
}
lane "cargo fmt --check" fmt_lane

doc_drift_lane() {
    # Each crate is held to its own table: the rows between its "### crates/<dir>"
    # heading in section 2 and the first line after them that is not a table row.
    for krate in core:bh-core ssmp:ssmp serve:bh-serve; do
        dir="${krate%%:*}"
        table="$(awk -v h="### crates/$dir " 'index($0, h) == 1 { f = 1; next }
            f && /^\|/ { print; t = 1; next } t { exit }' DESIGN.md)"
        for m in $(sed -n 's/^pub mod \([a-z_]*\);$/\1/p' "crates/$dir/src/lib.rs"); do
            grep -q "^| \`$m[\`:]" <<<"$table" || {
                echo "DESIGN.md section 2 does not list ${krate#*:} module $m"; exit 1; }
        done
    done
}
lane "doc drift (every pub mod of bh-core, ssmp and bh-serve is in its DESIGN.md module table)" doc_drift_lane

clippy_lane() {
    cargo clippy --workspace --all-targets --offline -- -D warnings
}
lane "cargo clippy (deny warnings)" clippy_lane

unsafe_audit_lane() {
    cargo test --offline -q --test unsafe_audit
}
lane "unsafe audit" unsafe_audit_lane

sync_primitives_lane() {
    # Everything below synchronizes through these two, and a lost wake-up is a
    # rare event one run will not show, so a broken primitive should fail here
    # first and by name. Built outside the time limit; one run takes ~0.6 s.
    cargo test --offline --release -q -p bh-core --no-run
    timeout 120 bash -c \
        'for _ in $(seq 20); do cargo test --offline --release -q -p bh-core sync:: || exit 1; done'
    # All of bh-core's unit tests once in the release build: the shape that
    # ships, and where a check left in a debug_assert! goes missing.
    cargo test --offline --release -q -p bh-core --lib
}
lane "sync primitives (RawLock / SenseBarrier unit tests, 20 runs)" sync_primitives_lane

race_freedom_lane() {
    cargo test --offline -q --test race_freedom
}
lane "race-freedom matrix" race_freedom_lane

schedule_lane() {
    # Round-robin schedule matrix over all six algorithms, plus the
    # bounded-exhaustive passes: MORTON's sort-and-emit kernel, SPACE's whole
    # simulation at n = 8 (408 schedules) and the five ordering kernels, each
    # certified over its whole bounded schedule space. The mutants that show
    # these checkers catch what they claim are scored by the mutation lane,
    # the last lane below.
    cargo test --offline -q --test schedule_matrix --test schedule_mutation
}
lane "schedule-exploration verify lane" schedule_lane

force_kernel_lane() {
    # The kernel against seq_accel/seq_run (exact interaction totals, ≤1e-12
    # velocities, MORTON bitwise), the group-window property test, and the
    # group-size race/schedule cells (the matrices above cover the default
    # group_size = 64; the cells add 16, the old default, and the edges; both
    # lanes above already ran them, as grouped_force_kernel_*).
    # flat_force runs twice: the debug build keeps the kernel's count-tiling
    # assertion, the release build is the auto-vectorised shape that ships.
    cargo test --offline -q --test flat_force
    cargo test --offline --release -q --test flat_force
}
lane "force kernel lane (sequential-reference parity + group-size matrix cells)" force_kernel_lane

build_lane() {
    # default-members covers the workspace, so this also produces the
    # target/release/repro and serve the lanes below run.
    cargo build --offline --release
}
lane "build (release)" build_lane

vectorisation_lane() {
    # The evaluation's speed rests on eval_subgroup issuing packed f32
    # vsqrtps/vdivps for its lanes' 1/r^3 and packed fused multiply-adds for
    # their r^2 and sums, the FP-port work that bounds it (DESIGN.md section 5b).
    # On a target with AVX-512F that is force/avx512.rs: f64 offsets, r^2 and
    # sums on zmm, the eight f32 lanes on one ymm, and its list builder packs
    # each sub-group's visited ranks with vpcompressd. Elsewhere it is the
    # portable loop, which LLVM must vectorise; inlined or reshaped it drops to
    # one scalar sqrt and divide per lane with every test still green, so a
    # scalar vsqrts[sd]/vdivs[sd] fails either gate.
    # The build's target features: RUSTFLAGS if set, else .cargo/config.toml's.
    BUILD_FLAGS="${RUSTFLAGS-$(sed -n 's/^rustflags = \[\(.*\)\]$/\1/p' .cargo/config.toml | tr -d '",')}"
    if rustc --print cfg $BUILD_FLAGS | grep -qx 'target_feature="avx512f"'; then
        eval_gate target/release/repro 'avx512[^>]*eval_subgroup' \
            'vsubpd +%zmm' 'vmulpd +%zmm' 'vfmadd[0-9]+pd +%zmm' 'vsqrtps +%ymm' 'vdivps +%ymm'
        eval_gate target/release/repro 'avx512[^>]*compress_entries' 'vpcompressd +%zmm'
    else
        eval_gate target/release/repro eval_subgroup 'vsqrtps +%[xy]mm' 'vdivps +%[xy]mm'
    fi
}
lane "force evaluator vectorisation (packed fused f64, packed f32 sqrt and divide in eval_subgroup)" vectorisation_lane

portable_lane() {
    # A target without AVX-512F evaluates with the portable four-lane loop, which
    # the native build above compiles only into its unit tests: build for
    # x86-64-v3 in a target directory of its own, run the kernel's unit tests and
    # flat_force there, and hold that build's eval_subgroup to the gate above
    # (x86-64-v3 has FMA, so its lanes' r^2 and sums are packed vfmadd too).
    portable() { RUSTFLAGS="-C target-cpu=x86-64-v3" cargo "$@" --offline --release --target-dir target/portable; }
    portable test -q -p bh-core --lib force::
    portable test -q --test flat_force
    FLAT_BIN="$(portable test --test flat_force --no-run 2>&1 | sed -n 's/^ *Executable .*(\(.*\))$/\1/p')"
    eval_gate "$FLAT_BIN" eval_subgroup 'vfmadd[0-9]+pd +%[xy]mm' 'vsqrtps +%[xy]mm' 'vdivps +%[xy]mm'
}
lane "portable force evaluator lane (x86-64-v3 build: the four-lane loop)" portable_lane

full_suite_lane() {
    # The lanes above ran these root test targets in the debug build; each of
    # them runs once, so the suite takes every other target of the workspace:
    # the member crates whole, and the root package's library, examples,
    # doc tests and remaining tests/*.rs.
    LANE_TESTS=" unsafe_audit race_freedom schedule_matrix schedule_mutation flat_force "
    REST_TESTS=()
    for t in tests/*.rs; do
        t="$(basename "$t" .rs)"
        [[ "$LANE_TESTS" == *" $t "* ]] || REST_TESTS+=(--test "$t")
    done
    # A failing target hides no other: every target runs, and the lane
    # fails if any did.
    local rc=0
    cargo test --offline -q --no-fail-fast --workspace --exclude bh-repro || rc=1
    cargo test --offline -q --no-fail-fast -p bh-repro --lib --examples "${REST_TESTS[@]}" || rc=1
    cargo test --offline -q --no-fail-fast -p bh-repro --doc || rc=1
    return "$rc"
}
lane "full test suite (every test target the lanes above did not run)" full_suite_lane

ignored_suites_lane() {
    cargo test --offline -q --no-fail-fast --test platform_behavior --test race_freedom -- --ignored
}
lane "paper-scale ignored suites" ignored_suites_lane

repro_smoke_lane() {
    sweep all --scale tiny --jobs 2 --json results.json --trace trace.json
    "$REPRO" check-json "$SMOKE_DIR/results.json"
    "$REPRO" check-json "$SMOKE_DIR/BENCH_tiny.json"
    "$REPRO" check-trace "$SMOKE_DIR/trace.json"
    # The committed treebuild records (simulated metrics only) keep the schema.
    "$REPRO" check-json BENCH_small.json
    # One experiment's own job list: Figure 13's grid is 4 sizes x 6 algorithms
    # on one platform, which at tiny is 2 distinct sizes, so 2 baselines + 12 runs.
    (cd "$SMOKE_DIR" && timeout 120 "$REPRO" fig13 --scale tiny --jobs 2 2>fig13.err >/dev/null)
    grep -q '^\[sweep: 14 job(s)' "$SMOKE_DIR/fig13.err" || {
        echo "fig13 --jobs 2 did not prewarm 14 jobs:"; cat "$SMOKE_DIR/fig13.err"; exit 1; }
    # Figure 11 at tiny: 1 size x processor counts {1, 8} x 6 algorithms, plus
    # the baseline, which is its own PARTREE run at one processor: 12 jobs.
    (cd "$SMOKE_DIR" && timeout 120 "$REPRO" fig11 --scale tiny --jobs 2 2>fig11.err >/dev/null)
    grep -q '^\[sweep: 12 job(s)' "$SMOKE_DIR/fig11.err" || {
        echo "fig11 --jobs 2 did not prewarm 12 jobs:"; cat "$SMOKE_DIR/fig11.err"; exit 1; }
    # treebuild reads its six runs (Origin2000, one size and processor count,
    # six algorithms) from the memo like any figure, and no baseline: 6 jobs.
    (cd "$SMOKE_DIR" && timeout 120 "$REPRO" treebuild --scale tiny --jobs 2 2>treebuild.err >/dev/null)
    grep -q '^\[sweep: 6 job(s)' "$SMOKE_DIR/treebuild.err" || {
        echo "treebuild --jobs 2 did not prewarm 6 jobs:"; cat "$SMOKE_DIR/treebuild.err"; exit 1; }
    # One configuration through `repro run`: a simulated platform, whose one
    # memo entry prints its lock histogram's cells and its communication
    # breakdown without being asked, and a phase-span trace the validator
    # accepts, then the host (a bare NativeEnv run).
    (cd "$SMOKE_DIR" && timeout 120 "$REPRO" run origin2000 morton 512 4 \
        --trace run.json >run.out)
    grep -q '^== Run communication: ' "$SMOKE_DIR/run.out" || {
        echo "run origin2000 printed no communication table:"; cat "$SMOKE_DIR/run.out"; exit 1; }
    "$REPRO" check-trace "$SMOKE_DIR/run.json"
    (cd "$SMOKE_DIR" && timeout 120 "$REPRO" run native space 512 2 >/dev/null)
}
lane "repro smoke run (batched sweep over all six algorithms, --jobs 2) + emitted-JSON schema checks" repro_smoke_lane

report_lane() {
    # Smoke-run the scaling/analysis subsystem and schema-check what it emits;
    # check-json also re-derives the attribution tiling property from the
    # report_comm records alone. Emitter and validator read one declaration
    # (records::RECORD_TYPES), so a record cannot carry an unvalidated key.
    # The report is one grid of runs that --jobs prewarms: 2 platforms x
    # (baseline + 4 processor counts x 6 algorithms - the baseline's duplicate).
    (cd "$SMOKE_DIR" && timeout 120 "$REPRO" report --scale tiny --jobs 2 2>report.err >/dev/null)
    grep -q '^\[sweep: 48 job(s)' "$SMOKE_DIR/report.err" || {
        echo "report --jobs 2 did not prewarm 48 jobs:"; cat "$SMOKE_DIR/report.err"; exit 1; }
    "$REPRO" check-json "$SMOKE_DIR/REPORT_tiny.json"
}
lane "report lane (attributed telemetry + scaling analysis)" report_lane

determinism_lane() {
    # Single-processor runs are bitwise deterministic: table1 must emit
    # byte-identical JSON whatever the prewarm width. Multi-processor simulated
    # timings carry inherent run-to-run jitter (real thread interleaving feeds
    # the contention model), so the full matrix is compared structurally — same
    # experiments, configurations and series.
    # The prewarm covers the render: after the tiny matrix's 92 jobs, treebuild's
    # and the tiny report's, drawing all thirteen tables, treebuild and the
    # report adds no entry to the run memo. #[ignore]d in the suite because it runs the whole tiny matrix
    # and must have the process-wide memo to itself; hence by name, alone,
    # under the same bound (built outside it).
    cargo test --offline --release -q -p bh-experiments --lib --no-run
    timeout 120 cargo test --offline --release -q -p bh-experiments --lib -- \
        --ignored rendering_after_the_prewarm_computes_nothing
    sweep table1 --scale tiny --jobs 2 --json table1_j2.json
    sweep table1 --scale tiny --jobs 1 --json table1_j1.json
    cmp "$SMOKE_DIR/table1_j2.json" "$SMOKE_DIR/table1_j1.json"
    echo "table1 --jobs 2 and --jobs 1 outputs are byte-identical"
    sweep matrix --scale tiny --jobs 2 --json matrix_j2.json
    sweep matrix --scale tiny --jobs 1 --json matrix_j1.json
    "$REPRO" check-same "$SMOKE_DIR/matrix_j2.json" "$SMOKE_DIR/matrix_j1.json"
}
lane "sweep determinism gate (--jobs 2 vs --jobs 1)" determinism_lane

bench_lane() {
    # bench/ is a package of its own outside the workspace, so nothing above
    # compiles it. `bhbench run` exits 1 when its check line fails: on
    # sim-platforms that is P=1 cycles repeating exactly from round to round and
    # every builder ending with the same bodies on every platform; on
    # serve-mixed it is every hit and miss digest served over a real unix socket
    # equalling a direct run_job of the same spec; on native-step it is every
    # run of a builder on a body set - staged by the benchmark or through the
    # engine, whole steps with the force kernel in them - ending on the same
    # final-body digest; on native-treebuild it is every builder's tree
    # validating after a reset (the only workload whose own resets go through
    # SharedTree::reset) and after an incremental step.
    cargo test --offline -q --manifest-path bench/Cargo.toml
    for workload in native-step native-treebuild sim-platforms serve-mixed; do
        cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
            run --workload "$workload" --seconds 2 --out "$SMOKE_DIR/bench"
    done
}
lane "bench lane (bench/ builds offline, its tests pass, four short runs check out)" bench_lane

serve_lane() {
    # Boot the standalone server, push a couple of jobs through a real socket,
    # and shut it down gracefully; its final stats line must account for every
    # job. The protocol robustness matrix (malformed/oversized/disconnect)
    # runs with the integration tests above (tests/serve_protocol.rs).
    SERVE_DIR="$SMOKE_DIR/serve"
    mkdir -p "$SERVE_DIR"
    SOCK="$SERVE_DIR/serve.sock"
    "$PWD/target/release/serve" --unix "$SOCK" --workers 2 --queue-cap 16 --engines 4 \
        > "$SERVE_DIR/serve_stats.json" &
    SERVE_PID=$!
    for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
    [ -S "$SOCK" ] || { echo "serve binary never bound $SOCK"; exit 1; }
    python3 - "$SOCK" <<'EOF'
import json, socket, sys
s = socket.socket(socket.AF_UNIX); s.connect(sys.argv[1])
f = s.makefile("rw")
for i in range(4):
    f.write(json.dumps({"op": "job", "id": f"smoke{i}", "tenant": "gate",
                        "n": 512, "steps": 1, "warmup": 0}) + "\n")
f.flush()
for i in range(4):
    r = json.loads(f.readline())
    assert r.get("ok") is True, r
f.write('{"op":"shutdown"}\n'); f.flush()
assert json.loads(f.readline()).get("ok") is True
EOF
    wait "$SERVE_PID"
    grep -q '"served_total":4' "$SERVE_DIR/serve_stats.json" || {
        echo "serve final stats wrong:"; cat "$SERVE_DIR/serve_stats.json"; exit 1; }
}
lane "serve lane (unix-socket smoke against the serve binary)" serve_lane

mutation_lane() {
    # Applies each mutant to a throwaway copy of the tracked tree, builds the
    # checker test binaries and prints the score and the checker-by-mutant
    # matrix (DESIGN.md section 4b); it fails when a patch no longer applies, a
    # mutated tree does not compile, or a patch's named test passes. 177 s
    # on two cores.
    tests/mutants/run.sh
}
lane "mutation lane (each tests/mutants/*.patch against every checker column)" mutation_lane

if [ "${#FAILED[@]}" -ne 0 ]; then
    echo "${#FAILED[@]} lane(s) failed:"
    printf '  %s\n' "${FAILED[@]}"
    exit 1
fi
echo "All checks passed."
