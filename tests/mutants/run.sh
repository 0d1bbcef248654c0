#!/usr/bin/env bash
# Mutation lane: scores the correctness checkers against re-created bugs.
#
# Each tests/mutants/*.patch is a `git apply`-able diff that re-creates one
# bug a builder had, or one its correctness rests on. Its header names the
# bug and, on a `Test:` line, the one test (`<test binary> <test name>`)
# that must fail on it; `Test: none` marks a mutant DESIGN.md section 4a
# lists as outside what the checkers certify. For every patch the lane
#   1. copies the tracked working tree to a throwaway directory,
#   2. applies the patch,
#   3. builds the checker test binaries (one shared target directory),
#   4. runs every checker column against the mutant:
#        native      race_freedom: CheckedEnv on native timing, 5 runs,
#                    only for a mutant neither SchedEnv column catches
#        rr          schedule_matrix's round-robin SchedEnv cells: every
#                    test there but the bounded-exhaustive ones
#        exhaustive  the bounded-exhaustive passes: schedule_mutation's
#                    kernels, and schedule_matrix's MORTON sort-and-emit
#                    kernel and SPACE simulation
#        validation  cross_algorithm: plain runs, validated, no checker
# and prints the caught/total score and the checker-by-mutant matrix. A
# column catches a mutant when any of its tests fails (a run that hangs
# past the time limit counts as failing).
#
# The lane fails, naming the mutant, when a patch no longer applies, when a
# mutated tree does not compile (a compile error is not a catch), or when a
# patch's named test passes.
#
# Usage: tests/mutants/run.sh   (from anywhere; offline; about 5 minutes on two cores;
# check.sh runs it as its last lane)
set -euo pipefail
cd "$(dirname "$0")/../.."
ROOT="$PWD"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
export CARGO_TARGET_DIR="$WORK/target"
TREE="$WORK/tree"
NATIVE_RUNS=5
LIMIT=60 # seconds per test-binary run; clean runs take at most ~25 s

mapfile -t PATCHES < <(ls tests/mutants/*.patch)
FILES="$WORK/files"
git ls-files -z >"$FILES"

# run BIN ARGS...: run one test binary in the mutated tree; 0 if it passed.
run() {
    local bin="$1"
    shift
    (cd "$TREE" && timeout -k 10 "$LIMIT" "${BIN[$bin]}" -q "$@" >>"$WORK/log" 2>&1)
}

# caught COLUMN: exit 0 if the column's tests fail on the current mutant.
caught() {
    case "$1" in
    rr) ! run schedule_matrix --skip bounded_exhaustive ;;
    exhaustive) ! { run schedule_mutation && run schedule_matrix bounded_exhaustive; } ;;
    validation) ! run cross_algorithm ;;
    esac
}

declare -A BIN
problems=()
score=0
rows=()
for patch in "${PATCHES[@]}"; do
    name="$(basename "$patch" .patch)"
    test_line="$(sed -n 's/^Test: //p' "$patch" | head -n 1)"
    echo "== mutant $name ==" | tee -a "$WORK/log"
    rm -rf "$TREE"
    mkdir -p "$TREE"
    # -m: fresh mtimes, so the build never trusts artifacts of another mutant.
    tar --null -T "$FILES" -cf - | tar -xmf - -C "$TREE"
    if ! (cd "$TREE" && git apply "$ROOT/$patch"); then
        problems+=("$name: the patch no longer applies")
        continue
    fi
    if ! (cd "$TREE" && cargo test --offline --no-run --test race_freedom \
        --test schedule_matrix --test schedule_mutation --test cross_algorithm \
        >"$WORK/build" 2>&1); then
        tail -n 20 "$WORK/build"
        problems+=("$name: the mutated tree does not compile")
        continue
    fi
    while read -r test exe; do
        BIN[$test]="$exe"
    done < <(sed -n 's/^ *Executable tests\/\([a-z_]*\)\.rs (\(.*\))$/\1 \2/p' "$WORK/build")

    cells=""
    hit=0
    scheduled=0
    for column in rr exhaustive validation; do
        if caught "$column"; then
            cells+="$(printf ' %11s' X)"
            hit=1
            [ "$column" = validation ] || scheduled=1
        else
            cells+="$(printf ' %11s' -)"
        fi
    done
    # Native timing is sampled only when neither SchedEnv column caught the
    # mutant: its five race_freedom runs are most of the lane's time, and a
    # deterministic catch already decides the score.
    native=skip
    if [ "$scheduled" -eq 0 ]; then
        fails=0
        for _ in $(seq "$NATIVE_RUNS"); do
            run race_freedom || fails=$((fails + 1))
        done
        native="$fails/$NATIVE_RUNS"
        [ "$fails" -eq 0 ] || hit=1
    fi
    row="$(printf '%-28s %5s' "$name" "$native")$cells"
    score=$((score + hit))

    case "$test_line" in
    none) verdict="none (DESIGN.md 4a)" ;;
    "")
        verdict="no Test: line"
        problems+=("$name: the patch names no test")
        ;;
    *)
        read -r test_bin test_name <<<"$test_line"
        if [ -z "${BIN[$test_bin]:-}" ]; then
            verdict="unknown binary"
            problems+=("$name: named test binary $test_bin is not built by the lane")
        elif run "$test_bin" --exact "$test_name"; then
            verdict="PASSED"
            problems+=("$name: named test $test_line passed")
        else
            verdict="fails"
        fi
        ;;
    esac
    rows+=("$row  $verdict")
done

echo
echo "score: $score/${#PATCHES[@]} mutants caught by at least one checker"
printf '%-28s %5s %11s %11s %11s  %s\n' mutant native rr exhaustive validation \
    "named test"
for row in "${rows[@]}"; do
    echo "$row"
done
if [ "${#problems[@]}" -gt 0 ]; then
    echo
    printf 'mutation lane FAILED: %s\n' "${problems[@]}"
    exit 1
fi
echo "mutation lane passed"
