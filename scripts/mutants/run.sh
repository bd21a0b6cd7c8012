#!/usr/bin/env bash
# Known-bad patches: proves the executor gates can see a fault.
#
# Each scripts/mutants/NAME.patch plants one fault. Its header names it:
#   # fault: what the patch breaks
#   # test: <test binary, or lib for a unit test> <test name>
# For every patch (or only the NAMEs given), this script copies the
# checkout (tracked and untracked, non-ignored files) to a scratch
# directory, applies the patch there and runs the named test, which must
# fail. A patch that no longer applies, a patched tree that does not
# build, or a test that still passes fails the script. The checkout
# itself is never modified.
#
#   bash scripts/mutants/run.sh [NAME...]
#
# MUTANTS_DIR keeps the scratch copies and their shared build directory
# (default: a fresh temporary directory, removed on exit).
set -euo pipefail

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
here="$root/scripts/mutants"
if [[ -n "${MUTANTS_DIR:-}" ]]; then
    scratch="$MUTANTS_DIR"
    mkdir -p "$scratch"
else
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' EXIT
fi
export CARGO_TARGET_DIR="$scratch/target"

if [[ $# -gt 0 ]]; then
    patches=("${@/#/$here/}")
    patches=("${patches[@]/%/.patch}")
else
    patches=("$here"/*.patch)
fi

failed=0
for patch in "${patches[@]}"; do
    name="$(basename "$patch" .patch)"
    read -r bin test < <(sed -n 's/^# test: //p' "$patch")
    if [[ "$bin" == lib ]]; then target=(--lib); else target=(--test "$bin"); fi
    tree="$scratch/$name"
    rm -rf "$tree"
    mkdir -p "$tree"
    git -C "$root" ls-files -co --exclude-standard -z |
        (cd "$root" && tar --null -T - -cf -) | tar -xf - -C "$tree"
    if ! patch -s -p1 -d "$tree" --dry-run <"$patch" >/dev/null ||
        ! patch -s -p1 -d "$tree" <"$patch" >/dev/null; then
        echo "FAIL $name: the patch no longer applies"
        failed=1
        continue
    fi
    log="$scratch/$name.log"
    if ! (cd "$tree" && cargo test -q -p spnn-engine "${target[@]}" --no-run) >"$log" 2>&1; then
        echo "FAIL $name: the patched tree does not build (log: $log)"
        failed=1
    elif (cd "$tree" && cargo test -q -p spnn-engine "${target[@]}" -- --exact "$test") \
        >>"$log" 2>&1; then
        echo "FAIL $name: $bin::$test still passes (log: $log)"
        failed=1
    else
        echo "ok   $name: $bin::$test fails"
    fi
done
exit "$failed"
