#!/usr/bin/env bash
# Runs one by-name `cargo test` selection and fails if it ran no tests.
# `cargo test <filter>` exits 0 when the filter matches nothing, so a
# renamed test would otherwise drop out of a CI step without a sound.
#
# usage: .github/scripts/cargo-test-named.sh <log> <cargo test args...>
# Test output goes to stdout and is appended to <log>.
set -euo pipefail
log=$1
shift
out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo test "$@" -- --nocapture 2>&1 | tee "$out" | tee -a "$log"
ran=$(grep -Eo '^test result: [a-zA-Z]+\. [0-9]+ passed; [0-9]+ failed' "$out" |
    awk '{ s += $4 + $6 } END { print s + 0 }')
if [ "$ran" -eq 0 ]; then
    echo "error: \`cargo test $*\` ran no tests" >&2
    exit 1
fi
