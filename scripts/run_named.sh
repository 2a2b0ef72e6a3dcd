#!/usr/bin/env bash
# run_named.sh — run one package's tests by exact name.
#
# Each name is checked with `go test -list` first, so a renamed or deleted
# test fails the run instead of matching nothing; then all the named tests
# run once, verbose, under one anchored -run pattern (subtests included).
#
# Usage, from the repository root:
#
#	./scripts/run_named.sh ./internal/service TestEndpointCorpus TestSteadyBodyOverLimit
set -euo pipefail
cd "$(dirname "$0")/.."
pkg=$1
shift
for t in "$@"; do
  go test "$pkg" -list "^$t\$" | grep -x "$t" >/dev/null || { echo "no test $t in $pkg"; exit 1; }
done
go test "$pkg" -count=1 -v -run "^($(IFS='|'; echo "$*"))\$"
