#!/usr/bin/env bash
# docs_gate.sh — the CI documentation gate.
#
# Asserts, in order:
#   1. `go vet ./...` is clean (doc-adjacent static checks ride along), and
#      `gofmt -l` lists no file;
#   2. every Go package in internal/, cmd/ and examples/ carries a package
#      doc comment: a comment line directly attached to the package clause
#      of at least one non-test file (the godoc attachment rule);
#   3. every relative markdown link in README.md, DESIGN.md and docs/*.md
#      resolves to a file or directory in the repository.
#
# Run from the repository root: ./scripts/docs_gate.sh
set -u
cd "$(dirname "$0")/.."
fail=0

echo "== go vet"
if ! go vet ./...; then
  echo "docs gate: go vet failed"
  fail=1
fi

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "docs gate: gofmt -l lists unformatted files:"
  echo "$unformatted"
  fail=1
fi

echo "== package doc comments"
for dir in internal/*/ cmd/*/ examples/*/; do
  [ -d "$dir" ] || continue
  ls "$dir"*.go >/dev/null 2>&1 || continue
  ok=0
  for f in "$dir"*.go; do
    case "$f" in *_test.go) continue ;; esac
    # A doc comment is a // line (or block-comment end) immediately above
    # the package clause.
    if awk '
      /^package[ \t]/ { if (prev ~ /^\/\// || prev ~ /\*\/[ \t]*$/) found = 1; exit }
      { if ($0 != "") prev = $0 }
      END { exit found ? 0 : 1 }
    ' "$f"; then
      ok=1
      break
    fi
  done
  if [ "$ok" -eq 0 ]; then
    echo "docs gate: package in $dir has no doc comment"
    fail=1
  fi
done

echo "== markdown links"
for md in README.md DESIGN.md docs/*.md; do
  [ -f "$md" ] || continue
  base=$(dirname "$md")
  # Relative links only: strip inline code spans, pull [text](target) pairs,
  # drop URLs and pure fragments.
  grep -o '\][(][^)]*[)]' "$md" | sed 's/^](//; s/)$//' | while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path=${target%%#*}
    [ -n "$path" ] || continue
    if [ ! -e "$base/$path" ] && [ ! -e "$path" ]; then
      echo "docs gate: $md links to missing file: $target"
      echo "$md:$target" >> /tmp/docs_gate_broken.$$
    fi
  done
done
if [ -f "/tmp/docs_gate_broken.$$" ]; then
  rm -f "/tmp/docs_gate_broken.$$"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "docs gate: FAILED"
  exit 1
fi
echo "docs gate: OK"
