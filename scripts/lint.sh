#!/usr/bin/env bash
# lint.sh — the one-command static gate, and the pre-commit entry
# point (DESIGN.md "Statically enforced invariants"):
#
#   1. gofmt            (formatting; fails listing unformatted files)
#   2. go vet           (the standard toolchain analyzers)
#   3. branchlabvet     (the five contract analyzers in internal/lint:
#                        determinism, blockalias, ctxflow,
#                        errcontract, storegate
#                        — run as `go vet -vettool`)
#   4. branchlabvet -checkignores
#                       (suppression audit: every //lint:ignore must
#                        still cover a live finding)
#   5. shellcheck       (scripts/*.sh; skipped with a note if absent)
#
# The branchlabvet binary is built into bin/ inside the repository; on
# CI the setup-go build cache makes the rebuild a no-op, and the fast
# lane restores bin/branchlabvet from its own cache keyed on the lint
# sources (BRANCHLABVET_FROM_CACHE=1 skips the rebuild entirely).
#
# Usage:
#   scripts/lint.sh               run the whole gate
#   scripts/lint.sh --print-tool  build branchlabvet if needed and print
#                                 its path (for use as a -vettool value:
#                                 go vet -vettool=$(scripts/lint.sh --print-tool) ./...)
#
# Suppress an individual finding with a justified comment on (or
# directly above) the flagged line:
#   //lint:ignore <analyzer> <reason>
set -euo pipefail

cd "$(dirname "$0")/.."

tool=bin/branchlabvet

build_tool() {
    if [ "${BRANCHLABVET_FROM_CACHE:-}" = "1" ] && [ -x "$tool" ]; then
        echo "branchlabvet: using cached $tool" >&2
        return 0
    fi
    mkdir -p bin
    go build -o "$tool" ./cmd/branchlabvet
}

if [ "${1:-}" = "--print-tool" ]; then
    build_tool >&2
    # Print an absolute path so the value works from any directory.
    echo "$PWD/$tool"
    exit 0
fi

fail=0

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

echo "== go vet"
go vet ./... || fail=1

echo "== branchlabvet (determinism, blockalias, ctxflow, errcontract, storegate)"
build_tool
go vet -vettool="$tool" ./... || fail=1

echo "== branchlabvet -checkignores (suppression audit)"
go vet -vettool="$tool" -checkignores ./... || fail=1

echo "== shellcheck"
if command -v shellcheck >/dev/null 2>&1; then
    shellcheck scripts/*.sh || fail=1
else
    echo "shellcheck not installed; skipping (CI runs it)" >&2
fi

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED" >&2
    exit 1
fi
echo "lint: OK"
