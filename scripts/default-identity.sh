#!/usr/bin/env bash
# default-identity.sh — check that `experiments -run all` at the Default
# budget prints the same bytes as the base revision's binary.
#
# CI and perfbench run Quick, where every trace has 2 slices; at Default
# a trace has 12, so multi-slice store serving and cross-slice work
# only run at full size here. The base binary runs once, uncapped
# at -parallel 1, as the reference. The head binary then runs four
# times, and each stdout must cmp equal to the reference:
#   1. uncapped, at the default worker count;
#   2. -tracecache 64 with no store (the cache spills to a private store
#      under $TMPDIR);
#   3. -tracecache 64 -tracestore DIR on an empty DIR (cold);
#   4. the same again over the filled DIR (warm).
# The uncapped runs peak at about 4.4 GiB resident; the capped ones
# write the traces' footprint (about 3.7 GB) to disk. Not part of
# tier-1: a run takes minutes.
#
# Usage: scripts/default-identity.sh
#   BASE_REV=<rev>   revision the reference binary is built from
#                    (default HEAD^; HEAD when checking uncommitted work)
#   HEAD_BIN=<path>  use a prebuilt head binary instead of building the
#                    working tree (how a scratch change is checked
#                    without touching a committed file)
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

head_bin="${HEAD_BIN:-}"
if [ -z "$head_bin" ]; then
  head_bin="$work/experiments-head"
  go build -o "$head_bin" ./cmd/experiments
fi
rev="${BASE_REV:-HEAD^}"
mkdir -p "$work/base-src"
git archive "$rev" | tar -x -C "$work/base-src"
base_bin="$work/experiments-base"
(cd "$work/base-src" && go build -o "$base_bin" ./cmd/experiments)
echo "reference binary built from $(git rev-parse --short "$rev")" >&2

echo "=== reference: base binary, uncapped, -parallel 1" >&2
"$base_bin" -run all -tracecache -1 -parallel 1 > "$work/ref.txt"

store="$work/store"
rm -rf "$store"
# check runs the head binary with the given flags and fails the script
# at the first byte that differs from the reference.
check() {
  local label="$1"
  shift
  echo "=== $label: $*" >&2
  "$head_bin" -run all "$@" > "$work/out.txt"
  if ! cmp -s "$work/ref.txt" "$work/out.txt"; then
    echo "default-identity: $label differs from the base binary's output" >&2
    diff "$work/ref.txt" "$work/out.txt" | head -20 >&2 || true
    exit 1
  fi
  echo "    byte-identical" >&2
}
check "uncapped" -tracecache -1
check "capped, private spill store" -tracecache 64
check "capped, cold store" -tracecache 64 -tracestore "$store"
check "capped, warm store" -tracecache 64 -tracestore "$store"
echo "default-identity: all four runs byte-identical to the base binary" >&2
