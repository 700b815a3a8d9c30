#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload ipc-cold --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files go to
# $CARGO_TARGET_DIR (default .bench_build), so a run writes nothing
# outside the checkout. The build fails, and nothing runs, unless the
# checkout holds the branchlab module the benchmark imports.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"

(
	cd perfbench
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
		GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= go build -o "$out/perfbench" .
)
exec "$out/perfbench" --workdir "$out" "$@"
