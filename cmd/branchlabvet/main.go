// Branchlabvet is branchlab's custom vet tool: five analyzers that
// statically enforce the contracts every byte-identity guarantee in
// this repository rests on (DESIGN.md "Statically enforced
// invariants").
//
// Two are intra-package (determinism, blockalias); three exchange
// facts across package boundaries
// through the vet driver's .vetx files (ctxflow, errcontract,
// storegate — see DESIGN.md "Cross-package facts").
//
// It speaks cmd/go's -vettool protocol, so the whole module is checked
// with
//
//	go build -o bin/branchlabvet ./cmd/branchlabvet
//	go vet -vettool=bin/branchlabvet ./...
//
// or, bundled with gofmt and shellcheck, via scripts/lint.sh — the
// pre-commit entry point, and the command CI's fast lane runs.
//
// Two driver flags (forwarded by go vet):
//
//	-json          emit diagnostics as JSON lines
//	               {"file":...,"line":...,"col":...,"analyzer":...,"message":...}
//	-checkignores  audit mode: report stale //lint:ignore directives
//	               instead of regular diagnostics
//
// Suppress a finding with a justification comment on (or directly
// above) the flagged line:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"branchlab/internal/lint/analysis"
	"branchlab/internal/lint/blockalias"
	"branchlab/internal/lint/ctxflow"
	"branchlab/internal/lint/determinism"
	"branchlab/internal/lint/errcontract"
	"branchlab/internal/lint/storegate"
)

func main() {
	analysis.Vet(
		determinism.Analyzer,
		blockalias.Analyzer,
		ctxflow.Analyzer,
		errcontract.Analyzer,
		storegate.Analyzer,
	)
}
