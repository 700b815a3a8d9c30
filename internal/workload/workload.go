// Package workload defines the synthetic benchmark suites that stand in
// for the paper's traces: nine SPECint-2017-like programs (Table I) and
// six large-code-footprint (LCF) applications (Table II).
//
// Each workload is a parameterized generator tuned to reproduce the
// trace-visible signature the paper reports for its counterpart: static
// branch footprint, TAGE-SC-L 8KB accuracy, the number of systematically
// hard-to-predict (H2P) branches, the share of mispredictions they cause,
// phase structure, and — for the LCF suite — the rare-branch execution
// distribution. See DESIGN.md §1 for the substitution argument.
package workload

import (
	"context"
	"fmt"

	"branchlab/internal/engine"
	"branchlab/internal/program"
	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
	"branchlab/internal/xrand"
)

// PaperStats records the published Table I / Table II row a workload is
// modeled after, for documentation and experiment reports.
type PaperStats struct {
	StaticBranches  int     // total static branches (Table I) / branch IPs (Table II)
	Accuracy        float64 // TAGE-SC-L 8KB accuracy
	AccuracyExclH2P float64 // accuracy excluding H2Ps (Table I only)
	H2PsPerSlice    int     // static H2Ps per 30M slice
	MispredShareH2P float64 // fraction of mispredictions due to H2Ps
	ExecsPerBranch  float64 // avg dynamic execs per static branch (Table II)
}

// Spec is one synthetic workload.
type Spec struct {
	Name      string
	Suite     string // "specint2017" or "lcf"
	NumInputs int    // distinct application inputs (Table I "# App. Inputs")
	Paper     PaperStats
	mix       mix
}

// seed derives the deterministic seed for one (workload, input) pair.
func (s *Spec) seed(input int) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(s.Name) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return xrand.Mix64(h ^ uint64(input)*0x9e3779b97f4a7c15)
}

// Payload returns the program payload for one application input.
func (s *Spec) Payload(input int) program.Payload {
	if input < 0 || input >= s.NumInputs {
		panic(fmt.Sprintf("workload %s: input %d out of range [0,%d)", s.Name, input, s.NumInputs))
	}
	m := s.mix
	return func(e *program.Emitter) { newGen(e, m, input).run() }
}

// Stream starts the workload for one input with the given instruction
// budget as a live block stream. Callers Close it when abandoning it
// early. When ctx is done the generator unwinds at its next byte-safe
// point and Err reports a typed cancellation (a truncated prefix is
// never silently served).
func (s *Spec) Stream(ctx context.Context, input int, budget uint64) *program.Stream {
	return program.Run(ctx, s.seed(input), budget, s.Payload(input))
}

// RecordCtx materializes the trace for one input; on cancellation or
// payload failure it returns a typed error and no buffer.
func (s *Spec) RecordCtx(ctx context.Context, input int, budget uint64) (*trace.Buffer, error) {
	return program.RecordCtx(ctx, s.seed(input), budget, s.Payload(input))
}

// Source is the tracecache.Source for one (input, budget) trace — the
// single place the cache's record callback is wired to this package,
// shared by the experiments drivers, the facade and the CLIs. Record
// is program.RecordSlicesCtx: the trace RecordCtx produces, as
// independently owned arrays of sliceLen instructions each, streamed
// to the sink while they record.
func (s *Spec) Source(input int, budget uint64) tracecache.Source {
	return tracecache.Source{
		Record: func(ctx context.Context, sliceLen uint64, sink program.SliceSink) ([][]trace.Inst, error) {
			return program.RecordSlicesCtx(ctx, s.seed(input), budget, s.Payload(input), sliceLen, sink)
		},
	}
}

// CacheSource is Source with three arguments that are ignored.
//
// Deprecated: recording is sequential and the cache has no checkpoint
// refills, so pool, shards and ckptEvery have no effect; use Source.
func (s *Spec) CacheSource(input int, budget uint64, pool *engine.Pool, shards int, ckptEvery uint64) tracecache.Source {
	return s.Source(input, budget)
}

// SPECint2017Like returns the nine-benchmark suite modeled on Table I
// (603.gcc_s is excluded there and appears in the LCF suite, as in the
// paper).
func SPECint2017Like() []*Spec { return specSuite() }

// LCFLike returns the six large-code-footprint applications of Table II.
func LCFLike() []*Spec { return lcfSuite() }

// ByName returns the spec with the given name from either suite.
func ByName(name string) (*Spec, bool) {
	for _, s := range SPECint2017Like() {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range LCFLike() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}
