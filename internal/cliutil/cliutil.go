// Package cliutil holds the flag plumbing cmd/experiments and
// cmd/bpsim share: validation of the recording/caching knobs whose
// silent misbehaviour used to be easy to trigger — -cacheslice or
// -tracestore without an enabled trace cache (silently ignored), and
// zero budgets or slice lengths (downstream division panics).
package cliutil

import (
	"flag"
	"fmt"
	"time"
)

// RunFlags are the effective (post-default, post-override) values of
// the shared recording/caching knobs of one CLI invocation, plus
// whether the cache-geometry flags were explicitly provided (defaults
// never error; explicit flags that would be ignored do).
type RunFlags struct {
	Budget   uint64 // instruction budget of the run
	SliceLen uint64 // screening/phase slice length
	Parallel int    // engine workers (0 = NumCPU)

	CacheEnabled  bool // a trace cache will exist in this invocation
	CacheSliceSet bool // -cacheslice explicitly provided

	StoreSet    bool  // -tracestore explicitly provided (persistent tier on)
	StoreCap    int64 // -tracestorecap value in MiB (0 = unbounded)
	StoreCapSet bool  // -tracestorecap explicitly provided

	Deadline    time.Duration // -deadline value (whole-invocation bound)
	DeadlineSet bool          // -deadline explicitly provided
}

// Validate rejects flag combinations that would silently misbehave.
// It returns the first problem found, phrased for the terminal.
func (f RunFlags) Validate() error {
	if f.Budget == 0 {
		return fmt.Errorf("-budget must be > 0")
	}
	if f.SliceLen == 0 {
		return fmt.Errorf("-slice must be > 0 (slice-keyed screening divides by it)")
	}
	if f.Parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 selects NumCPU)")
	}
	if f.CacheSliceSet && !f.CacheEnabled {
		return fmt.Errorf("-cacheslice has no effect without an enabled trace cache (enable -tracecache)")
	}
	if f.StoreSet && !f.CacheEnabled {
		return fmt.Errorf("-tracestore has no effect without an enabled trace cache (the store is the cache's disk tier; enable -tracecache)")
	}
	if f.StoreCapSet && !f.StoreSet {
		return fmt.Errorf("-tracestorecap has no effect without -tracestore")
	}
	if f.StoreCapSet && f.StoreCap < 0 {
		return fmt.Errorf("-tracestorecap must be >= 0 MiB (0 = unbounded)")
	}
	if f.DeadlineSet && f.Deadline <= 0 {
		return fmt.Errorf("-deadline must be > 0 when set (an instantly expired run produces nothing)")
	}
	return nil
}

// Provided reports whether the named flag was explicitly set on the
// command line (as opposed to holding its default). fs == nil checks
// flag.CommandLine; call after flag.Parse.
func Provided(fs *flag.FlagSet, name string) bool {
	if fs == nil {
		fs = flag.CommandLine
	}
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
