package cliutil

import (
	"flag"
	"strings"
	"testing"
)

// ok is a valid baseline every case below perturbs.
func ok() RunFlags {
	return RunFlags{Budget: 1000, SliceLen: 100, Parallel: 0, CacheEnabled: true}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := ok().Validate(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	// The CI determinism matrix's shapes must stay valid.
	for _, f := range []RunFlags{
		{Budget: 400_000, SliceLen: 200_000, Parallel: 4, CacheEnabled: true, CacheSliceSet: true},
		{Budget: 400_000, SliceLen: 200_000, Parallel: 1},
		{Budget: 400_000, SliceLen: 200_000, Parallel: 4, CacheEnabled: true, StoreSet: true, StoreCap: 512, StoreCapSet: true},
	} {
		if err := f.Validate(); err != nil {
			t.Errorf("flags %+v rejected: %v", f, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*RunFlags)
		want string // substring of the error
	}{
		{"zero budget", func(f *RunFlags) { f.Budget = 0 }, "-budget"},
		{"zero slice", func(f *RunFlags) { f.SliceLen = 0 }, "-slice"},
		{"negative parallel", func(f *RunFlags) { f.Parallel = -1 }, "-parallel"},
		{"cacheslice without cache", func(f *RunFlags) { f.CacheEnabled, f.CacheSliceSet = false, true }, "-cacheslice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok()
			tc.mut(&f)
			err := f.Validate()
			if err == nil {
				t.Fatalf("flags %+v accepted, want error containing %q", f, tc.want)
			}
			//lint:ignore errcontract the table asserts the human-readable message names the offending flag; there is no sentinel to discriminate
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestProvided(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Uint64("cacheslice", 42, "")
	fs.Uint64("budget", 7, "")
	if err := fs.Parse([]string{"-cacheslice", "10"}); err != nil {
		t.Fatal(err)
	}
	if !Provided(fs, "cacheslice") {
		t.Error("explicitly set flag reported as default")
	}
	if Provided(fs, "budget") {
		t.Error("defaulted flag reported as set")
	}
	if Provided(fs, "nonexistent") {
		t.Error("unknown flag reported as set")
	}
}
