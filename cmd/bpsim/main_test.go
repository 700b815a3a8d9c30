package main

import (
	"errors"
	"slices"
	"testing"

	"branchlab/internal/pipeline"
)

func TestParseScales(t *testing.T) {
	for in, want := range map[string][]int{
		"":          nil,
		"0":         nil,
		"4":         {4},
		" 1, 4,16 ": {1, 4, 16},
		"64":        {pipeline.MaxScale},
	} {
		got, err := parseScales(in)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("parseScales(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// TestParseScalesRejectsBeyondMaxScale: the timing model refuses
// scales past its bound, so -pipeline 65 must fail as a flag error that
// says why.
func TestParseScalesRejectsBeyondMaxScale(t *testing.T) {
	for _, in := range []string{"65", "1,65", "10923"} {
		if _, err := parseScales(in); !errors.Is(err, errScaleTooLarge) {
			t.Errorf("parseScales(%q) error = %v, want %v", in, err, errScaleTooLarge)
		}
	}
	for _, in := range []string{"-1", "x", "1,,4"} {
		if _, err := parseScales(in); err == nil {
			t.Errorf("parseScales(%q) accepted", in)
		}
	}
}
