package zoo

import (
	"strings"
	"testing"

	"branchlab/internal/bp"
)

func TestAllNamesConstruct(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if p == nil {
			t.Errorf("New(%q) returned nil", name)
			continue
		}
		// Smoke: predict/train cycle must not panic.
		pred := p.Predict(0x400)
		p.Train(0x400, 0, true, pred)
	}
}

func TestTAGEBudgetParsing(t *testing.T) {
	for _, name := range []string{"tage-8", "tage-sc-l-64", "tage-1024", "tage-sc-l-128kb"} {
		p, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if !strings.HasPrefix(p.Name(), "tage-sc-l-") {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	for _, bad := range []string{"tage-", "tage-0", "tage--5", "tage-abc"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

func TestUnknownNameError(t *testing.T) {
	_, err := New("frobnicator")
	if err == nil {
		t.Fatal("unknown predictor accepted")
	}
	//lint:ignore errcontract asserts the message names the unknown predictor for the CLI user; there is no sentinel to discriminate
	if !strings.Contains(err.Error(), "unknown predictor") {
		t.Errorf("error %q should name the problem", err)
	}
}

func TestDistinctInstances(t *testing.T) {
	a, _ := New("bimodal")
	b, _ := New("bimodal")
	// Train a hard; b must be unaffected (no shared state).
	for i := 0; i < 100; i++ {
		a.Train(0x400, 0, true, false)
	}
	if !a.Predict(0x400) {
		t.Error("a did not learn")
	}
	var _ bp.Predictor = b
}
