package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The benchmark measures set-up by re-running its own executable. Under
// test that executable is the test binary, which acts as the benchmark
// when the smoke tests ask it to.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_TEST_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.name)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics the program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestResultRoundTrip(t *testing.T) {
	want := result{Correct: true, Attempted: 12, Failed: 0, Metrics: map[string]metric{
		"wall_s": {7.0674848381, "s"}, "ok_frac": {1, "fraction"}, "peak_rss_mib": {466.17578125, "MiB"}}}
	var buf bytes.Buffer
	if err := printResult(&buf, want); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("result spans %d lines, want 1", n)
	}
	var got result
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip gave %+v, want %+v", got, want)
	}
}

func TestSeedReachesReplay(t *testing.T) {
	wl, _ := workloadByName("analysis-cold")
	e := &env{wl: wl, cfg: baseConfig()}
	for seed, want := range map[int64]int{0: 0, 1: 1, 2: 0, 7: 1} {
		r := newReplay(e, newTracer(), replayInput(seed))
		if err := r.record(e); err != nil {
			t.Fatal(err)
		}
		for _, rt := range r.traces {
			in := want
			if rt.spec.Suite == "lcf" { // one input each
				in = 0
			}
			if rt.input != in {
				t.Errorf("seed %d: replay walks %s input %d, want %d", seed, rt.spec.Name, rt.input, in)
			}
		}
	}
}

// smoke runs one short benchmark run of the analysis workload.
func smoke(t *testing.T, traced bool) result {
	t.Setenv("PERFBENCH_TEST_AS_MAIN", "1")
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := workloadByName("analysis-cold")
	res, err := run(wl, options{workload: wl.name, seed: 0, seconds: 1, trace: traced,
		workdir: t.TempDir(), self: self})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("smoke run: correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the analysis drivers three times")
	}
	res := smoke(t, false)
	for _, m := range endToEnd {
		v, ok := res.Metrics[m.name]
		if !ok || v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("%s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}
	if got := res.Metrics["ok_frac"].Value; got != 1 {
		t.Errorf("ok_frac = %v, want 1 (failed_frac 0)", got)
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the analysis drivers twice and the layer replay")
	}
	res := smoke(t, true)
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"experiments.cnn_s", "core.screen_s", "cnn.train_s", "tage.predict_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}
