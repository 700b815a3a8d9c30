// Command perfbench is branchlab's benchmark. One invocation runs one
// named workload — a closed loop of experiment drivers, one client, on
// experiments.Quick() — in a fresh process, checks every rendered
// artifact against the reference digests, and prints one JSON result as
// the last line of standard output.
//
// With --trace 0 it repeats the driver pass for --seconds and reports the
// end-to-end metrics (medians over the passes). With --trace 1 it runs one
// untraced pass, one traced pass and a layer replay through each
// package's public entry points, and reports the per-layer metrics; the
// spans are written to --workdir when the run ends.
//
// run.sh builds it from source and runs it:
//
//	bash perfbench/run.sh --workload ipc-cold --seed 1 --seconds 20 --trace 0
//
// README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string // set-up stores and span files live here
	self     string // this executable, re-run for each measured set-up
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are reported with --trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
	{"ok_frac", "fraction"},
}

// nameRE is the shape every metric and workload name must have.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func main() {
	var (
		o        options
		traceArg int
		setup    = flag.Bool("setup-only", false, "perform the workload's set-up once and exit (how setup_s is measured)")
		storeDir = flag.String("store", "", "trace store directory the set-up fills (registry-warm-capped only)")
		writeRef = flag.String("write-reference", "", "record reference artifact digests and replay checks into this file and exit")
	)
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 0, "seed; selects the application input the layer replay walks")
	flag.IntVar(&o.seconds, "seconds", 10, "how long the driver passes are repeated")
	flag.IntVar(&traceArg, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for set-up stores and span files")
	flag.Parse()
	o.trace = traceArg == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fatal(err)
		}
		return
	}
	wl, ok := workloadByName(o.workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames()))
	}
	if *setup {
		if _, err := setUp(wl, *storeDir, true); err != nil {
			fatal(err)
		}
		return
	}
	if o.seconds < 1 || o.seed < 0 || (traceArg != 0 && traceArg != 1) {
		fatal(errors.New("want --seconds >= 1, --seed >= 0 and --trace 0 or 1"))
	}
	self, err := os.Executable()
	if err != nil {
		fatal(fmt.Errorf("locate executable: %w", err))
	}
	o.self = self
	if o.workdir, err = filepath.Abs(o.workdir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatal(err)
	}
	fmt.Println(hostLine(o))
	res, err := run(wl, o)
	if err != nil {
		fatal(err)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fatal(err)
	}
}

// hostLine records the host and seed with every result.
func hostLine(o options) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("perfbench: workload=%s seed=%d input=%d trace=%t nproc=%d gomaxprocs=%d go=%s commit=%s",
		o.workload, o.seed, replayInput(o.seed), o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// printResult writes res as one JSON line.
func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
