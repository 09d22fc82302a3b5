// Command perfbench is the repository benchmark. It builds nothing itself:
// run.sh builds s3pg, s3pgd and this program from the checkout and then
// runs it from the repository root.
//
//	perfbench --workload bulk|bulk-oocore|serve-read|live-update --seed N --seconds S --trace 0|1
//	perfbench --steady N [--workload W] [--seconds S]
//
// A timed run (--trace 0) drives the real binaries as child processes and
// prints the end-to-end metrics; a traced run (--trace 1) calls each
// layer's functions in-process and prints the per-layer metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// A human-readable report goes to standard error. --steady runs the timed
// benchmark repeatedly with different seeds and prints each metric's
// median, quartiles and spread next to its bound in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what every workload needs to know about the run.
type env struct {
	workload string
	root     string // repository root (the working directory)
	dir      string // this run's scratch directory, removed at exit
	s3pg     string
	s3pgd    string
	seed     int64
	seconds  time.Duration
	nproc    int
}

// workloads maps each workload name to its timed run.
var workloads = map[string]func(context.Context, *env, *report) error{
	"bulk":        runBulk,
	"bulk-oocore": runBulkOocore,
	"serve-read":  runServeRead,
	"live-update": runLiveUpdate,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "spawn" {
		return spawnMain(args[1:])
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: bulk, bulk-oocore, serve-read or live-update")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = timed end-to-end run")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the s3pg, s3pgd and perfbench binaries")
	steady := fs.Int("steady", 0, "run the timed benchmark this many times per workload and report spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: error: %v\n", err)
		return 1
	}
	if *steady > 0 {
		if err := runSteady(spec, *bin, *workload, *steady, *seconds, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: error: %v\n", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: error: need --workload (one of %s), --trace 0|1 and --seconds >= 1\n", strings.Join(spec.workloadNames(), ", "))
		return 2
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: error: %v\n", err)
		return 1
	}
	e := &env{
		workload: *workload,
		root:     root,
		s3pg:     filepath.Join(root, *bin, "s3pg"),
		s3pgd:    filepath.Join(root, *bin, "s3pgd"),
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.NumCPU(),
	}
	e.dir, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: error: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.dir)

	// The whole run, set-up included, must end well inside 180 s; children
	// started with this context are killed when it expires.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := newReport(*workload, *trace == 1)
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
		err = runTraced(ctx, e, rep)
	} else {
		err = fn(ctx, e, rep)
	}
	if err == nil {
		err = rep.complete(want)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: error: %s: %v\n", *workload, err)
		return 1
	}
	rep.print(stderr)
	b, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: error: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units it must print, and the bounds the steadiness report
// compares spreads with.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics, failure count and human-readable
// lines.
type report struct {
	workload  string
	traced    bool
	metrics   map[string]metric
	lines     []string
	notes     []string
	attempted int
	failed    int
	failures  []string
}

func newReport(workload string, traced bool) *report {
	return &report{workload: workload, traced: traced, metrics: make(map[string]metric)}
}

// e2eUnits are the units of the end-to-end metrics every timed run prints.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"throughput_per_s": "1/s",
	"latency_p50_ms":   "ms",
	"peak_rss_mb":      "MB",
}

// e2e sets an end-to-end metric of the result line.
func (r *report) e2e(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: e2eUnits[name]}
}

// setup records the set-up repeats; the metric is their median.
func (r *report) setup(times []float64) {
	r.e2e("setup_s", median(times))
	r.info("setup_s", "s", median(times), len(times))
}

// info adds a named measurement to the human-readable report.
func (r *report) info(name, unit string, v float64, n int) {
	r.lines = append(r.lines, fmt.Sprintf("  %-36s %14.4f %-5s n=%d", name, v, unit, n))
}

// tail reports percentile q of xs, or says why it is withheld.
func (r *report) tail(name string, xs []float64, q float64) {
	if v, ok := percentile(xs, q); ok {
		r.info(name, "ms", v, len(xs))
		return
	}
	r.lines = append(r.lines, fmt.Sprintf("  %-36s %14s %-5s n=%d (needs n>=%d)", name, "withheld", "ms", len(xs), minSamplesFor(q)))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// count adds an open-loop step's requests and failures.
func (r *report) count(st stepResult) {
	r.attempted += st.n
	if st.failed > 0 {
		r.failed += st.failed
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf("%d of %d queries at %.0f/s failed, first: %v", st.failed, st.n, st.rate, st.firstFail))
		}
	}
}

// complete checks that the run produced exactly the declared metrics with
// the declared units, and that every value is a finite number.
func (r *report) complete(want []metricSpec) error {
	var errs []string
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		switch {
		case !ok:
			errs = append(errs, m.Name+" missing")
		case got.Unit != m.Unit:
			errs = append(errs, fmt.Sprintf("%s unit %q, declared %q", m.Name, got.Unit, m.Unit))
		case got.Value != got.Value || got.Value > 1e300 || got.Value < -1e300:
			errs = append(errs, fmt.Sprintf("%s is %v", m.Name, got.Value))
		}
	}
	if len(r.metrics) != len(want) {
		var names []string
		for n := range r.metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		errs = append(errs, fmt.Sprintf("printed %d metrics %v, declared %d", len(r.metrics), names, len(want)))
	}
	if r.attempted < 1 {
		errs = append(errs, "nothing attempted")
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

func (r *report) print(w io.Writer) {
	kind := "timed"
	if r.traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "perfbench %s (%s run): %d attempted, %d failed\n", r.workload, kind, r.attempted, r.failed)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
