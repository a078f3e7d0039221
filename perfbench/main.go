// Command perfbench is the repository's benchmark. It runs one workload
// against the public API in-process, checks every simulated result
// against the recorded oracle (oracle.json), and prints the workload's
// metrics; its last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// with spans recorded around every call it makes into the program,
// probes each layer, and reports the per-layer metrics instead (see
// README.md). Exit status is nonzero when any result disagrees with the
// oracle or any operation fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one input set the benchmark can run; README.md says why
// each exists.
type workload struct {
	name string
	run  func(*env) (*report, error)
}

var workloads = []workload{
	{"paper-sweep", runPaper},
	{"huge-sampled", runHuge},
	{"serve-mixed", runServe},
}

// env is what a workload run gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	// tr is nil in untraced runs.
	tr *Tracer
	// root is the checkout root; work is a private scratch directory
	// inside it.
	root, work string
	oracle     *oracle
	// record, when non-nil, receives freshly computed oracle values
	// instead of checking against them.
	record *oracle
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a workload run's outcome.
type report struct {
	attempted, failed int
	e2e               map[string]metric
	layer             map[string]metric
	notes             []string
	failures          []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// check counts one oracle comparison.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// op counts one operation against the program; err != nil fails it.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// minIters is the fewest iterations a run measures: a median of at
// least two, and in traced runs one untraced and one traced iteration
// to compare.
const minIters = 2

// repeat runs measured iterations until the run's time is spent, and at
// least minIters of them. Before each it times setupSlice set-ups and
// returns all their durations.
func repeat(d time.Duration, setup func() (func(), error), fn func(i int) error) ([]float64, error) {
	var setups []float64
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < d; i++ {
		s, err := timeSetups(setupSlice, setup)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)
		if err := fn(i); err != nil {
			return nil, err
		}
	}
	return setups, nil
}

// setupSlice is how many set-ups a run times before each iteration;
// setup_s is the median of all of them. A set-up takes 0.1-0.6 ms, and
// its time follows the host's speed, which drifts over seconds. Slices
// spread over the run, like the iterations, keep the median steady
// from run to run where one block of set-ups at the start did not.
const setupSlice = 300

// timeSetups calls setup (and the teardown it returns) n times, each
// after a garbage collection, and returns each set-up's duration in
// seconds.
func timeSetups(n int, setup func() (func(), error)) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
		teardown()
	}
	return out, nil
}

// hostE2E fills the end-to-end metrics every workload shares.
func (r *report) hostE2E(iters []iteration, setups []float64) {
	var wall, cpu, rss []float64
	for _, it := range iters {
		wall = append(wall, it.Wall)
		cpu = append(cpu, it.CPU)
		rss = append(rss, it.RSSMB)
	}
	r.note("iterations wall_s %s cpu_s %s", fmtList(wall), fmtList(cpu))
	r.e2e["wall_s"] = metric{median(wall), "s"}
	r.e2e["cpu_s"] = metric{median(cpu), "s"}
	r.e2e["setup_s"] = metric{median(setups), "s"}
	r.e2e["peak_rss_mb"] = metric{median(rss), "MiB"}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload to run: paper-sweep, huge-sampled or serve-mixed")
		seed    = flag.Int64("seed", 1, "seed for the request stream and submission order")
		seconds = flag.Int("seconds", 25, "how long to measure, in seconds")
		traced  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		record  = flag.String("record", "", "recompute the oracle for the workload and write it to this file")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(root, "testdata", "figure13.golden")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of a checkout:", err)
		return 1
	}
	o, err := loadOracle()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, root: root, work: work, oracle: o}
	if *traced == 1 {
		e.tr = newTracer()
	}
	if *record != "" {
		e.record = o
	}

	fp := hostFingerprint(root)
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("host: %s\n", fpJSON)
	rep, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if *record != "" {
		if err := o.write(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: recorded %s oracle to %s\n", w.name, *record)
		return 0
	}
	if e.tr != nil {
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := e.tr.WriteFile(spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(e.tr.Spans()), spans)
	}
	return emit(w.name, e.tr != nil, rep)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// emit prints the human-readable summary and then the result line.
func emit(name string, traced bool, rep *report) int {
	ms := rep.e2e
	if traced {
		ms = rep.layer
	}
	for _, n := range rep.notes {
		fmt.Printf("%s: %s\n", name, n)
	}
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s: %-32s %14.6g %s\n", name, k, ms[k].Value, ms[k].Unit)
	}
	frac := float64(rep.failed) / math.Max(1, float64(rep.attempted))
	fmt.Printf("%s: %-32s %14.6g %s  (%d of %d)\n", name, "failed_frac", frac, "ratio", rep.failed, rep.attempted)
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL %s\n", name, f)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, max(rep.attempted, 1), rep.failed, ms}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(data))
	if rep.failed > 0 {
		return 1
	}
	return 0
}
