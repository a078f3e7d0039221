// Cesweep regenerates the paper's simulation results: Figure 13 (IPC of
// the dependence-based machine versus the baseline window machine),
// Figure 15 (the clustered 2×4-way machine), Figure 17 (the clustered
// design space, IPC and inter-cluster bypass frequency), the Section 5.5
// speedup estimate, and the window-size trade-off extension.
//
// Usage:
//
//	cesweep -fig 13        # one figure
//	cesweep -speedup       # Section 5.5 estimate
//	cesweep -tradeoff      # window-size trade-off (extension)
//	cesweep -all           # everything
//	cesweep -all -csv      # CSV output
//	cesweep -fig 13 -json  # canonical JSON (byte-identical to cesweepd)
//
// Sweeps share one content-addressed run cache, so a (config, workload)
// pair revisited by several figures is simulated once per process.
// Observability flags:
//
//	-v                  per-run progress, cache and trace-pool statistics
//	                    on stderr
//	-metrics-json FILE  dump per-run metrics and cache counters as JSON
//	-metrics-det FILE   dump only the deterministic metrics (stable order,
//	                    host timings scrubbed) — byte-identical across
//	                    runs, machines and drive modes
//	-cache-dir DIR      persist run results on disk across invocations
//
// A full run executes its workload in lockstep with the timing model.
// Phase-sampled simulation instead captures each workload's execution
// trace once per process, shards it into K segments, clusters them into
// at most P phases by their basic-block vectors and times one
// representative per phase across CPUs, starting cold and discarding
// its leading windows until IPC converges. The result is an estimate,
// reported with error bars. The two flags go together; giving only one
// is a usage error (exit 2). Wrong-path configurations always run in
// full, in lockstep. Only phase-sampled runs read or write -trace-dir:
//
//	-segments K         cut each trace into K > 1 segments
//	-phases P           time at most P > 0 phase representatives
//	-trace-dir DIR      persist captured traces on disk across invocations
//
// Profiling flags for working on the simulator itself (perfbench/run.sh
// is the repo's repeated, oracle-checked performance measurement):
//
//	-cpuprofile FILE    write a CPU profile of the sweep
//	-memprofile FILE    write a heap profile taken after the sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro"
	"repro/internal/canonjson"
	"repro/internal/report"
)

var (
	figure     = flag.Int("fig", 0, "figure to regenerate: 13, 15 or 17")
	speedup    = flag.Bool("speedup", false, "print the Section 5.5 speedup estimate")
	tradeoff   = flag.Bool("tradeoff", false, "print the window-size trade-off (extension)")
	ablations  = flag.Bool("ablations", false, "run the steering/geometry/latency/predictor/atomicity ablations (extensions)")
	micro      = flag.Bool("micro", false, "run the microbenchmark characterization (extension)")
	frontier   = flag.Bool("frontier", false, "rank design points by IPC x estimated clock (extension)")
	profiles   = flag.Bool("profiles", false, "print dynamic workload profiles (extension)")
	all        = flag.Bool("all", false, "regenerate every simulation result")
	csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut    = flag.Bool("json", false, "emit figures and the frontier as canonical JSON (the cesweepd wire format)")
	verbose    = flag.Bool("v", false, "print per-run progress and cache statistics to stderr")
	metrics    = flag.String("metrics-json", "", "write per-run metrics and cache statistics to this file as JSON")
	metricsDet = flag.String("metrics-det", "", "write deterministic per-run metrics (stable order, host timings scrubbed) to this file as JSON")
	cacheDir   = flag.String("cache-dir", "", "persist simulation results as JSON under this directory")
	traceDir   = flag.String("trace-dir", "", "persist the execution traces of phase-sampled runs under this directory (other runs never read or write it)")
	segments   = flag.Int("segments", 0, "phase-sample: cut each trace into this many segments (> 1, with -phases; 0 = monolithic)")
	segPhases  = flag.Int("phases", 0, "phase-sample: time one representative of at most this many behavior clusters (> 0, with -segments; 0 = monolithic)")
	cpuprof    = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprof    = flag.String("memprofile", "", "write a heap profile taken after the sweep to this file")
)

func main() {
	flag.Parse()
	// -segments alone once selected exact segmentation: refuse a
	// half-given plan rather than let an old command line change meaning.
	if (*segments != 0 || *segPhases != 0) && (*segments <= 1 || *segPhases <= 0) {
		fmt.Fprintf(os.Stderr, "cesweep: -segments %d -phases %d: phase sampling needs both, -segments > 1 and -phases > 0\n", *segments, *segPhases)
		flag.Usage()
		os.Exit(2)
	}
	stop, err := startProfiling(*cpuprof, *memprof)
	if err == nil {
		err = run()
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cesweep:", err)
		os.Exit(1)
	}
}

// startProfiling arms the -cpuprofile/-memprofile flags; the returned
// function flushes the profiles after the sweep (heap profile after a
// final GC, so it shows live retention rather than garbage).
func startProfiling(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// setupObservability wires the -v, -cache-dir and -metrics-json flags to
// the default sweep engine; the returned function finishes the report
// after the sweep.
func setupObservability() (func() error, error) {
	eng := ce.DefaultEngine
	if *cacheDir != "" {
		if err := eng.SetCacheDir(*cacheDir); err != nil {
			return nil, err
		}
	}
	if *traceDir != "" {
		if err := eng.SetTraceDir(*traceDir); err != nil {
			return nil, err
		}
	}
	eng.SetSegments(*segments)
	eng.SetSegmentPhases(*segPhases)
	for _, path := range []string{*metrics, *metricsDet} {
		if path == "" {
			continue
		}
		// Fail on an unwritable path now, not after minutes of simulation.
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		f.Close()
	}
	if *verbose {
		eng.SetObserver(func(m ce.RunMetrics) {
			if m.Cached {
				fmt.Fprintf(os.Stderr, "cesweep: %-28s %-12s cached (ipc %.2f)\n",
					m.Config, m.Workload, m.IPC)
				return
			}
			fmt.Fprintf(os.Stderr, "cesweep: %-28s %-12s %9d cycles  ipc %.2f  %6.0f ms  %5.1f Mcyc/s\n",
				m.Config, m.Workload, m.Cycles, m.IPC, m.WallSeconds*1000, m.MCyclesPerSec)
		})
	}
	finish := func() error {
		cs := eng.CacheStats()
		if *verbose {
			fmt.Fprintf(os.Stderr,
				"cesweep: cache: %d lookups — %d hits, %d coalesced, %d disk hits, %d misses (%d uncacheable); %d simulator runs saved\n",
				cs.Lookups(), cs.Hits, cs.Coalesced, cs.DiskHits, cs.Misses, cs.Uncacheable, cs.Saved())
			ts := eng.TraceStats()
			fmt.Fprintf(os.Stderr,
				"cesweep: traces: %d captured, %d loaded from disk; %d sampled runs, %d lockstep runs; %d steps executed, %d replayed\n",
				ts.Captures, ts.DiskHits, ts.SegmentRuns, ts.LockstepRuns, ts.StepsExecuted, ts.StepsReplayed)
			fmt.Fprintf(os.Stderr,
				"cesweep: trace bytes: %d on disk, %d resident; %d corrupt traces dropped\n",
				ts.TraceDiskBytes, ts.TraceResidentBytes, ts.CorruptDropped)
		}
		if *metrics != "" {
			dump := struct {
				Runs  []ce.RunMetrics `json:"runs"`
				Cache ce.CacheStats   `json:"cache"`
				Trace ce.TraceStats   `json:"trace"`
			}{Runs: eng.Metrics(), Cache: cs, Trace: eng.TraceStats()}
			data, err := canonjson.Marshal(dump)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*metrics, data, 0o644); err != nil {
				return err
			}
		}
		if *metricsDet != "" {
			if err := writeDetMetrics(*metricsDet, eng); err != nil {
				return err
			}
		}
		return nil
	}
	return finish, nil
}

// writeDetMetrics dumps only the deterministic slice of the run metrics:
// simulated results in a stable order, with host timings, allocation
// counts and drive-mode fields scrubbed, and the racy memory-hit versus
// coalesced split merged. Two invocations over the same selections —
// different machines, different parallelism, cold or warm stores —
// produce byte-identical files.
func writeDetMetrics(path string, eng *ce.Engine) error {
	type detRun struct {
		Config    string  `json:"config"`
		Workload  string  `json:"workload"`
		Cycles    int64   `json:"cycles"`
		Committed uint64  `json:"committed"`
		EmuSteps  uint64  `json:"emu_steps"`
		IPC       float64 `json:"ipc"`
	}
	runs := eng.Metrics()
	det := make([]detRun, len(runs))
	for i, m := range runs {
		det[i] = detRun{
			Config:    m.Config,
			Workload:  m.Workload,
			Cycles:    m.Cycles,
			Committed: m.Committed,
			EmuSteps:  m.EmuSteps,
			IPC:       m.IPC,
		}
	}
	sort.Slice(det, func(i, j int) bool {
		if det[i].Config != det[j].Config {
			return det[i].Config < det[j].Config
		}
		return det[i].Workload < det[j].Workload
	})
	cs := eng.CacheStats()
	dump := struct {
		Runs  []detRun `json:"runs"`
		Cache struct {
			Lookups     uint64 `json:"lookups"`
			Hits        uint64 `json:"hits"`
			DiskHits    uint64 `json:"disk_hits"`
			Misses      uint64 `json:"misses"`
			Uncacheable uint64 `json:"uncacheable"`
		} `json:"cache"`
	}{Runs: det}
	dump.Cache.Lookups = cs.Lookups()
	// Whether a duplicate pair found its twin finished (hit) or still in
	// flight (coalesced) depends on goroutine scheduling; the sum does not.
	dump.Cache.Hits = cs.Hits + cs.Coalesced
	dump.Cache.DiskHits = cs.DiskHits
	dump.Cache.Misses = cs.Misses
	dump.Cache.Uncacheable = cs.Uncacheable
	data, err := canonjson.Marshal(dump)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func emit(t *report.Table) {
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

func run() (err error) {
	finish, err := setupObservability()
	if err != nil {
		return err
	}
	// Flush observability output even when a sweep fails partway: the
	// metrics file and -v cache statistics then cover every run that did
	// complete, which is exactly what a failure post-mortem needs.
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	ran := false
	// -json emits the canonical wire dump cesweepd serves for the same
	// selection, sharing ce.FigureJSON/ce.FrontierJSON with the daemon so
	// the two outputs are byte-identical (CI compares them).
	emitFigureJSON := func(n int) error {
		data, err := ce.FigureJSON(n)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	if *figure == 13 || *all {
		ran = true
		if *jsonOut {
			if err := emitFigureJSON(13); err != nil {
				return err
			}
		} else {
			cmp, err := ce.Figure13()
			if err != nil {
				return err
			}
			emit(cmp.IPCTable("Figure 13: IPC of the dependence-based microarchitecture"))
		}
	}
	if *figure == 15 || *all {
		ran = true
		if *jsonOut {
			if err := emitFigureJSON(15); err != nil {
				return err
			}
		} else {
			cmp, err := ce.Figure15()
			if err != nil {
				return err
			}
			emit(cmp.IPCTable("Figure 15: IPC of the clustered dependence-based microarchitecture"))
		}
	}
	if *figure == 17 || *all {
		ran = true
		if *jsonOut {
			if err := emitFigureJSON(17); err != nil {
				return err
			}
		} else {
			cmp, err := ce.Figure17()
			if err != nil {
				return err
			}
			emit(cmp.IPCTable("Figure 17 (top): IPC of clustered microarchitectures"))
			emit(cmp.BypassTable("Figure 17 (bottom): inter-cluster bypass frequency"))
		}
	}
	if *speedup || *all {
		ran = true
		sws, sum, err := ce.SpeedupEstimate()
		if err != nil {
			return err
		}
		emit(ce.SpeedupTable(sws, sum))
	}
	if *tradeoff || *all {
		ran = true
		tbl, err := ce.WindowTradeoff([]int{16, 32, 64, 128})
		if err != nil {
			return err
		}
		emit(tbl)
	}
	if *ablations || *all {
		ran = true
		for _, fn := range []func() (*report.Table, error){
			ce.SteeringAblation, ce.FIFOGeometry, ce.LatencySweep, ce.PredictorAblation,
			ce.AtomicityAblation, ce.FetchRealismAblation, ce.SelectionPolicyAblation,
			ce.StoreForwardingAblation, ce.SteeringDepthAblation, ce.WrongPathAblation,
		} {
			tbl, err := fn()
			if err != nil {
				return err
			}
			emit(tbl)
		}
	}
	if *frontier || *all {
		ran = true
		if *jsonOut {
			data, err := ce.FrontierJSON()
			if err != nil {
				return err
			}
			if _, err := os.Stdout.Write(data); err != nil {
				return err
			}
		} else {
			pts, err := ce.Frontier()
			if err != nil {
				return err
			}
			emit(ce.FrontierTable(pts))
		}
	}
	if *profiles || *all {
		ran = true
		tbl, err := ce.WorkloadProfiles()
		if err != nil {
			return err
		}
		emit(tbl)
	}
	if *micro || *all {
		ran = true
		tbl, err := ce.MicrobenchCharacterization()
		if err != nil {
			return err
		}
		emit(tbl)
	}
	// An unrecognized figure number used to fall through to the
	// misleading "nothing selected" error below; reject it by name. The
	// check sits after the sweeps so that other selections on the same
	// command line still run (and their metrics still flush).
	switch *figure {
	case 0, 13, 15, 17:
	default:
		return fmt.Errorf("unknown figure %d (want 13, 15 or 17)", *figure)
	}
	if !ran {
		flag.Usage()
		return fmt.Errorf("nothing selected: pass -fig N, -speedup, -tradeoff, -ablations, -micro, -frontier, -profiles or -all")
	}
	return nil
}
