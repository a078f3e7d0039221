package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/asm"
	"repro/internal/prog"
	rpt "repro/internal/report"
)

// selection is one entry of the cesweep -all selection, run against the
// engine installed as ce.DefaultEngine (the ablation and table runners
// are package functions over it).
type selection struct {
	name string
	run  func(eng *ce.Engine) error
}

func tables(fns ...func() (*rpt.Table, error)) func(*ce.Engine) error {
	return func(*ce.Engine) error {
		for _, fn := range fns {
			t, err := fn()
			if err != nil {
				return err
			}
			_ = t.String()
		}
		return nil
	}
}

// paperSelections mirrors cesweep -all. fig13 receives the Figure 13
// table's CSV for the golden comparison.
func paperSelections(fig13 *string) []selection {
	figure := func(get func(*ce.Engine) (*ce.IPCComparison, error), title string, bypass bool, out *string) func(*ce.Engine) error {
		return func(eng *ce.Engine) error {
			cmp, err := get(eng)
			if err != nil {
				return err
			}
			t := cmp.IPCTable(title)
			_ = t.String()
			if bypass {
				_ = cmp.BypassTable(title).String()
			}
			if out != nil {
				*out = t.CSV()
			}
			return nil
		}
	}
	return []selection{
		{"Figure13", figure((*ce.Engine).Figure13, "Figure 13", false, fig13)},
		{"Figure15", figure((*ce.Engine).Figure15, "Figure 15", false, nil)},
		{"Figure17", figure((*ce.Engine).Figure17, "Figure 17", true, nil)},
		{"SpeedupEstimate", func(*ce.Engine) error {
			sws, sum, err := ce.SpeedupEstimate()
			if err == nil {
				_ = ce.SpeedupTable(sws, sum).String()
			}
			return err
		}},
		{"WindowTradeoff", func(*ce.Engine) error {
			t, err := ce.WindowTradeoff([]int{16, 32, 64, 128})
			if err == nil {
				_ = t.String()
			}
			return err
		}},
		{"SteeringAblation", tables(ce.SteeringAblation)},
		{"FIFOGeometry", tables(ce.FIFOGeometry)},
		{"LatencySweep", tables(ce.LatencySweep)},
		{"PredictorAblation", tables(ce.PredictorAblation)},
		{"AtomicityAblation", tables(ce.AtomicityAblation)},
		{"FetchRealismAblation", tables(ce.FetchRealismAblation)},
		{"SelectionPolicyAblation", tables(ce.SelectionPolicyAblation)},
		{"StoreForwardingAblation", tables(ce.StoreForwardingAblation)},
		{"SteeringDepthAblation", tables(ce.SteeringDepthAblation)},
		{"WrongPathAblation", tables(ce.WrongPathAblation)},
		{"Frontier", func(eng *ce.Engine) error {
			pts, err := eng.Frontier()
			if err == nil {
				_ = ce.FrontierTable(pts).String()
			}
			return err
		}},
		{"WorkloadProfiles", tables(ce.WorkloadProfiles)},
		{"MicrobenchCharacterization", tables(ce.MicrobenchCharacterization)},
	}
}

// assembleWorkloads assembles the named workloads from source, the
// set-up cost a fresh process pays before its first simulation.
func assembleWorkloads(names []string) error {
	for _, n := range names {
		w, err := prog.ByName(n)
		if err != nil {
			return err
		}
		if _, err := asm.Assemble(w.Name+".s", w.Source); err != nil {
			return err
		}
	}
	return nil
}

// paperSetup builds a cold engine, installs it as the default engine and
// assembles the paper's workloads.
func paperSetup() (*ce.Engine, error) {
	eng := ce.NewEngine()
	ce.DefaultEngine = eng
	return eng, assembleWorkloads(ce.Workloads())
}

// runResults summarizes an engine's recorded runs: results delivered,
// committed instructions in fresh simulations, and each result's
// latency as the engine measured it (capture and capture wait
// included).
func runResults(runs []ce.RunMetrics) (n int, freshCommitted uint64, latMS []float64) {
	for _, m := range runs {
		if !m.Cached {
			freshCommitted += m.Committed
		}
		latMS = append(latMS, (m.WallSeconds+m.CaptureSeconds+m.CaptureWaitSeconds)*1000)
	}
	return len(runs), freshCommitted, latMS
}

// observeRuns turns the engine's per-run callback into spans under the
// span *parent points at: a fresh run is pipeline work with its capture
// (or wait for another run's capture) as a trace child; a recalled
// result is a run-cache span. The engine reports durations at the end
// of each run, so spans are placed backwards from the callback time.
func observeRuns(tr *Tracer, eng *ce.Engine, parent func(m ce.RunMetrics) int) {
	if tr == nil {
		eng.SetObserver(nil)
		return
	}
	eng.SetObserver(func(m ce.RunMetrics) {
		end := time.Now()
		capture := time.Duration((m.CaptureSeconds + m.CaptureWaitSeconds) * float64(time.Second))
		start := end.Add(-time.Duration(m.WallSeconds*float64(time.Second)) - capture)
		layer := "pipeline"
		if m.Cached {
			layer = "runcache"
		}
		id := tr.Add(layer, m.Config+"/"+m.Workload, parent(m), start, end)
		if m.CaptureSeconds > 0 {
			tr.Add("trace", "capture "+m.Workload, id, start, start.Add(capture))
		} else if m.CaptureWaitSeconds > 0 {
			tr.Add("trace", "capture-wait "+m.Workload, id, start, start.Add(capture))
		}
	})
}

func runPaper(e *env) (*report, error) {
	rep := newReport()
	golden, err := os.ReadFile(filepath.Join(e.root, "testdata", "figure13.golden"))
	if err != nil {
		return nil, err
	}
	// The selections run in cesweep's order whatever the seed. A seeded
	// order changes which selection first computes each shared design
	// point, and with it how runs gang over slabs: between seeds that
	// moved peak RSS by about 30% and wall time by about 15%, which would
	// drown the changes this benchmark exists to catch.
	var (
		iters, traced []iteration
		results       int
		committed     []float64
		latMS         []float64
		perSec        []float64
		ceStats       ceSummary
		gcs           gcSummary
	)
	setup := func() (func(), error) {
		_, err := paperSetup()
		return func() {}, err
	}
	setups, err := repeat(e.seconds, setup, func(i int) error {
		eng, err := paperSetup()
		if err != nil {
			return err
		}
		var fig13 string
		sels := paperSelections(&fig13)
		tr := e.tr
		if i%2 == 0 {
			tr = nil // traced runs alternate untraced and traced iterations
		}
		tr.SetWorkload("paper-sweep")
		var cur atomic.Int64
		observeRuns(tr, eng, func(ce.RunMetrics) int { return int(cur.Load()) })
		var gp *gcProbe
		if tr != nil {
			gp = startGCProbe()
		}
		it, err := measureIteration(func() error {
			for _, s := range sels {
				id, end := tr.Begin("ce", s.name, 0)
				cur.Store(int64(id))
				err := s.run(eng)
				end()
				rep.op(err)
				if err != nil {
					return fmt.Errorf("%s: %w", s.name, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if gp != nil {
			gcs.add(gp)
		}
		runs := eng.Metrics()
		n, fresh, lat := runResults(runs)
		results += n
		if tr != nil {
			traced = append(traced, it)
			ceStats.add(eng, runs, it.Wall)
		} else {
			iters = append(iters, it)
			committed = append(committed, float64(fresh)/1e6/it.Wall)
			perSec = append(perSec, float64(n)/it.Wall)
			latMS = append(latMS, lat...)
		}
		// The oracle: Figure 13 against the repository's golden file and
		// every run's deterministic stats against the recorded digest.
		det, err := detDump(runs, eng.CacheStats())
		if err != nil {
			return err
		}
		if e.record != nil {
			e.record.PaperDetSHA256 = sha256Hex(det)
		}
		checkPaper(rep, fig13, string(golden), det, e.oracle.PaperDetSHA256)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.hostE2E(iters, setups)
	rep.e2e["sim_minst_per_s"] = metric{median(committed), "Minst/s"}
	rep.e2e["run_per_s"] = metric{median(perSec), "1/s"}
	rep.e2e["run_p50_ms"] = metric{median(latMS), "ms"}
	rep.note("%d iterations, %d results", len(iters)+len(traced), results)
	if lv, v, err := highTail(latMS); err == nil {
		rep.note("result latency p%.4g %.3f ms over %d results", lv*100, v, len(latMS))
	}
	if e.tr != nil {
		if err := layerReport(e, rep, iters, traced, ceStats, gcs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
