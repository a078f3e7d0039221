package ce

import (
	"math"
	"sync"
	"testing"
)

// eqStats compares the deterministic Stats fields (host telemetry
// legitimately differs between a monolithic run and a segmented one).
func eqStats(t *testing.T, label string, got, want Stats) {
	t.Helper()
	g, w := got, want
	g.HostAllocs, w.HostAllocs = 0, 0
	g.HostWallSeconds, w.HostWallSeconds = 0, 0
	gh, wh := g.IssuedPerCycle, w.IssuedPerCycle
	g.IssuedPerCycle, w.IssuedPerCycle = nil, nil
	if g != w {
		t.Errorf("%s: stats diverge:\n  got  %+v\n  want %+v", label, g, w)
	}
	if gh.Total() != wh.Total() {
		t.Errorf("%s: issue histogram records %d cycles, want %d", label, gh.Total(), wh.Total())
	}
	for v := 0; v <= 8; v++ {
		if gh.Count(v) != wh.Count(v) {
			t.Errorf("%s: issue histogram bucket %d = %d, want %d", label, v, gh.Count(v), wh.Count(v))
		}
	}
}

// TestEnginePhaseSampledCounterAudit runs every pair at once on a cold
// phase-sampled engine: each counter counts each event exactly once,
// whatever the interleaving, and every run carries its segment metrics.
func TestEnginePhaseSampledCounterAudit(t *testing.T) {
	cfgs := []Config{BaselineConfig(), DependenceConfig()}
	ws := []string{"micro.branchy", "compress"}

	eng := NewEngine()
	eng.SetSegments(4)
	eng.SetSegmentPhases(2)
	var wg sync.WaitGroup
	errs := make(chan error, len(cfgs)*len(ws))
	for _, c := range cfgs {
		for _, w := range ws {
			wg.Add(1)
			go func(c Config, w string) {
				defer wg.Done()
				if _, _, err := eng.RunOne(c, w); err != nil {
					errs <- err
				}
			}(c, w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ts := eng.TraceStats()
	runs := len(cfgs) * len(ws)
	if ts.SegmentRuns != runs || ts.LockstepRuns != 0 {
		t.Errorf("%d segment runs, %d lockstep runs, want %d and 0", ts.SegmentRuns, ts.LockstepRuns, runs)
	}
	if ts.Captures != len(ws) {
		t.Errorf("%d captures, want one per workload (%d)", ts.Captures, len(ws))
	}
	simulated := 0
	for _, m := range eng.Metrics() {
		if m.Segments == nil {
			t.Fatalf("run %s/%s carries no segment metrics", m.Config, m.Workload)
		}
		simulated += m.Segments.Simulated
	}
	if ts.SegmentsSimulated != simulated {
		t.Errorf("segments simulated = %d, runs report %d", ts.SegmentsSimulated, simulated)
	}
}

// TestEngineSampledPlanCacheKeys pins the cache-key policy on one
// engine: the monolithic run and every phase-sampled plan — differing
// in either the segment count or the phase budget — get keys of their
// own, and a second pass of each plan is served from the cache.
func TestEngineSampledPlanCacheKeys(t *testing.T) {
	eng := NewEngine()
	w := []string{"micro.branchy"}
	plans := []segPlan{{0, 0}, {4, 2}, {4, 3}, {8, 2}}
	for pass := 1; pass <= 2; pass++ {
		for _, p := range plans {
			eng.SetSegments(p.k)
			eng.SetSegmentPhases(p.phases)
			if _, err := eng.RunMatrix([]Config{BaselineConfig()}, w); err != nil {
				t.Fatal(err)
			}
		}
		if cs := eng.CacheStats(); cs.Misses != uint64(len(plans)) || cs.Saved() != uint64((pass-1)*len(plans)) {
			t.Errorf("pass %d over %d plans: %d misses, %d saved; want %d misses, %d saved",
				pass, len(plans), cs.Misses, cs.Saved(), len(plans), (pass-1)*len(plans))
		}
	}
}

// TestEnginePhaseSampling exercises phase-sampled simulation end to
// end: segments cluster by their basic-block vectors, one
// representative per phase is timed behind a bounded adaptive warmup,
// the cluster-weighted estimate lands near the monolithic truth, and
// the estimate is cached under its own key.
func TestEnginePhaseSampling(t *testing.T) {
	mono := NewEngine()
	want, err := mono.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.SetSegments(8)
	eng.SetSegmentPhases(3)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	ms := eng.Metrics()
	if len(ms) != 1 || ms[0].Segments == nil {
		t.Fatalf("expected one run with segment metrics, got %+v", ms)
	}
	sm := ms[0].Segments
	if sm.Phases < 1 || sm.Phases > 3 || sm.Simulated != sm.Phases || sm.Simulated >= sm.Segments {
		t.Errorf("phase plan: %d phases, %d simulated of %d segments", sm.Phases, sm.Simulated, sm.Segments)
	}
	if sm.WarmupConverged < 0 || sm.WarmupConverged > sm.Simulated {
		t.Errorf("WarmupConverged = %d of %d simulated", sm.WarmupConverged, sm.Simulated)
	}
	if sm.WarmupMeanSteps <= 0 || sm.WarmupMeanSteps > 65536 {
		t.Errorf("WarmupMeanSteps = %f, want within (0, the adaptive cap]", sm.WarmupMeanSteps)
	}
	trueIPC := want[0][0].IPC()
	if sm.IPCMean < trueIPC*0.8 || sm.IPCMean > trueIPC*1.2 {
		t.Errorf("phase-weighted IPC %.3f not within 20%% of monolithic %.3f", sm.IPCMean, trueIPC)
	}
	if sm.EstimatedCycles <= 0 {
		t.Errorf("estimated cycles %d", sm.EstimatedCycles)
	}
	// The estimate must not share the monolithic cache key.
	eng.SetSegments(0)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 2 {
		t.Errorf("phase-sampled plan shared the monolithic key: %+v", cs)
	}
}

// planPhase phase-samples 4 of 16 segments: one representative per
// behavior cluster.
func planPhase(e *Engine) {
	e.SetSegments(16)
	e.SetSegmentPhases(4)
}

// TestStreamBench runs a long workload streamed through a trace
// directory under the phase-sampled plan: the trace is read from disk
// with no packed bytes resident, the run keeps to 4 of 16 segments,
// lands within a sane band of the monolithic IPC, and adaptive warmup
// actually discards steps.
func TestStreamBench(t *testing.T) {
	const workload = "compress.big"
	mono, err := Run(BaselineConfig(), workload)
	if err != nil {
		t.Fatal(err)
	}
	truth := mono.IPC()
	if mono.Cycles <= 0 || truth <= 0 {
		t.Fatalf("monolithic side empty: %+v", mono)
	}
	eng := NewEngine()
	if err := eng.SetTraceDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	planPhase(eng)
	_, m, err := eng.RunOne(BaselineConfig(), workload)
	if err != nil {
		t.Fatal(err)
	}
	if ts := eng.TraceStats(); ts.TraceDiskBytes == 0 || ts.TraceResidentBytes != 0 {
		t.Errorf("trace not streamed from disk: %d bytes on disk, %d resident",
			ts.TraceDiskBytes, ts.TraceResidentBytes)
	}
	sm := m.Segments
	if sm == nil || sm.Segments != 16 || sm.Simulated < 1 || sm.Simulated > 4 {
		t.Fatalf("broke its 4-of-16 segment budget: %+v", sm)
	}
	if sm.IPCMean <= 0 || sm.EstimatedCycles <= 0 {
		t.Errorf("degenerate estimate: %+v", sm)
	}
	if e := (sm.IPCMean - truth) / truth * 100; e < -50 || e > 50 {
		t.Errorf("IPC off by %.1f%%", e)
	}
	if sm.WarmupMeanSteps <= 0 {
		t.Errorf("adaptive warmup discarded no steps: %+v", sm)
	}
}

// TestEnginePhaseAccuracy pins how close phase sampling lands on a long
// workload: at 4 of 16 segments on compress.big, the cluster-weighted
// IPC is within 1% of the monolithic IPC (+0.32% when pinned) and the
// cycle estimate within 2% of the monolithic cycle count (+1.54%). All
// of it is deterministic.
func TestEnginePhaseAccuracy(t *testing.T) {
	const workload = "compress.big"
	mono, _, err := NewEngine().RunOne(BaselineConfig(), workload)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	planPhase(eng)
	_, m, err := eng.RunOne(BaselineConfig(), workload)
	if err != nil {
		t.Fatal(err)
	}
	sm := m.Segments
	if sm == nil || sm.Segments != 16 || sm.Simulated < 1 || sm.Simulated > 4 {
		t.Fatalf("phase plan broke its 4-of-16 segment budget: %+v", sm)
	}
	ipcErr := (sm.IPCMean - mono.IPC()) / mono.IPC() * 100
	cycErr := float64(sm.EstimatedCycles-mono.Cycles) / float64(mono.Cycles) * 100
	if math.Abs(ipcErr) > 1 {
		t.Errorf("phase IPC %.4f off the monolithic %.4f by %+.2f%%, want within 1%%", sm.IPCMean, mono.IPC(), ipcErr)
	}
	if math.Abs(cycErr) > 2 {
		t.Errorf("estimated cycles %d off the monolithic %d by %+.2f%%, want within 2%%", sm.EstimatedCycles, mono.Cycles, cycErr)
	}
	t.Logf("monolithic IPC %.4f; phase IPC %+.2f%%, estimated cycles %+.2f%%", mono.IPC(), ipcErr, cycErr)
}
