package ce

import (
	"math"
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

// TestEngineSegmentedExactMatchesMonolithic is the engine-level
// exactness differential: a matrix run under full-warmup segmentation
// must reproduce the monolithic engine's results bit for bit, and its
// runs must carry Exact segment metrics.
func TestEngineSegmentedExactMatchesMonolithic(t *testing.T) {
	cfgs := []Config{BaselineConfig(), DependenceConfig()}
	ws := []string{"micro.branchy", "compress"}

	mono := NewEngine()
	want, err := mono.RunMatrix(cfgs, ws)
	if err != nil {
		t.Fatal(err)
	}
	seg := NewEngine()
	seg.SetSegments(4)
	got, err := seg.RunMatrix(cfgs, ws)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range cfgs {
		for wi := range ws {
			eqStats(t, cfgs[ci].Name+"/"+ws[wi], got[ci][wi], want[ci][wi])
		}
	}
	ts := seg.TraceStats()
	if runs := len(cfgs) * len(ws); ts.SegmentRuns != runs {
		t.Errorf("segment runs = %d, want %d", ts.SegmentRuns, runs)
	}
	if ts.SegmentsSimulated < 2*len(cfgs)*len(ws) {
		t.Errorf("segments simulated = %d, want ≥ %d", ts.SegmentsSimulated, 2*len(cfgs)*len(ws))
	}
	for _, m := range seg.Metrics() {
		if m.Segments == nil {
			t.Fatalf("run %s/%s carries no segment metrics", m.Config, m.Workload)
		}
		if !m.Segments.Exact {
			t.Errorf("full-warmup run %s/%s not marked exact", m.Config, m.Workload)
		}
		if m.Segments.Simulated != m.Segments.Segments {
			t.Errorf("unsampled run simulated %d of %d segments", m.Segments.Simulated, m.Segments.Segments)
		}
		if !m.Replayed {
			t.Errorf("segmented run %s/%s not marked replayed", m.Config, m.Workload)
		}
	}
}

// TestEngineSegmentedSharesExactCacheKey pins the cache-key policy:
// exact segmentation shares the monolithic key (the bits are
// identical), while approximate plans are keyed separately in both
// directions.
func TestEngineSegmentedSharesExactCacheKey(t *testing.T) {
	eng := NewEngine()
	w := []string{"micro.branchy"}
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, w); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 1 {
		t.Fatalf("monolithic run: %+v", cs)
	}
	// Exact segmentation: same result, so the cache may (must) serve it.
	eng.SetSegments(4)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, w); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 1 || cs.Saved() != 1 {
		t.Errorf("exact segmented run did not share the monolithic key: %+v", cs)
	}
	// Finite warmup is an estimate: it must not be served the exact
	// result, nor poison it for the monolithic run that follows.
	eng.SetSegmentWarmup(1 << 14)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, w); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 2 {
		t.Errorf("approximate plan shared the exact key: %+v", cs)
	}
	eng.SetSegments(0)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, w); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 2 || cs.Saved() != 2 {
		t.Errorf("monolithic rerun after approximate plan: %+v", cs)
	}
}

// TestEngineSampledSegments exercises the sampling stride: every
// second segment is simulated, the metrics say so, and the IPC estimate
// lands near the monolithic truth.
func TestEngineSampledSegments(t *testing.T) {
	mono := NewEngine()
	want, err := mono.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.SetSegments(4)
	eng.SetSegmentWarmup(1 << 14)
	eng.SetSegmentSample(2)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	ms := eng.Metrics()
	if len(ms) != 1 || ms[0].Segments == nil {
		t.Fatalf("expected one run with segment metrics, got %+v", ms)
	}
	sm := ms[0].Segments
	if sm.Exact {
		t.Error("sampled run marked exact")
	}
	if sm.Simulated >= sm.Segments {
		t.Errorf("sampling simulated %d of %d segments", sm.Simulated, sm.Segments)
	}
	if sm.IPCMean <= 0 {
		t.Errorf("sampled IPC mean %v", sm.IPCMean)
	}
	trueIPC := want[0][0].IPC()
	if sm.IPCMean < trueIPC*0.8 || sm.IPCMean > trueIPC*1.2 {
		t.Errorf("sampled IPC %.3f not within 20%% of monolithic %.3f", sm.IPCMean, trueIPC)
	}
	if sm.EstimatedCycles <= 0 {
		t.Errorf("estimated cycles %d", sm.EstimatedCycles)
	}
}

// TestEngineAdaptiveWarmup exercises IPC-convergence warmup: the run is
// approximate (own cache key), the metrics report the adaptive policy
// with a bounded mean discard, and the estimate lands near the truth.
func TestEngineAdaptiveWarmup(t *testing.T) {
	mono := NewEngine()
	want, err := mono.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.SetSegments(4)
	eng.SetSegmentAdaptive(true)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	ms := eng.Metrics()
	if len(ms) != 1 || ms[0].Segments == nil {
		t.Fatalf("expected one run with segment metrics, got %+v", ms)
	}
	sm := ms[0].Segments
	if !sm.AdaptiveWarmup || sm.Exact || sm.Warmup != 0 {
		t.Errorf("adaptive run misreported: %+v", sm)
	}
	if sm.WarmupConverged < 0 || sm.WarmupConverged > sm.Simulated {
		t.Errorf("WarmupConverged = %d of %d simulated", sm.WarmupConverged, sm.Simulated)
	}
	if sm.WarmupMeanSteps < 0 || sm.WarmupMeanSteps > 65536 {
		t.Errorf("WarmupMeanSteps = %f, want within the adaptive cap", sm.WarmupMeanSteps)
	}
	trueIPC := want[0][0].IPC()
	if sm.IPCMean < trueIPC*0.8 || sm.IPCMean > trueIPC*1.2 {
		t.Errorf("adaptive IPC %.3f not within 20%% of monolithic %.3f", sm.IPCMean, trueIPC)
	}
	// Adaptive is an estimate: it must not share the exact cache key.
	eng.SetSegments(0)
	eng.SetSegmentAdaptive(false)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 2 {
		t.Errorf("adaptive plan shared the exact key: %+v", cs)
	}
}

// TestEnginePhaseSampling exercises phase-clustered sampling end to
// end: segments cluster by their basic-block vectors, one
// representative per phase is timed, and the cluster-weighted estimate
// lands near the monolithic truth.
func TestEnginePhaseSampling(t *testing.T) {
	mono := NewEngine()
	want, err := mono.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.SetSegments(8)
	eng.SetSegmentWarmup(1 << 13)
	eng.SetSegmentPhases(3)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	ms := eng.Metrics()
	if len(ms) != 1 || ms[0].Segments == nil {
		t.Fatalf("expected one run with segment metrics, got %+v", ms)
	}
	sm := ms[0].Segments
	if sm.Mode != "phase" {
		t.Fatalf("mode %q, want phase", sm.Mode)
	}
	if sm.Phases < 1 || sm.Phases > 3 || sm.Simulated != sm.Phases {
		t.Errorf("phase plan: %d phases, %d simulated of %d segments", sm.Phases, sm.Simulated, sm.Segments)
	}
	if sm.Exact {
		t.Error("phase-sampled run marked exact")
	}
	trueIPC := want[0][0].IPC()
	if sm.IPCMean < trueIPC*0.8 || sm.IPCMean > trueIPC*1.2 {
		t.Errorf("phase-weighted IPC %.3f not within 20%% of monolithic %.3f", sm.IPCMean, trueIPC)
	}
	if sm.EstimatedCycles <= 0 {
		t.Errorf("estimated cycles %d", sm.EstimatedCycles)
	}
}

// TestSegmentBench pins stride sampling against the monolithic run it
// stands in for: with every second of 4 segments timed behind a short
// fixed warmup, half the segments run, and both the IPC estimate and
// the extrapolated cycle count stay within a sane band of the truth.
func TestSegmentBench(t *testing.T) {
	const workload = "micro.branchy"
	mono, _, err := NewEngine().RunOne(BaselineConfig(), workload)
	if err != nil {
		t.Fatal(err)
	}
	if mono.Cycles <= 0 || mono.IPC() <= 0 {
		t.Fatalf("monolithic side empty: %+v", mono)
	}
	eng := NewEngine()
	eng.SetSegments(4)
	eng.SetSegmentSample(2)
	eng.SetSegmentWarmup(1 << 13)
	_, m, err := eng.RunOne(BaselineConfig(), workload)
	if err != nil {
		t.Fatal(err)
	}
	sm := m.Segments
	if sm == nil || sm.Mode != "stride" || sm.Sample != 2 || sm.Segments < 2 ||
		sm.Simulated != (sm.Segments+1)/2 {
		t.Fatalf("plan not honoured: %+v", sm)
	}
	if sm.IPCMean <= 0 || sm.EstimatedCycles <= 0 {
		t.Fatalf("sampled side empty: %+v", sm)
	}
	if e := (sm.IPCMean - mono.IPC()) / mono.IPC() * 100; e < -50 || e > 50 {
		t.Errorf("sampled IPC off by %.1f%%", e)
	}
	if e := float64(sm.EstimatedCycles-mono.Cycles) / float64(mono.Cycles) * 100; e < -50 || e > 50 {
		t.Errorf("estimated cycles off by %.1f%%", e)
	}
}

// Equal-budget sampling plans, 4 of 16 segments timed: stride sampling
// behind a fixed warmup, stride sampling with adaptive warmup, and one
// representative per behavior cluster with adaptive warmup.
func planStride(e *Engine) {
	e.SetSegments(16)
	e.SetSegmentSample(4)
	e.SetSegmentWarmup(1 << 15)
}

func planStrideAdaptive(e *Engine) {
	e.SetSegments(16)
	e.SetSegmentSample(4)
	e.SetSegmentAdaptive(true)
}

func planPhase(e *Engine) {
	e.SetSegments(16)
	e.SetSegmentPhases(4)
	e.SetSegmentAdaptive(true)
}

// runStreamed runs workload on the baseline through a fresh engine
// that keeps its traces in dir, under the segment plan (nil for a
// monolithic run), and fails the test unless the trace was replayed
// from disk with no packed bytes resident.
func runStreamed(t *testing.T, dir, workload string, plan func(*Engine)) (Stats, RunMetrics) {
	t.Helper()
	eng := NewEngine()
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		plan(eng)
	}
	st, m, err := eng.RunOne(BaselineConfig(), workload)
	if err != nil {
		t.Fatal(err)
	}
	if ts := eng.TraceStats(); ts.TraceDiskBytes == 0 || ts.TraceResidentBytes != 0 {
		t.Errorf("trace not streamed from disk: %d bytes on disk, %d resident",
			ts.TraceDiskBytes, ts.TraceResidentBytes)
	}
	return st, m
}

// TestStreamBench runs a long workload streamed through a trace
// directory under each equal-budget sampling plan: every plan keeps to
// 4 of 16 segments, lands within a sane band of the monolithic IPC, and
// the adaptive plans actually discard warmup steps.
func TestStreamBench(t *testing.T) {
	const workload = "compress.big"
	dir := t.TempDir()
	mono, _ := runStreamed(t, dir, workload, nil)
	truth := mono.IPC()
	if mono.Cycles <= 0 || truth <= 0 {
		t.Fatalf("exact side empty: %+v", mono)
	}
	for _, mode := range []struct {
		name     string
		plan     func(*Engine)
		adaptive bool
	}{
		{"fixed", planStride, false},
		{"adaptive", planStrideAdaptive, true},
		{"phase", planPhase, true},
	} {
		_, m := runStreamed(t, dir, workload, mode.plan)
		sm := m.Segments
		if sm == nil || sm.Segments != 16 || sm.Simulated < 1 || sm.Simulated > 4 {
			t.Fatalf("%s: broke its 4-of-16 segment budget: %+v", mode.name, sm)
		}
		if sm.IPCMean <= 0 || sm.EstimatedCycles <= 0 {
			t.Errorf("%s: degenerate estimate: %+v", mode.name, sm)
		}
		if e := (sm.IPCMean - truth) / truth * 100; e < -50 || e > 50 {
			t.Errorf("%s: IPC off by %.1f%%", mode.name, e)
		}
		if mode.adaptive && sm.WarmupMeanSteps <= 0 {
			t.Errorf("%s: adaptive warmup discarded no steps: %+v", mode.name, sm)
		}
	}
}

// TestEnginePhaseBeatsStride pins phase-clustered sampling's reason to
// exist on a long workload streamed through a trace directory: at an
// equal budget of 4 of 16 segments, the phase-weighted IPC lands closer
// to the monolithic truth than stride sampling with a fixed warmup.
// Both modes stay within the budget, the disk-backed trace holds no
// packed bytes resident, and adaptive warmup actually discards steps.
// All of it is deterministic.
func TestEnginePhaseBeatsStride(t *testing.T) {
	const workload = "compress.big"
	dir := t.TempDir()
	mono, _ := runStreamed(t, dir, workload, nil)
	_, stride := runStreamed(t, dir, workload, planStride)
	_, phase := runStreamed(t, dir, workload, planPhase)
	truth := mono.IPC()
	errPct := func(m RunMetrics) float64 {
		t.Helper()
		sm := m.Segments
		if sm == nil || sm.Segments != 16 || sm.Simulated < 1 || sm.Simulated > 4 {
			t.Fatalf("sampled run broke its 4-of-16 segment budget: %+v", sm)
		}
		return (sm.IPCMean - truth) / truth * 100
	}
	strideErr, phaseErr := errPct(stride), errPct(phase)
	if stride.Segments.Mode != "stride" || phase.Segments.Mode != "phase" {
		t.Fatalf("modes %q/%q, want stride/phase", stride.Segments.Mode, phase.Segments.Mode)
	}
	if math.Abs(phaseErr) >= math.Abs(strideErr) {
		t.Errorf("phase sampling no better than stride: %+.2f%% vs %+.2f%% (monolithic IPC %.4f)",
			phaseErr, strideErr, truth)
	}
	if phase.Segments.WarmupMeanSteps <= 0 {
		t.Errorf("adaptive warmup discarded no steps: %+v", phase.Segments)
	}
	t.Logf("monolithic IPC %.4f; stride %+.2f%%, phase %+.2f%%", truth, strideErr, phaseErr)
}
