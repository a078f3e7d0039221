package ce

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
)

// TestEngineTracePoolEquivalence pins the engine-level replay contract
// over the configurations of Figure 13 and the speedup estimate on
// every paper workload: the trace pool's results equal lockstep
// execution (Run), each workload is captured exactly once however many
// configurations consume it, a wrong-path configuration falls back to
// lockstep, and the capture cost is attributed to the pool rather than
// to any run.
func TestEngineTracePoolEquivalence(t *testing.T) {
	wp := BaselineConfig()
	wp.WrongPathExecution = true
	wp.Name += "+wrong-path"
	workloads := Workloads()

	eng := NewEngine()
	equivalent := func(cfgs []Config, ws []string) {
		got, err := eng.RunMatrix(cfgs, ws)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i, cfg := range cfgs {
			for j, w := range ws {
				wg.Add(1)
				go func() {
					defer wg.Done()
					want, err := Run(cfg, w)
					if err != nil {
						t.Error(err)
						return
					}
					eqStats(t, cfg.Name+"/"+w+" engine vs lockstep", got[i][j], want)
				}()
			}
		}
		wg.Wait()
	}
	equivalent([]Config{BaselineConfig(), DependenceConfig(), ClusteredDependenceConfig()}, workloads)
	equivalent([]Config{wp}, []string{"micro.branchy"})

	ts := eng.TraceStats()
	if ts.Captures != len(workloads) || ts.DiskHits != 0 {
		t.Errorf("engine captured %d workloads (%d disk hits), want %d captures",
			ts.Captures, ts.DiskHits, len(workloads))
	}
	if replay, lock := 3*len(workloads), 1; ts.ReplayRuns != replay || ts.LockstepRuns != lock {
		t.Errorf("engine ran %d replay / %d lockstep sims, want %d / %d (wrong-path falls back)",
			ts.ReplayRuns, ts.LockstepRuns, replay, lock)
	}
	if ts.StepsReplayed == 0 || ts.StepsExecuted == 0 {
		t.Errorf("degenerate step balance: %+v", ts)
	}

	// Per-run metrics: fresh runs are marked by drive mode, and capture
	// time is reported separately from (not inside) the run's wall time.
	for _, m := range eng.Metrics() {
		if m.Cached {
			continue
		}
		wantReplay := m.Config != wp.Name
		if m.Replayed != wantReplay {
			t.Errorf("%s/%s: Replayed = %v, want %v", m.Config, m.Workload, m.Replayed, wantReplay)
		}
		if !wantReplay && m.CaptureSeconds != 0 {
			t.Errorf("%s/%s: lockstep run carries capture attribution: %+v", m.Config, m.Workload, m)
		}
		if m.WallSeconds < 0 || m.CaptureSeconds < 0 {
			t.Errorf("%s/%s: negative attribution: wall %g capture %g",
				m.Config, m.Workload, m.WallSeconds, m.CaptureSeconds)
		}
	}
}

// TestSetTraceDirFlushesPool is the regression test for SetTraceDir
// called after traces are already pooled: the earlier captures used to
// stay in-memory only (never persisted anywhere), so the directory
// silently missed exactly the workloads that ran first. A directory
// change now flushes every completed capture to the new directory.
func TestSetTraceDirFlushesPool(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if ts := eng.TraceStats(); ts.Captures != 1 {
		t.Fatalf("expected 1 pooled capture, got %+v", ts)
	}

	dir := t.TempDir()
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}

	// The pooled trace must now exist on disk under the new directory.
	w, err := prog.ByName("micro.branchy")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadFile(dir, p); err != nil {
		t.Fatalf("pooled trace was not flushed to the new dir: %v", err)
	}

	// A fresh engine pointed at the same directory loads the flushed
	// trace instead of re-executing the workload.
	eng2 := NewEngine()
	if err := eng2.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if ts := eng2.TraceStats(); ts.DiskHits != 1 || ts.Captures != 0 {
		t.Errorf("fresh engine did not load the flushed trace: %+v", ts)
	}

	// Setting the same directory again is a no-op (no error, pool kept).
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMatrix([]Config{DependenceConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if ts := eng.TraceStats(); ts.Captures != 1 {
		t.Errorf("pool was dropped on a no-op dir change: %+v", ts)
	}
}

// TestEngineStreamingCapture pins the bounded-memory capture contract:
// with a trace directory configured, capture streams straight to disk
// and the pooled trace reports its bytes on disk, not resident.
func TestEngineStreamingCapture(t *testing.T) {
	eng := NewEngine()
	dir := t.TempDir()
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	ts := eng.TraceStats()
	if ts.Captures != 1 {
		t.Fatalf("expected 1 capture, got %+v", ts)
	}
	if ts.TraceDiskBytes == 0 || ts.TraceResidentBytes != 0 {
		t.Errorf("streamed capture footprint disk=%d resident=%d, want all bytes on disk",
			ts.TraceDiskBytes, ts.TraceResidentBytes)
	}
	w, err := prog.ByName("micro.branchy")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(trace.DiskPath(dir, p)); err != nil {
		t.Errorf("streamed capture missing from the trace dir: %v", err)
	}
}

// TestEngineCaptureFailureCounted pins the lockstep-fallback
// accounting: when the trace cannot be captured, the run still succeeds
// by lockstep execution, and the fallback is counted rather than
// silent.
func TestEngineCaptureFailureCounted(t *testing.T) {
	eng := NewEngine()
	dir := filepath.Join(t.TempDir(), "traces")
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	// Replace the trace directory with a regular file: ReadFile and the
	// streaming capture both fail with ENOTDIR, forcing the fallback.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := Run(BaselineConfig(), "micro.branchy")
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Cycles != want.Cycles {
		t.Errorf("fallback run diverges: %d cycles vs %d", got[0][0].Cycles, want.Cycles)
	}
	ts := eng.TraceStats()
	if ts.CaptureFailures != 1 || ts.LockstepRuns != 1 || ts.ReplayRuns != 0 {
		t.Errorf("fallback not accounted: %+v", ts)
	}
	for _, m := range eng.Metrics() {
		if m.Replayed {
			t.Errorf("%s/%s marked replayed despite capture failure", m.Config, m.Workload)
		}
	}
}

// TestEngineCorruptTraceRecaptured pins the mid-replay corruption path:
// a trace whose on-disk chunk is flipped after capture fails its lazy
// checksum at the next load, is dropped and invalidated, and the run
// transparently recaptures and retries — correct results, one
// CorruptDropped count, two Captures. The segmented variant routes the
// replay through a phase-sampled plan's parallel segment workers, so
// the corrupt chunk is observed (and the retry coordinated) across
// concurrent readers — which the race detector checks for tearing.
func TestEngineCorruptTraceRecaptured(t *testing.T) {
	t.Run("monolithic", func(t *testing.T) { testCorruptTraceRecaptured(t, nil) })
	t.Run("segmented", func(t *testing.T) { testCorruptTraceRecaptured(t, planSmall) })
}

// planSmall phase-samples at most 2 of 4 segments.
func planSmall(e *Engine) {
	e.SetSegments(4)
	e.SetSegmentPhases(2)
}

// newPlanned returns a fresh engine under plan (nil: monolithic).
func newPlanned(plan func(*Engine)) *Engine {
	eng := NewEngine()
	if plan != nil {
		plan(eng)
	}
	return eng
}

func testCorruptTraceRecaptured(t *testing.T, plan func(*Engine)) {
	const workload = "micro.branchy"
	// The reference: lockstep execution for a monolithic run, a clean
	// engine under the same plan for a phase-sampled estimate.
	want, err := Run(DependenceConfig(), workload)
	if plan != nil {
		want, _, err = newPlanned(plan).RunOne(DependenceConfig(), workload)
	}
	if err != nil {
		t.Fatal(err)
	}
	eng := newPlanned(plan)
	dir := t.TempDir()
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{workload}); err != nil {
		t.Fatal(err)
	}
	// The pooled trace reads through an open handle, so the flip is
	// visible to its next chunk load.
	rotReadChunk(t, dir, workload, plan != nil)

	// A different configuration misses the run cache and replays the now
	// rotten trace; the engine must drop it, recapture, and succeed.
	got, err := eng.RunMatrix([]Config{DependenceConfig()}, []string{workload})
	if err != nil {
		t.Fatal(err)
	}
	eqStats(t, "recaptured run", got[0][0], want)
	ts := eng.TraceStats()
	if ts.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1 (%+v)", ts.CorruptDropped, ts)
	}
	if ts.Captures != 2 {
		t.Errorf("Captures = %d, want 2 (original + recapture)", ts.Captures)
	}
	if ts.CaptureFailures != 0 {
		t.Errorf("corruption miscounted as capture failure: %+v", ts)
	}
	// The recaptured file is intact: a fresh engine loads it from disk.
	eng2 := NewEngine()
	if err := eng2.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.RunMatrix([]Config{BaselineConfig()}, []string{workload}); err != nil {
		t.Fatal(err)
	}
	if ts := eng2.TraceStats(); ts.DiskHits != 1 {
		t.Errorf("recaptured trace not reloadable: %+v", ts)
	}
}

// rotReadChunk flips one byte of workload's trace file in dir inside a
// chunk the next replay is certain to read, invalidating that chunk's
// checksum but nothing else. Chunks are verified lazily, on load, so
// the flip must land where a reader starts: the first chunk for a
// monolithic replay, and the chunk holding the first phase
// representative's start under planSmall.
func rotReadChunk(t *testing.T, dir, workload string, sampled bool) {
	t.Helper()
	w, err := prog.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	var pos uint64
	if sampled {
		tr, err := trace.ReadFile(dir, p)
		if err != nil {
			t.Fatal(err)
		}
		segs := tr.Segments(4)
		phases := tr.SegmentPhases(segs, 2)
		tr.Close()
		if len(phases) == 0 {
			t.Fatalf("%s yields no phases", workload)
		}
		pos = segs[phases[0].Rep].Start.Pos
	}
	// The packed stream starts after the 40-byte file header.
	off := int64(40 + pos)
	f, err := os.OpenFile(trace.DiskPath(dir, p), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// replayPanel is the verification panel without its wrong-path
// configurations: those cannot replay a trace, so they run lockstep.
func replayPanel() []Config {
	var cfgs []Config
	for _, cfg := range benchPanel() {
		if !cfg.WrongPathExecution {
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TestEngineConcurrentCorruptDropCountedOnce pins the corrupt-drop
// accounting under concurrency: N configurations streaming one rotten
// trace at once, each through its own Reader (monolithic) or its
// segment workers' Readers (planSmall), all trip its checksum, but the
// trace is dropped (and counted) once, recaptured once, and every run's
// statistics equal a clean engine's under the same plan. Run under
// -race it also checks the drop for tearing. The recaptured file must
// survive the late drops: a fresh engine loads it from disk.
func TestEngineConcurrentCorruptDropCountedOnce(t *testing.T) {
	const workload = "micro.branchy"
	cfgs := replayPanel()
	if len(cfgs) < 3 {
		t.Fatalf("panel has %d replay-capable configs; need >= 3", len(cfgs))
	}
	for _, leg := range []struct {
		name string
		plan func(*Engine)
	}{{"monolithic", nil}, {"sampled", planSmall}} {
		clean, err := newPlanned(leg.plan).RunMatrix(cfgs, []string{workload})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		seed := NewEngine()
		if err := seed.SetTraceDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := seed.traceFor(workload); err != nil {
			t.Fatal(err)
		}
		rotReadChunk(t, dir, workload, leg.plan != nil)

		// Every run blocks on the one lazy disk load, then all replay the
		// same rotten trace together.
		eng := newPlanned(leg.plan)
		if err := eng.SetTraceDir(dir); err != nil {
			t.Fatal(err)
		}
		got := make([]Stats, len(cfgs))
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for i, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _, errs[i] = eng.RunOne(cfg, workload)
			}()
		}
		wg.Wait()
		for i, cfg := range cfgs {
			if errs[i] != nil {
				t.Fatalf("%s %s: %v", leg.name, cfg.Name, errs[i])
			}
			eqStats(t, leg.name+" "+cfg.Name, got[i], clean[i][0])
		}
		ts := eng.TraceStats()
		if ts.CorruptDropped != 1 || ts.DiskHits != 1 || ts.Captures != 1 {
			t.Errorf("%s: CorruptDropped=%d DiskHits=%d Captures=%d, want 1/1/1",
				leg.name, ts.CorruptDropped, ts.DiskHits, ts.Captures)
		}
		reload := NewEngine()
		if err := reload.SetTraceDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := reload.traceFor(workload); err != nil {
			t.Fatal(err)
		}
		if ts := reload.TraceStats(); ts.DiskHits != 1 || ts.Captures != 0 {
			t.Errorf("%s: recaptured trace not reloadable: %+v", leg.name, ts)
		}
	}
}

// TestEngineStreamedDecodeAccounting pins replay's decode accounting:
// every replay run streams its trace through a private Reader, so a
// matrix decodes exactly #configs × the summed trace lengths, every
// fresh run is marked replayed, and the slab counters kept for the
// benchmark stay 0. Lockstep equivalence of the results is
// TestEngineTracePoolEquivalence's job.
func TestEngineStreamedDecodeAccounting(t *testing.T) {
	cfgs := replayPanel()
	workloads := []string{"compress", "micro.branchy"}
	eng := NewEngine()
	if _, err := eng.RunMatrix(cfgs, workloads); err != nil {
		t.Fatal(err)
	}
	var steps uint64
	for _, w := range workloads {
		tr, err := eng.traceFor(w)
		if err != nil {
			t.Fatal(err)
		}
		steps += tr.Steps()
	}
	ts := eng.TraceStats()
	if want := uint64(len(cfgs)) * steps; ts.RecordsDecoded != want {
		t.Errorf("streamed sweep decoded %d records, want %d (configs x summed trace lengths)",
			ts.RecordsDecoded, want)
	}
	if ts.SlabDecodes != 0 || ts.SlabHits != 0 || ts.SlabPeakBytes != 0 {
		t.Errorf("slab counters = %d decodes, %d hits, %d peak bytes; want all 0",
			ts.SlabDecodes, ts.SlabHits, ts.SlabPeakBytes)
	}
	if want := len(cfgs) * len(workloads); ts.ReplayRuns != want || ts.LockstepRuns != 0 {
		t.Errorf("ReplayRuns/LockstepRuns = %d/%d, want %d/0", ts.ReplayRuns, ts.LockstepRuns, want)
	}
	for _, m := range eng.Metrics() {
		if !m.Cached && !m.Replayed {
			t.Errorf("%s/%s: fresh run not marked replayed", m.Config, m.Workload)
		}
	}
}

// TestEngineConcurrentSingleCapture pins capture attribution: when N
// configurations race over one uncaptured workload, the workload is
// captured once and the cost is charged to exactly one run's
// CaptureSeconds; the others report only wait time
// (CaptureWaitSeconds), so summing CaptureSeconds across a sweep counts
// each capture once.
func TestEngineConcurrentSingleCapture(t *testing.T) {
	const workload = "micro.branchy"
	cfgs := replayPanel()
	eng := NewEngine()
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = eng.RunOne(cfg, workload)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cfgs[i].Name, err)
		}
	}
	if ts := eng.TraceStats(); ts.Captures != 1 {
		t.Fatalf("Captures = %d, want 1", ts.Captures)
	}
	owners := 0
	for _, m := range eng.Metrics() {
		if m.Cached {
			continue
		}
		if m.CaptureSeconds > 0 {
			owners++
			if m.CaptureWaitSeconds > 0 {
				t.Errorf("%s/%s reports both owned capture (%gs) and wait (%gs)",
					m.Config, m.Workload, m.CaptureSeconds, m.CaptureWaitSeconds)
			}
		}
	}
	if owners != 1 {
		t.Errorf("%d runs report owned capture time, want exactly 1", owners)
	}
}
