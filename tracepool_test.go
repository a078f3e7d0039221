package ce

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/errclass"
	"repro/internal/prog"
	"repro/internal/trace"
)

// TestSetTraceDirFlushesPool is the regression test for SetTraceDir
// called after traces are already pooled: the earlier captures used to
// stay in-memory only (never persisted anywhere), so the directory
// silently missed exactly the workloads that ran first. A directory
// change now flushes every completed capture to the new directory. Only
// phase-sampled runs pool traces, so every engine here samples.
func TestSetTraceDirFlushesPool(t *testing.T) {
	eng := newPlanned(planSmall)
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
	eng2 := newPlanned(planSmall)
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
// with a trace directory configured, a phase-sampled run's capture
// streams straight to disk and the pooled trace reports its bytes on
// disk, not resident.
func TestEngineStreamingCapture(t *testing.T) {
	eng := newPlanned(planSmall)
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

// TestEngineSampledCaptureFailureNotMemoized pins what a failed
// capture does. With the trace directory replaced by a regular file, a
// monolithic run still succeeds, because it executes in lockstep and
// never opens the directory. A phase-sampled run returns the failure,
// classified transient, and neither the memory nor the disk tier of
// the run cache keeps it (an exact answer stored under the sampled key
// would outlive the fault). Once the directory is repaired, the same
// call returns the sampled estimate.
func TestEngineSampledCaptureFailureNotMemoized(t *testing.T) {
	const workload = "micro.branchy"
	eng := NewEngine()
	cacheDir := t.TempDir()
	if err := eng.SetCacheDir(cacheDir); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "traces")
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	const junk = "not a directory"
	if err := os.WriteFile(dir, []byte(junk), 0o644); err != nil {
		t.Fatal(err)
	}
	cached := func() int {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}

	if _, _, err := eng.RunOne(BaselineConfig(), workload); err != nil {
		t.Fatalf("monolithic run over a broken trace dir: %v", err)
	}
	if b, err := os.ReadFile(dir); err != nil || string(b) != junk {
		t.Errorf("monolithic run touched the trace dir: %q, %v", b, err)
	}

	planSmall(eng)
	_, _, err := eng.RunOne(BaselineConfig(), workload)
	if err == nil || !errclass.IsTransient(err) {
		t.Fatalf("sampled run over a broken trace dir = %v, want a transient error", err)
	}
	if n := cached(); n != 1 {
		t.Errorf("%d run-cache files after the failure, want 1 (the monolithic run)", n)
	}

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	want, _, err := newPlanned(planSmall).RunOne(BaselineConfig(), workload)
	if err != nil {
		t.Fatal(err)
	}
	got, m, err := eng.RunOne(BaselineConfig(), workload)
	if err != nil {
		t.Fatalf("sampled run after the repair: %v", err)
	}
	if m.Cached || m.Segments == nil {
		t.Errorf("repaired sampled run: cached %v, segments %+v; want a fresh estimate", m.Cached, m.Segments)
	}
	eqStats(t, "repaired sampled run", got, want)
	if cs := eng.CacheStats(); cs.Misses != 3 || cs.Hits != 0 || cs.DiskHits != 0 {
		t.Errorf("cache %+v, want 3 misses (monolithic, failed, repaired) and no hits", cs)
	}
	if n := cached(); n != 2 {
		t.Errorf("%d run-cache files after the repair, want 2", n)
	}
	if ts := eng.TraceStats(); ts.Captures != 1 || ts.SegmentRuns != 1 || ts.LockstepRuns != 1 {
		t.Errorf("trace stats %+v, want 1 capture, 1 sampled and 1 lockstep run", ts)
	}
}

// TestEngineMonolithicSweepCapturesNothing pins that only phase-sampled
// runs touch the trace pool: a monolithic matrix over a trace directory
// executes every run in lockstep, captures and loads nothing, and
// leaves the directory empty.
func TestEngineMonolithicSweepCapturesNothing(t *testing.T) {
	eng := NewEngine()
	dir := t.TempDir()
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{BaselineConfig(), DependenceConfig()}
	ws := []string{"micro.branchy", "micro.chain"}
	if _, err := eng.RunMatrix(cfgs, ws); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("monolithic sweep left %d entries in the trace dir (err %v), want none", len(ents), err)
	}
	ts := eng.TraceStats()
	if ts.Captures != 0 || ts.DiskHits != 0 || ts.TraceDiskBytes != 0 || ts.TraceResidentBytes != 0 {
		t.Errorf("monolithic sweep used the trace pool: %+v", ts)
	}
	if want := len(cfgs) * len(ws); ts.LockstepRuns != want || ts.SegmentRuns != 0 {
		t.Errorf("%d lockstep / %d sampled runs, want %d / 0", ts.LockstepRuns, ts.SegmentRuns, want)
	}
}

// TestEngineCorruptTraceRecaptured pins the mid-replay corruption path:
// a trace whose on-disk chunk is flipped after capture fails its lazy
// checksum at the next load, is dropped and invalidated, and the run
// transparently recaptures and retries — correct results, one
// CorruptDropped count, two Captures. The replay goes through a
// phase-sampled plan's parallel segment workers, so the corrupt chunk
// is observed (and the retry coordinated) across concurrent readers —
// which the race detector checks for tearing.
func TestEngineCorruptTraceRecaptured(t *testing.T) {
	t.Run("segmented", func(t *testing.T) {
		const workload = "micro.branchy"
		// The reference: a clean engine under the same plan.
		want, _, err := newPlanned(planSmall).RunOne(DependenceConfig(), workload)
		if err != nil {
			t.Fatal(err)
		}
		eng := newPlanned(planSmall)
		dir := t.TempDir()
		if err := eng.SetTraceDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{workload}); err != nil {
			t.Fatal(err)
		}
		// The pooled trace reads through an open handle, so the flip is
		// visible to its next chunk load.
		rotReadChunk(t, dir, workload)

		// A different configuration misses the run cache and replays the
		// now rotten trace; the engine must drop it, recapture, and
		// succeed.
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
		// The recaptured file is intact: a fresh engine loads it from disk.
		eng2 := newPlanned(planSmall)
		if err := eng2.SetTraceDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := eng2.RunMatrix([]Config{BaselineConfig()}, []string{workload}); err != nil {
			t.Fatal(err)
		}
		if ts := eng2.TraceStats(); ts.DiskHits != 1 {
			t.Errorf("recaptured trace not reloadable: %+v", ts)
		}
	})
}

// planSmall phase-samples at most 2 of 4 segments.
func planSmall(e *Engine) {
	e.SetSegments(4)
	e.SetSegmentPhases(2)
}

// newPlanned returns a fresh engine under plan.
func newPlanned(plan func(*Engine)) *Engine {
	eng := NewEngine()
	plan(eng)
	return eng
}

// traceFor returns workload's pooled trace, capturing or loading it
// if no sampled run has yet.
func (e *Engine) traceFor(workload string) (*trace.Trace, error) {
	tr, _, err := e.traceForOwned(workload)
	return tr, err
}

// rotReadChunk flips one byte of workload's trace file in dir inside
// the chunk holding the first phase representative's start under
// planSmall, invalidating that chunk's checksum but nothing else.
// Chunks are verified lazily, on load, so the flip must land where a
// segment worker is certain to read.
func rotReadChunk(t *testing.T, dir, workload string) {
	t.Helper()
	w, err := prog.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
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
	// The packed stream starts after the 40-byte file header.
	off := int64(40 + segs[phases[0].Rep].Start.Pos)
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
// accounting under concurrency: N phase-sampled configurations
// streaming one rotten trace at once, each through its segment
// workers' Readers, all trip its checksum, but the trace is dropped
// (and counted) once, recaptured once, and every run's statistics
// equal a clean engine's under the same plan. Run under -race it also
// checks the drop for tearing. The recaptured file must survive the
// late drops: a fresh engine loads it from disk.
func TestEngineConcurrentCorruptDropCountedOnce(t *testing.T) {
	const workload = "micro.branchy"
	cfgs := replayPanel()
	if len(cfgs) < 3 {
		t.Fatalf("panel has %d replay-capable configs; need >= 3", len(cfgs))
	}
	clean, err := newPlanned(planSmall).RunMatrix(cfgs, []string{workload})
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
	rotReadChunk(t, dir, workload)

	// Every run blocks on the one lazy disk load, then all replay the
	// same rotten trace together.
	eng := newPlanned(planSmall)
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
			t.Fatalf("%s: %v", cfg.Name, errs[i])
		}
		eqStats(t, cfg.Name, got[i], clean[i][0])
	}
	ts := eng.TraceStats()
	if ts.CorruptDropped != 1 || ts.DiskHits != 1 || ts.Captures != 1 {
		t.Errorf("CorruptDropped=%d DiskHits=%d Captures=%d, want 1/1/1",
			ts.CorruptDropped, ts.DiskHits, ts.Captures)
	}
	reload := NewEngine()
	if err := reload.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := reload.traceFor(workload); err != nil {
		t.Fatal(err)
	}
	if ts := reload.TraceStats(); ts.DiskHits != 1 || ts.Captures != 0 {
		t.Errorf("recaptured trace not reloadable: %+v", ts)
	}
}

// TestEngineStreamedDecodeAccounting pins the sampled runs' decode
// accounting: every segment worker streams its trace through a private
// Reader, so a matrix decodes exactly the timed records plus each
// representative's warmup prefix, every fresh run is phase-sampled,
// and the slab counters kept for the benchmark stay 0.
func TestEngineStreamedDecodeAccounting(t *testing.T) {
	cfgs := replayPanel()
	workloads := []string{"compress", "micro.branchy"}
	eng := newPlanned(planSmall)
	if _, err := eng.RunMatrix(cfgs, workloads); err != nil {
		t.Fatal(err)
	}
	var decoded uint64
	for _, m := range eng.Metrics() {
		if m.Cached {
			continue
		}
		if m.Segments == nil {
			t.Fatalf("%s/%s: fresh run not phase-sampled", m.Config, m.Workload)
		}
		warmup := math.Round(m.Segments.WarmupMeanSteps * float64(m.Segments.Simulated))
		decoded += m.EmuSteps + uint64(warmup)
	}
	ts := eng.TraceStats()
	if ts.RecordsDecoded != decoded {
		t.Errorf("sampled sweep decoded %d records, want %d (timed records plus warmup prefixes)",
			ts.RecordsDecoded, decoded)
	}
	if ts.SlabDecodes != 0 || ts.SlabHits != 0 || ts.SlabPeakBytes != 0 {
		t.Errorf("slab counters = %d decodes, %d hits, %d peak bytes; want all 0",
			ts.SlabDecodes, ts.SlabHits, ts.SlabPeakBytes)
	}
	if want := len(cfgs) * len(workloads); ts.SegmentRuns != want || ts.LockstepRuns != 0 {
		t.Errorf("SegmentRuns/LockstepRuns = %d/%d, want %d/0", ts.SegmentRuns, ts.LockstepRuns, want)
	}
}

// TestEngineConcurrentSingleCapture pins capture attribution: when N
// phase-sampled configurations race over one uncaptured workload, the
// workload is captured once and the cost is charged to exactly one
// run's CaptureSeconds; the others report only wait time
// (CaptureWaitSeconds), so summing CaptureSeconds across a sweep counts
// each capture once.
func TestEngineConcurrentSingleCapture(t *testing.T) {
	const workload = "micro.branchy"
	cfgs := replayPanel()
	eng := newPlanned(planSmall)
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

// TestEngineDriveCounterAudit scripts every drive on one engine over a
// trace directory and pins the drive counters to the script: a
// monolithic matrix and a wrong-path configuration under a sampled
// plan run in lockstep, the cold sampled run captures its trace, and a
// second engine's warm sampled run loads it from disk. Steps executed
// are the lockstep runs' plus the capture's; steps replayed are the
// sampled runs'. Each phase runs its pairs concurrently, so -race
// checks the counting too.
func TestEngineDriveCounterAudit(t *testing.T) {
	const workload = "micro.branchy"
	dir := t.TempDir()
	eng := NewEngine()
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{BaselineConfig(), DependenceConfig()}
	ws := []string{workload, "micro.chain"}
	if _, err := eng.RunMatrix(cfgs, ws); err != nil {
		t.Fatal(err)
	}
	planSmall(eng)
	if _, err := eng.RunMatrix([]Config{WithWrongPath(BaselineConfig()), BaselineConfig()}, []string{workload}); err != nil {
		t.Fatal(err)
	}
	var lockSteps, sampledSteps uint64
	for _, m := range eng.Metrics() {
		if m.Segments != nil {
			sampledSteps += m.EmuSteps
		} else {
			lockSteps += m.EmuSteps
		}
	}
	tr, err := eng.traceFor(workload)
	if err != nil {
		t.Fatal(err)
	}
	want := TraceStats{
		Captures:      1,
		LockstepRuns:  len(cfgs)*len(ws) + 1,
		SegmentRuns:   1,
		StepsExecuted: lockSteps + tr.Steps(),
		StepsReplayed: sampledSteps,
	}
	auditDrive(t, "cold engine", eng.TraceStats(), want)

	warm := newPlanned(planSmall)
	if err := warm.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	_, m, err := warm.RunOne(BaselineConfig(), workload)
	if err != nil {
		t.Fatal(err)
	}
	auditDrive(t, "warm engine", warm.TraceStats(), TraceStats{DiskHits: 1, SegmentRuns: 1, StepsReplayed: m.EmuSteps})
}

// auditDrive compares the drive counters of got against want.
func auditDrive(t *testing.T, label string, got, want TraceStats) {
	t.Helper()
	type drive struct {
		Captures, DiskHits, LockstepRuns, SegmentRuns int
		StepsExecuted, StepsReplayed                  uint64
	}
	pick := func(ts TraceStats) drive {
		return drive{ts.Captures, ts.DiskHits, ts.LockstepRuns, ts.SegmentRuns, ts.StepsExecuted, ts.StepsReplayed}
	}
	if g, w := pick(got), pick(want); g != w {
		t.Errorf("%s: drive counters %+v, want %+v", label, g, w)
	}
}
