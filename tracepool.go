package ce

// The engine's trace pool: a phase-sampled run times a few segments of
// its workload's execution trace, so the Engine captures one trace per
// workload (single-flight, like the run cache) and every sampled run's
// segment workers stream that shared read-only trace through private
// trace.Readers. Full runs need no trace: they execute in lockstep
// (Run), and wrong-path configurations, which must execute down
// mispredicted paths, always do.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/isa"
	"repro/internal/lease"
	"repro/internal/prog"
	"repro/internal/trace"
)

// TraceStats counts the engine's trace-pool activity. It separates the
// one-time capture cost (CaptureSeconds, CaptureAllocs, one functional
// execution per workload) from the per-simulation cost that
// Stats.HostWallSeconds/HostAllocs report, and exposes the
// executed-versus-replayed instruction balance a sweep achieves.
type TraceStats struct {
	// Captures is the number of workloads functionally executed to build
	// a trace this process; DiskHits counts traces loaded from the trace
	// directory instead. Only phase-sampled runs capture or load traces.
	Captures int `json:"captures"`
	DiskHits int `json:"disk_hits"`
	// LockstepRuns counts fresh simulations that executed in lockstep:
	// every run that was not phase-sampled.
	LockstepRuns int `json:"lockstep_runs"`
	// CaptureSeconds and CaptureAllocs are the wall time and heap
	// allocations spent capturing traces — the one-time cost excluded
	// from every run's WallSeconds and Stats.HostAllocs.
	CaptureSeconds float64 `json:"capture_seconds"`
	CaptureAllocs  uint64  `json:"capture_allocs"`
	// StepsExecuted counts dynamic instructions resolved by functional
	// execution (captures plus lockstep simulations); StepsReplayed
	// counts those the phase-sampled runs timed from captured traces.
	StepsExecuted uint64 `json:"steps_executed"`
	StepsReplayed uint64 `json:"steps_replayed"`
	// LeaseWaits counts captures avoided by waiting out another
	// process's capture lease on the shared trace directory
	// (Engine.SetSharedStore); each is also counted in DiskHits.
	LeaseWaits int `json:"lease_waits,omitempty"`
	// SegmentRuns counts fresh phase-sampled runs (segmented.go);
	// SegmentsSimulated totals the segments they timed.
	SegmentRuns       int `json:"segment_runs,omitempty"`
	SegmentsSimulated int `json:"segments_simulated,omitempty"`
	// CorruptDropped counts pooled traces dropped mid-replay after a
	// chunk failed its checksum; each was invalidated on disk and
	// recaptured once before the run retried.
	CorruptDropped int `json:"corrupt_dropped,omitempty"`
	// TraceDiskBytes and TraceResidentBytes split the pooled traces'
	// packed bytes by where they live — the streaming capture and
	// disk-backed readers keep multi-gigabyte traces on disk with only
	// O(readers) chunk buffers resident. Snapshot at query time.
	TraceDiskBytes     int64 `json:"trace_disk_bytes"`
	TraceResidentBytes int64 `json:"trace_resident_bytes"`
	// RecordsDecoded totals dynamic records decoded from packed streams
	// by the segment workers' private Readers: every timed segment's
	// records plus its warmup prefix.
	RecordsDecoded uint64 `json:"records_decoded,omitempty"`
	// SlabDecodes, SlabHits and SlabPeakBytes are always 0: the engine
	// decodes into no shared slabs. They are kept only because the
	// repository benchmark (perfbench) reads them.
	SlabDecodes   int   `json:"slab_decodes,omitempty"`
	SlabHits      int   `json:"slab_hits,omitempty"`
	SlabPeakBytes int64 `json:"slab_peak_bytes,omitempty"`
}

// traceEntry is one workload's slot in the pool: the first goroutine to
// need the trace captures it while later ones wait on done (the same
// single-flight shape as internal/runcache). A failed capture leaves
// the pool before done closes, so every completed slot holds a trace.
type traceEntry struct {
	done chan struct{}
	tr   *trace.Trace
	err  error
}

// SetTraceDir persists captured traces under dir (created if absent) in
// the canonical on-disk format, so later processes reload them instead
// of re-executing workloads. Corrupt or truncated files are dropped and
// recaptured.
//
// Calling SetTraceDir after traces are already pooled used to leave the
// earlier captures in-memory only — never written anywhere — while the
// pool kept serving them, so the directory silently missed exactly the
// workloads that had run first. On a directory change the pool is now
// reconciled: completed captures are flushed to the new directory, and
// still-in-flight slots are dropped so their next consumer retries
// against the new directory.
func (e *Engine) SetTraceDir(dir string) error {
	if err := trace.EnsureDir(dir); err != nil {
		return err
	}
	e.traceMu.Lock()
	if dir == e.traceDir {
		e.traceMu.Unlock()
		return nil
	}
	e.traceDir = dir
	var flush []*trace.Trace
	for w, ent := range e.traces {
		select {
		case <-ent.done:
			flush = append(flush, ent.tr)
		default:
			// In-flight capture racing the dir change: its waiters keep the
			// entry pointer they already hold, but the pool forgets it so
			// later callers capture (and persist) under the new directory.
			delete(e.traces, w)
		}
	}
	e.traceMu.Unlock()
	for _, tr := range flush {
		if err := tr.WriteFile(dir); err != nil {
			return err
		}
	}
	return nil
}

// TraceStats returns a snapshot of the engine's trace-pool counters,
// including the pooled traces' current disk/resident byte split.
func (e *Engine) TraceStats() TraceStats {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	ts := e.tstats
	for _, ent := range e.traces {
		select {
		case <-ent.done:
			d, r := ent.tr.Footprint()
			ts.TraceDiskBytes += d
			ts.TraceResidentBytes += r
		default:
		}
	}
	return ts
}

// warnOnce writes one diagnostic line to stderr per key for the
// engine's lifetime, so a sweep that meets the same damaged trace ten
// thousand times complains exactly once per workload and cause.
func (e *Engine) warnOnce(key, format string, args ...any) {
	e.traceMu.Lock()
	if e.traceWarned[key] {
		e.traceMu.Unlock()
		return
	}
	if e.traceWarned == nil {
		e.traceWarned = make(map[string]bool)
	}
	e.traceWarned[key] = true
	e.traceMu.Unlock()
	fmt.Fprintf(os.Stderr, "ce: "+format+"\n", args...)
}

// traceForOwned returns workload's shared trace, capturing it exactly
// once per process however many configurations and goroutines ask. A
// failed capture is delivered to the callers already waiting on it and
// then forgotten, so the next caller retries. owned is true for the one
// caller that performed the capture (or disk load), false for callers
// that merely waited on it. Attribution needs the distinction — every
// concurrent run of a workload blocks on the same capture, but the cost
// must be charged to exactly one run (the others report it as wait
// time), or a sweep's summed CaptureSeconds would count one capture
// once per waiting run.
func (e *Engine) traceForOwned(workload string) (tr *trace.Trace, owned bool, err error) {
	e.traceMu.Lock()
	if ent, ok := e.traces[workload]; ok {
		e.traceMu.Unlock()
		<-ent.done
		return ent.tr, false, ent.err
	}
	ent := &traceEntry{done: make(chan struct{})}
	if e.traces == nil {
		e.traces = make(map[string]*traceEntry)
	}
	e.traces[workload] = ent
	dir, shared := e.traceDir, e.traceShared
	e.traceMu.Unlock()
	ent.tr, ent.err = e.captureTrace(workload, dir, shared)
	if ent.err != nil {
		e.traceMu.Lock()
		if e.traces[workload] == ent {
			delete(e.traces, workload)
		}
		e.traceMu.Unlock()
	}
	close(ent.done)
	return ent.tr, true, ent.err
}

// captureTrace loads workload's trace from the trace directory or
// captures it by functional execution, charging the cost to the pool's
// counters rather than to whichever simulation happened to arrive first.
// With a shared store, capture runs under the trace file's cross-process
// lease so N processes over one directory execute the workload once.
func (e *Engine) captureTrace(workload, dir string, shared bool) (*trace.Trace, error) {
	w, err := prog.ByName(workload)
	if err != nil {
		return nil, err
	}
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if tr, err := trace.ReadFile(dir, p); err == nil {
			e.traceMu.Lock()
			e.tstats.DiskHits++
			e.traceMu.Unlock()
			return tr, nil
		} else if errors.Is(err, trace.ErrStaleFormat) {
			// A pre-v3 file from an older build: announce the migration
			// (the error text names both versions) before recapturing.
			e.warnOnce("stale:"+workload, "trace %s: %v", workload, err)
		}
		// Missing, stale or corrupt — ReadFile already removed a bad
		// file, so the recapture below rewrites the slot.
		if shared {
			held, tr := e.awaitCaptureLease(dir, p)
			if tr != nil {
				return tr, nil
			}
			if held != nil {
				defer held.Release()
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startAllocs := ms.Mallocs
	start := time.Now()
	var tr *trace.Trace
	if dir != "" {
		// Stream the packed records to the trace directory as they are
		// produced: peak capture memory stays O(chunk) however long the
		// workload runs, and the file lands at its canonical path
		// atomically at the end — no separate WriteFile pass.
		tr, err = trace.CaptureToDir(p, maxCycles, dir)
	} else {
		tr, err = trace.Capture(p, maxCycles)
	}
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	e.traceMu.Lock()
	e.tstats.Captures++
	e.tstats.CaptureSeconds += wall
	e.tstats.CaptureAllocs += ms.Mallocs - startAllocs
	e.tstats.StepsExecuted += tr.Steps()
	e.traceMu.Unlock()
	return tr, nil
}

// awaitCaptureLease is the cross-process arm of trace capture: it either
// acquires the trace file's lease (returning held != nil; the caller
// captures and must release after writing) or waits out another
// process's capture and returns the trace it wrote. If the directory
// cannot host lock files it returns (nil, nil): the caller captures
// leaseless — possibly duplicating a peer's work, never losing its own.
func (e *Engine) awaitCaptureLease(dir string, p *isa.Program) (*lease.Lease, *trace.Trace) {
	lockPath := trace.DiskPath(dir, p) + ".lock"
	waited := false
	record := func(tr *trace.Trace) *trace.Trace {
		e.traceMu.Lock()
		e.tstats.DiskHits++
		if waited {
			e.tstats.LeaseWaits++
		}
		e.traceMu.Unlock()
		return tr
	}
	for {
		if l, ok := lease.TryAcquire(lockPath, 0); ok {
			// The previous holder may have finished between our last probe
			// and this acquisition; re-check before executing the workload.
			if tr, err := trace.ReadFile(dir, p); err == nil {
				l.Release()
				return nil, record(tr)
			}
			return l, nil
		}
		if _, err := os.Stat(lockPath); err != nil {
			return nil, nil
		}
		waited = true
		time.Sleep(20 * time.Millisecond)
		if tr, err := trace.ReadFile(dir, p); err == nil {
			return nil, record(tr)
		}
	}
}

// simAttribution carries cost attribution out of the run cache's compute
// closure: how much of the observed wall time was the workload's
// one-time trace capture (shared, reported separately) rather than this
// simulation's own cost, and how a phase-sampled run was conducted.
type simAttribution struct {
	captureSeconds float64
	// captureWait is time spent blocked on a capture some *other* run
	// owns (and reports in its captureSeconds). Excluded from the run's
	// wall time like captureSeconds, but kept apart so summing
	// CaptureSeconds across a sweep's runs counts each capture once.
	captureWait float64
	// segments is non-nil when the run was phase-sampled.
	segments *SegmentMetrics
}

// runSim performs one fresh simulation for the engine. A run is
// phase-sampled when the segment plan samples, the configuration is
// not wrong-path (a trace holds only the committed path) and its
// workload's trace yields phases; every other run executes in lockstep
// (Run). Only sampled runs capture or load a trace.
func (e *Engine) runSim(cfg Config, workload string, attr *simAttribution) (Stats, error) {
	if plan := e.segmentPlan(); plan.sampled() && !cfg.WrongPathExecution {
		st, ok, err := e.runSampled(cfg, workload, plan, attr)
		if ok || err != nil {
			return st, err
		}
	}
	st, err := Run(cfg, workload)
	if err != nil {
		return st, err
	}
	e.traceMu.Lock()
	e.tstats.LockstepRuns++
	e.tstats.StepsExecuted += st.EmuSteps
	e.traceMu.Unlock()
	return st, nil
}

// runSampled performs one phase-sampled simulation over workload's
// pooled trace. ok=false (with a nil error) means the trace yielded no
// phases and the caller should run the workload in full. A failed
// capture or load is returned, never answered with an exact run: that
// would be cached under the sampled plan's key. The trace directory's
// I/O errors are transient, so the run cache retries them rather than
// memoizing them. A trace whose chunk fails its checksum mid-replay —
// a torn write or storage fault in the trace directory — is dropped
// from the pool, invalidated on disk, and recaptured once before the
// run retries; a second corruption surfaces as an error.
func (e *Engine) runSampled(cfg Config, workload string, plan segPlan, attr *simAttribution) (Stats, bool, error) {
	for attempt := 0; ; attempt++ {
		waitStart := time.Now()
		tr, owned, err := e.traceForOwned(workload)
		if owned {
			attr.captureSeconds += time.Since(waitStart).Seconds()
		} else {
			attr.captureWait += time.Since(waitStart).Seconds()
		}
		if err != nil {
			return Stats{}, false, err
		}
		st, ok, err := e.runSegmented(cfg, tr, plan, attr)
		if err != nil && attempt == 0 && errors.Is(err, trace.ErrCorruptChunk) {
			e.dropCorrupt(workload, tr)
			continue
		}
		return st, ok, err
	}
}

// dropCorrupt evicts workload's pooled trace after a chunk checksum
// failure, deleting its backing file so the next traceForOwned call
// recaptures rather than reloading the same bad bytes. Concurrent runs
// over one bad trace all land here; only the call that evicts tr counts
// and invalidates it. The file is removed before the slot frees, so a
// recapture can neither reload the bad file nor have its fresh file
// deleted by a late drop of the old trace.
func (e *Engine) dropCorrupt(workload string, tr *trace.Trace) {
	e.traceMu.Lock()
	evict := false
	if ent, ok := e.traces[workload]; ok {
		select {
		case <-ent.done:
			evict = ent.tr == tr
		default:
			// An in-flight recapture already owns the slot; leave it.
		}
	}
	if !evict {
		e.traceMu.Unlock()
		return
	}
	tr.Invalidate() //ce:lock-ok one close and unlink, once per corrupt trace; freeing the slot first would let a recapture reload the bad file
	delete(e.traces, workload)
	e.tstats.CorruptDropped++
	e.traceMu.Unlock()
	e.warnOnce("corrupt:"+workload, "trace %s: chunk checksum failed mid-replay; dropping the trace and recapturing", workload)
}
