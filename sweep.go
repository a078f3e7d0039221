package ce

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/runcache"
)

// RunMetrics records the observability data for one simulation run (or
// cache hit) performed by an Engine.
type RunMetrics struct {
	// Config is the configuration's display name, Workload the benchmark.
	Config   string `json:"config"`
	Workload string `json:"workload"`
	// Cached reports whether the result came from the run cache (memory,
	// disk, or a coalesced in-flight computation) instead of a fresh
	// simulation.
	Cached bool `json:"cached"`
	// Cycles and Committed are the simulated totals; IPC is their ratio.
	Cycles    int64   `json:"cycles"`
	Committed uint64  `json:"committed"`
	IPC       float64 `json:"ipc"`
	// EmuSteps mirrors Stats.EmuSteps: dynamic instructions the execution
	// source produced — identical between lockstep and replay drive.
	EmuSteps uint64 `json:"emu_steps"`
	// WallSeconds is the host time this run took; for cached results it
	// is the (negligible) lookup time.
	WallSeconds float64 `json:"wall_seconds"`
	// MCyclesPerSec is the simulator's throughput in millions of
	// simulated cycles per host second (0 for cached results).
	MCyclesPerSec float64 `json:"mcycles_per_sec"`
	// HostAllocs and HostWallSeconds mirror Stats.HostAllocs and
	// Stats.HostWallSeconds: heap allocations and wall time inside the
	// simulator's Run itself (excluding cache lookup and engine
	// overhead). For cached results they describe the original
	// computation, not this recall.
	HostAllocs      uint64  `json:"host_allocs"`
	HostWallSeconds float64 `json:"host_wall_seconds"`
	// CaptureSeconds is the time this run spent performing its workload's
	// one-time trace capture — reported only by the run that owned the
	// capture, so summing it across a sweep counts each capture once.
	// WallSeconds excludes it: capture is a shared, per-workload cost
	// (reported in TraceStats), not part of any one configuration's
	// simulation cost.
	CaptureSeconds float64 `json:"capture_seconds,omitempty"`
	// CaptureWaitSeconds is time spent blocked on a capture owned (and
	// reported) by another run — the concurrent runs' view of the same
	// capture. Also excluded from WallSeconds.
	CaptureWaitSeconds float64 `json:"capture_wait_seconds,omitempty"`
	// Segments describes the phase-sampled plan this run used, when one
	// was active (nil for monolithic and cached results).
	Segments *SegmentMetrics `json:"segments,omitempty"`
}

// CacheStats re-exports the run cache counters.
type CacheStats = runcache.Stats

// Engine is the sweep orchestration layer: it runs (config, workload)
// matrices through a shared content-addressed run cache and records
// per-run metrics. Every figure, ablation and frontier evaluation routed
// through one Engine shares one result pool, so duplicated design points
// (the baseline appears in Figures 13, 15, 17, the speedup estimate and
// the frontier) are simulated exactly once per process.
type Engine struct {
	cache *runcache.Cache

	mu       sync.Mutex
	observer func(RunMetrics)
	runs     []RunMetrics

	// Trace pool (tracepool.go): one shared execution trace per workload,
	// captured single-flight, driving replay-capable simulations.
	traceMu  sync.Mutex
	traces   map[string]*traceEntry
	traceDir string
	// traceShared enables the cross-process capture lease on traceDir
	// (SetSharedStore).
	traceShared bool
	tstats      TraceStats
	// traceWarned dedups per-workload diagnostics (warnOnce).
	traceWarned map[string]bool

	// Segment plan (segmented.go): shard replay-driven runs into
	// segments timed in parallel. Guarded by traceMu with the rest of
	// the replay configuration.
	segments  int
	segPhases int
}

// NewEngine returns an Engine with an empty in-memory run cache.
func NewEngine() *Engine {
	return &Engine{cache: runcache.New()}
}

// DefaultEngine is the process-wide engine behind the package-level
// RunMatrix and therefore behind every figure, ablation and frontier
// runner in this package.
var DefaultEngine = NewEngine()

// SetObserver installs fn as the per-run progress callback (nil
// disables). It is invoked after every run, including cache hits.
func (e *Engine) SetObserver(fn func(RunMetrics)) {
	e.mu.Lock()
	e.observer = fn
	e.mu.Unlock()
}

// SetCacheDir enables on-disk persistence of run results under dir.
// Results memoized before the call are backfilled to the new directory
// (see runcache.Cache.SetDir).
func (e *Engine) SetCacheDir(dir string) error { return e.cache.SetDir(dir) }

// SetCacheLimit bounds the in-memory run-result tier to at most n
// completed entries, managed LRU (n <= 0 means unbounded, the default).
// With a cache directory configured, memory becomes a warm tier over
// disk: evicted results reload as disk hits. A long-lived daemon sets
// this so its resident set stays bounded however many design points it
// has served.
func (e *Engine) SetCacheLimit(n int) { e.cache.SetLimit(n) }

// SetSharedStore toggles the cross-process lease protocol on the
// engine's cache and trace directories (default off). With sharing on,
// N processes over one store elect a single computer per missing result
// or trace via lock-file leases (internal/lease) and the rest wait for
// the winner's file — cross-process single-flight, with staleness
// takeover if a holder crashes.
func (e *Engine) SetSharedStore(on bool) {
	e.cache.SetShared(on)
	e.traceMu.Lock()
	e.traceShared = on
	e.traceMu.Unlock()
}

// CacheStats returns a snapshot of the engine's run-cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }

// Metrics returns a copy of every run metric recorded so far, in
// completion order.
func (e *Engine) Metrics() []RunMetrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RunMetrics, len(e.runs))
	copy(out, e.runs)
	return out
}

// ResetMetrics clears the recorded run metrics (the cache is untouched).
func (e *Engine) ResetMetrics() {
	e.mu.Lock()
	e.runs = nil
	e.mu.Unlock()
}

// RunOne simulates (or recalls) a single (config, workload) pair through
// the engine's cache and returns its stats alongside the recorded run
// metrics — the single-request entry point cesweepd's POST /run uses.
func (e *Engine) RunOne(cfg Config, workload string) (Stats, RunMetrics, error) {
	return e.runOne(cfg, workload)
}

// runOne simulates (or recalls) a single pair and records its metrics.
func (e *Engine) runOne(cfg Config, workload string) (Stats, RunMetrics, error) {
	start := time.Now()
	var (
		st     Stats
		err    error
		cached bool
		attr   simAttribution
	)
	if key, ok := cfg.Key(); ok {
		// Phase-sampled plans suffix the key so an estimate can
		// never be recalled as (or instead of) a monolithic result.
		key += e.segKeySuffix(cfg)
		st, cached, err = e.cache.Do(key+"\x00"+workload, func() (Stats, error) {
			return e.runSim(cfg, workload, &attr)
		})
	} else {
		e.cache.RecordUncacheable()
		st, err = e.runSim(cfg, workload, &attr)
	}
	if err != nil {
		return Stats{}, RunMetrics{}, err
	}
	// A cached result may have been computed under a renamed twin of this
	// configuration; relabel the copy we hand back.
	st.Config = cfg.Name
	wall := time.Since(start).Seconds() - attr.captureSeconds - attr.captureWait
	if wall < 0 {
		wall = 0
	}
	m := RunMetrics{
		Config:      cfg.Name,
		Workload:    workload,
		Cached:      cached,
		Cycles:      st.Cycles,
		Committed:   st.Committed,
		IPC:         st.IPC(),
		EmuSteps:    st.EmuSteps,
		WallSeconds: wall,

		HostAllocs:      st.HostAllocs,
		HostWallSeconds: st.HostWallSeconds,

		CaptureSeconds:     attr.captureSeconds,
		CaptureWaitSeconds: attr.captureWait,
		Segments:           attr.segments,
	}
	if !cached && wall > 0 {
		m.MCyclesPerSec = float64(st.Cycles) / wall / 1e6
	}
	e.mu.Lock()
	e.runs = append(e.runs, m)
	obs := e.observer
	e.mu.Unlock()
	if obs != nil {
		obs(m)
	}
	return st, m, nil
}

// RunMatrix runs every (config, workload) pair through the engine's run
// cache, in parallel across CPUs, returning results indexed
// [config][workload] in the given orders. Any pair's failure fails the
// whole matrix with the error of the first failing pair in matrix order
// (row-major: configs outer, workloads inner) — never whichever worker
// happened to lose the race — and no further pairs are dispatched once a
// failure is known. Duplicate pairs — within one matrix or across calls
// — are simulated once.
func (e *Engine) RunMatrix(cfgs []Config, workloads []string) ([][]Stats, error) {
	out := make([][]Stats, len(cfgs))
	for i := range out {
		out[i] = make([]Stats, len(workloads))
	}
	type job struct{ ci, wi int }
	jobs := make(chan job)
	var (
		errMu    sync.Mutex
		firstErr error
		firstIdx int
	)
	record := func(idx int, err error) {
		errMu.Lock()
		if firstErr == nil || idx < firstIdx {
			firstErr, firstIdx = err, idx
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				st, _, err := e.runOne(cfgs[j.ci], workloads[j.wi])
				if err != nil {
					record(j.ci*len(workloads)+j.wi, err)
					continue
				}
				out[j.ci][j.wi] = st
			}
		}()
	}
	// Dispatch workload-major: one workload's configurations run together
	// and share its single capture (or disk load) while the pooled trace
	// is fresh, instead of every workload being touched once per
	// configuration. Error precedence stays row-major (configs outer) via
	// the recorded index, so the reported failure is independent of
	// dispatch order.
dispatch:
	for wi := range workloads {
		for ci := range cfgs {
			if failed() {
				break dispatch
			}
			jobs <- job{ci, wi}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
