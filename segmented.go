package ce

// Segment-parallel simulation: shard one workload's trace into K
// segments at the boundaries captured during its single functional
// execution, time each segment independently (fanning out across CPUs),
// and stitch the per-segment Stats back into one whole-run result.
//
// Two segment plans:
//
//   - Exact (the default): each segment replays its full prefix as
//     warmup, so the stitched result is bit-identical to the monolithic
//     run (the telescoping argument in internal/pipeline's segment.go)
//     and shares the monolithic run-cache key. Total work is O(K·N), so
//     this plan trades CPU for latency: wall clock drops only when idle
//     cores absorb the redundant prefixes.
//
//   - Phase-sampled (SetSegmentPhases): segments are clustered by their
//     basic-block vectors and one representative per cluster is timed,
//     starting cold at its own boundary and discarding its leading
//     windows until IPC converges (adaptive warmup). Total work drops to
//     roughly phases · N/K records, which is where the real speedup
//     lives; the result is a cluster-weighted estimate with a confidence
//     interval, cached under a key suffixed with the plan so it can
//     never shadow (or be shadowed by) an exact run.

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SegmentMetrics describes how a segmented run was conducted and, for
// phase-sampled runs, how tight the estimate is.
type SegmentMetrics struct {
	// Segments is how many segments the trace was cut into; Simulated is
	// how many were actually timed (== Segments for exact runs).
	Segments  int `json:"segments"`
	Simulated int `json:"simulated"`
	// Phases is the number of behavior clusters found (phase-sampled runs
	// only; each contributes one timed representative).
	Phases int `json:"phases,omitempty"`
	// Exact reports whether the stitched result is bit-identical to the
	// monolithic run (full warmup, every segment timed).
	Exact bool `json:"exact"`
	// WarmupMeanSteps is the mean number of instructions each timed
	// segment discarded under adaptive warmup, and WarmupConverged counts
	// segments whose windowed IPC settled before the cap (phase-sampled
	// runs only).
	WarmupMeanSteps float64 `json:"warmup_mean_steps,omitempty"`
	WarmupConverged int     `json:"warmup_converged,omitempty"`
	// IPCMean and IPCHalfCI95 summarize the timed segments' IPC
	// population: the phase-weighted mean and the half-width of its 95%
	// confidence interval.
	IPCMean     float64 `json:"ipc_mean"`
	IPCHalfCI95 float64 `json:"ipc_half_ci95"`
	// EstimatedCycles extrapolates the whole-run cycle count from the
	// timed segments (equals the stitched cycles when every segment ran).
	EstimatedCycles int64 `json:"estimated_cycles"`
}

// SetSegments selects segment-parallel simulation for this engine's
// replay-driven runs: each workload's trace is cut into (up to) k
// segments timed independently. k <= 1 restores monolithic simulation.
func (e *Engine) SetSegments(k int) {
	e.traceMu.Lock()
	e.segments = k
	e.traceMu.Unlock()
}

// SetSegmentAdaptive is a no-op. Phase-sampled plans always warm each
// timed segment adaptively and exact plans always replay the full
// prefix, so there is no warmup left to choose; the setter stays only
// because perfbench's huge-sampled workload still calls it.
func (e *Engine) SetSegmentAdaptive(bool) {}

// SetSegmentPhases selects phase-sampled simulation: the trace's
// segments are clustered into at most k phases by their basic-block
// vectors, one representative per phase is timed under adaptive warmup
// (see pipeline.SegmentOpts), and the results are stitched with cluster
// weights. k <= 0 restores the exact plan: every segment timed behind
// its full prefix.
func (e *Engine) SetSegmentPhases(k int) {
	e.traceMu.Lock()
	e.segPhases = k
	e.traceMu.Unlock()
}

// segPlan is a snapshot of the engine's segment configuration. Every
// field feeds segmented timing, so every field must reach the run-cache
// key segKeySuffix builds — keylint's via mode enforces it, because a
// plan field dropped from the key would let a sampled run masquerade as
// a different plan's (or the exact) result.
//
//ce:keyed via=segKeySuffix
type segPlan struct {
	k      int // segments to cut (<=1: monolithic)
	phases int // phase-sampled (>0: at most this many phases); else exact
}

// segmentPlan snapshots the engine's segment configuration.
func (e *Engine) segmentPlan() segPlan {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	return segPlan{k: e.segments, phases: e.segPhases}
}

// segKeySuffix returns the run-cache key suffix for the engine's
// current segment plan under cfg. The exact plan ("" as well as no
// segmentation at all) shares the monolithic key — the results are
// bit-identical, so a cache hit either way is correct. Phase-sampled
// plans get a distinct suffix so an estimate can never masquerade as an
// exact result. Wrong-path configurations cannot replay and therefore
// always run monolithic, whatever the plan says.
func (e *Engine) segKeySuffix(cfg Config) string {
	p := e.segmentPlan()
	e.traceMu.Lock()
	noReplay := e.noReplay
	e.traceMu.Unlock()
	if p.k <= 1 || p.phases <= 0 || noReplay || cfg.WrongPathExecution {
		return ""
	}
	return fmt.Sprintf("\x00segments=%d phases=%d", p.k, p.phases)
}

// runSegments fans the given segment indices out across CPUs, running
// pipeline.RunSegmentOpts for each, and returns the per-segment Stats
// and warmup reports in index order. The fan-out lives here — not in
// internal/pipeline, which is //ce:deterministic and goroutine-free —
// so each worker runs a fully independent Simulator over the shared
// read-only trace, holding one chunk buffer each for disk-backed
// traces (K workers keep O(K) chunks resident, whatever the trace
// size).
func runSegments(cfg Config, tr *trace.Trace, segs []trace.Segment, pick []int, opts pipeline.SegmentOpts) ([]Stats, []pipeline.SegmentReport, error) {
	parts := make([]Stats, len(pick))
	reports := make([]pipeline.SegmentReport, len(pick))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		firstIdx int
	)
	idx := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pick) {
		workers = len(pick)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				st, rep, err := pipeline.RunSegmentOpts(cfg, tr, segs[pick[i]], opts, maxCycles)
				if err != nil {
					errMu.Lock()
					if firstErr == nil || i < firstIdx {
						firstErr, firstIdx = err, i
					}
					errMu.Unlock()
					continue
				}
				parts[i] = st
				reports[i] = rep
			}
		}()
	}
	for i := range pick {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return parts, reports, nil
}

// runSegmented performs one segment-parallel simulation of (cfg, tr)
// under the given plan and returns the stitched Stats plus the segment
// metrics recorded into the run's attribution.
//
// A phase-sampled plan times one representative segment per behavior
// cluster and weights it by the cluster's share of the execution, so
// the IPC mean is cluster-weighted (stats.WeightedMeanCI95) and the
// cycle estimate sums each phase's instructions at its representative's
// IPC. A trace without a BBV profile runs the exact plan instead.
func (e *Engine) runSegmented(cfg Config, tr *trace.Trace, plan segPlan, attr *simAttribution) (Stats, error) {
	segs := tr.Segments(plan.k)
	var phases []trace.Phase
	if plan.phases > 0 {
		phases = tr.SegmentPhases(segs, plan.phases)
	}
	exact := len(phases) == 0
	var (
		pick    []int
		weights []float64 // pick[i]'s share of the execution
	)
	if exact {
		for i, s := range segs {
			pick = append(pick, i)
			weights = append(weights, float64(s.Steps()))
		}
	}
	for _, ph := range phases {
		pick = append(pick, ph.Rep)
		weights = append(weights, ph.Weight)
	}
	parts, reports, err := runSegments(cfg, tr, segs, pick, pipeline.SegmentOpts{Adaptive: !exact})
	if err != nil {
		return Stats{}, err
	}
	st, err := pipeline.StitchStats(parts)
	if err != nil {
		return Stats{}, err
	}
	ipcs := make([]float64, len(parts))
	for i, p := range parts {
		ipcs[i] = p.IPC()
	}
	mean, half := stats.WeightedMeanCI95(ipcs, weights)
	sm := &SegmentMetrics{
		Segments:        len(segs),
		Simulated:       len(parts),
		Exact:           exact,
		IPCMean:         mean,
		IPCHalfCI95:     half,
		EstimatedCycles: st.Cycles,
	}
	if !exact {
		sm.Phases = len(phases)
		// Each phase's instructions retire at its representative's IPC.
		var cyc float64
		for i, w := range weights {
			if ipcs[i] > 0 {
				cyc += w * float64(tr.Steps()) / ipcs[i]
			}
		}
		if cyc > 0 {
			sm.EstimatedCycles = int64(cyc)
		}
		var steps uint64
		for _, r := range reports {
			steps += r.WarmupSteps
			if r.Converged {
				sm.WarmupConverged++
			}
		}
		sm.WarmupMeanSteps = float64(steps) / float64(len(reports))
	}
	attr.segments = sm
	// The segment workers' private readers decoded every measured record
	// plus each segment's warmup prefix (WarmupSteps counts committed
	// instructions — a close proxy for records decoded during warmup).
	decoded := st.EmuSteps
	for _, r := range reports {
		decoded += r.WarmupSteps
	}
	e.traceMu.Lock()
	e.tstats.ReplayRuns++
	e.tstats.SegmentRuns++
	e.tstats.SegmentsSimulated += len(parts)
	e.tstats.StepsReplayed += st.EmuSteps
	e.tstats.RecordsDecoded += decoded
	e.traceMu.Unlock()
	return st, nil
}
