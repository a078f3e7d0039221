package ce

// Phase-sampled simulation: shard one workload's trace into K segments
// at the boundaries captured during its single functional execution,
// cluster the segments by their basic-block vectors, time one
// representative per cluster independently (fanning out across CPUs),
// and weight each by its cluster's share of the execution. Each
// representative starts cold at its own boundary and discards its
// leading windows until IPC converges (adaptive warmup), so total work
// drops to roughly phases · N/K records. The result is an estimate
// with a confidence interval, cached under a key suffixed with the plan
// so it can never shadow (or be shadowed by) a monolithic run.

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SegmentMetrics describes how a phase-sampled run was conducted and
// how tight its estimate is.
type SegmentMetrics struct {
	// Segments is how many segments the trace was cut into; Simulated is
	// how many were actually timed (one representative per phase).
	Segments  int `json:"segments"`
	Simulated int `json:"simulated"`
	// Phases is the number of behavior clusters found; each contributes
	// one timed representative.
	Phases int `json:"phases,omitempty"`
	// WarmupMeanSteps is the mean number of instructions each timed
	// segment discarded under adaptive warmup, and WarmupConverged counts
	// segments whose windowed IPC settled before the cap.
	WarmupMeanSteps float64 `json:"warmup_mean_steps,omitempty"`
	WarmupConverged int     `json:"warmup_converged,omitempty"`
	// IPCMean and IPCHalfCI95 summarize the timed segments' IPC
	// population: the phase-weighted mean and the half-width of its 95%
	// confidence interval.
	IPCMean     float64 `json:"ipc_mean"`
	IPCHalfCI95 float64 `json:"ipc_half_ci95"`
	// EstimatedCycles extrapolates the whole-run cycle count from the
	// timed segments.
	EstimatedCycles int64 `json:"estimated_cycles"`
}

// SetSegments sets how many segments (up to k) a phase-sampled run cuts
// each workload's trace into. It takes effect only together with
// SetSegmentPhases; k <= 1 restores monolithic simulation.
func (e *Engine) SetSegments(k int) {
	e.traceMu.Lock()
	e.segments = k
	e.traceMu.Unlock()
}

// SetSegmentAdaptive is a no-op. Phase-sampled plans always warm each
// timed segment adaptively, so there is no warmup left to choose; the
// setter stays only because perfbench's huge-sampled workload still
// calls it.
func (e *Engine) SetSegmentAdaptive(bool) {}

// SetSegmentPhases selects phase-sampled simulation: with SetSegments
// above 1, the trace's segments are clustered into at most k phases by
// their basic-block vectors, one representative per phase is timed
// under adaptive warmup (see pipeline.RunSegmentOpts), and the results
// are stitched with cluster weights. k <= 0 restores monolithic
// simulation.
func (e *Engine) SetSegmentPhases(k int) {
	e.traceMu.Lock()
	e.segPhases = k
	e.traceMu.Unlock()
}

// segPlan is a snapshot of the engine's segment configuration. Every
// field feeds segmented timing, so every field must reach the run-cache
// key segKeySuffix builds — keylint's via mode enforces it, because a
// plan field dropped from the key would let a sampled run masquerade as
// a different plan's (or the monolithic) result.
//
//ce:keyed via=segKeySuffix
type segPlan struct {
	k      int // segments to cut
	phases int // at most this many phases
}

// sampled reports whether the plan phase-samples: it needs both a cut
// and a phase budget, and anything less runs monolithic.
func (p segPlan) sampled() bool { return p.k > 1 && p.phases > 0 }

// segmentPlan snapshots the engine's segment configuration.
func (e *Engine) segmentPlan() segPlan {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	return segPlan{k: e.segments, phases: e.segPhases}
}

// segKeySuffix returns the run-cache key suffix for the engine's
// current segment plan under cfg: non-empty exactly when the run is
// phase-sampled, so an estimate never masquerades as a monolithic
// result. Wrong-path configurations cannot replay and therefore always
// run monolithic, whatever the plan says.
func (e *Engine) segKeySuffix(cfg Config) string {
	p := e.segmentPlan()
	if !p.sampled() || cfg.WrongPathExecution {
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
func runSegments(cfg Config, tr *trace.Trace, segs []trace.Segment, pick []int) ([]Stats, []pipeline.SegmentReport, error) {
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
				st, rep, err := pipeline.RunSegmentOpts(cfg, tr, segs[pick[i]], pipeline.SegmentOpts{}, maxCycles)
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

// runSegmented performs one phase-sampled simulation of (cfg, tr) under
// the given plan and returns the stitched Stats plus the segment
// metrics recorded into the run's attribution. It times one
// representative segment per behavior cluster and weights it by the
// cluster's share of the execution, so the IPC mean is cluster-weighted
// (stats.WeightedMeanCI95) and the cycle estimate sums each phase's
// instructions at its representative's IPC. ok=false (with a nil error)
// means the trace yielded no phases — it has no BBV profile — and the
// caller should replay it monolithically.
func (e *Engine) runSegmented(cfg Config, tr *trace.Trace, plan segPlan, attr *simAttribution) (st Stats, ok bool, err error) {
	segs := tr.Segments(plan.k)
	phases := tr.SegmentPhases(segs, plan.phases)
	if len(phases) == 0 {
		return Stats{}, false, nil
	}
	pick := make([]int, len(phases))
	weights := make([]float64, len(phases)) // pick[i]'s share of the execution
	for i, ph := range phases {
		pick[i], weights[i] = ph.Rep, ph.Weight
	}
	parts, reports, err := runSegments(cfg, tr, segs, pick)
	if err != nil {
		return Stats{}, false, err
	}
	st, err = pipeline.StitchStats(parts)
	if err != nil {
		return Stats{}, false, err
	}
	ipcs := make([]float64, len(parts))
	for i, p := range parts {
		ipcs[i] = p.IPC()
	}
	mean, half := stats.WeightedMeanCI95(ipcs, weights)
	sm := &SegmentMetrics{
		Segments:        len(segs),
		Simulated:       len(parts),
		Phases:          len(phases),
		IPCMean:         mean,
		IPCHalfCI95:     half,
		EstimatedCycles: st.Cycles,
	}
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
	var warmup uint64
	for _, r := range reports {
		warmup += r.WarmupSteps
		if r.Converged {
			sm.WarmupConverged++
		}
	}
	sm.WarmupMeanSteps = float64(warmup) / float64(len(reports))
	attr.segments = sm
	e.traceMu.Lock()
	e.tstats.ReplayRuns++
	e.tstats.SegmentRuns++
	e.tstats.SegmentsSimulated += len(parts)
	e.tstats.StepsReplayed += st.EmuSteps
	// The segment workers' private readers decoded every measured record
	// plus each segment's warmup prefix (WarmupSteps counts committed
	// instructions — a close proxy for records decoded during warmup).
	e.tstats.RecordsDecoded += st.EmuSteps + warmup
	e.traceMu.Unlock()
	return st, true, nil
}
