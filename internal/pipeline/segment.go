package pipeline

// Segment runs: boot a Simulator from a trace boundary, discard a
// warmup prefix, measure a window, and return the window's Stats delta.
//
// The exactness argument for full warmup is telescoping: the run loop
// stops at the first cycle boundary on which the committed count has
// crossed the target, so a full-warmup segment run is the *identical*
// deterministic simulation as the monolithic run, merely snapshotted at
// two extra points. Every Stats counter is cumulative and monotone, so
// the per-segment deltas of consecutive segments share their interior
// snapshots and sum — exactly, field for field, bucket for bucket — to
// the monolithic totals. Under adaptive warmup the predictor, caches
// and window state are only approximately warm at the measurement
// boundary and the result is an estimate; the phase-sampled plan in the
// root package puts confidence intervals on it.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/trace"
)

// snapshot captures the run's cumulative statistics at the current
// cycle, mirroring exactly what Run's epilogue would report if the run
// stopped here. The histogram is deep-copied so the simulation can
// continue without mutating the snapshot.
func (s *Simulator) snapshot() Stats {
	st := s.stats
	st.Cycles = s.cycle
	st.Cache = s.dcache.Stats()
	if s.icache != nil {
		st.ICache = s.icache.Stats()
	}
	st.IssuedPerCycle = s.stats.IssuedPerCycle.Clone()
	return st
}

// RunUntilCommitted advances the simulation until at least target
// instructions have committed (counted from this simulator's own start,
// which for a seeked reader is the warm-start boundary) or the run
// completes, and returns a snapshot of the cumulative statistics. Call
// it repeatedly with increasing targets to snapshot one run at several
// commit horizons; deltas between snapshots are per-window statistics.
func (s *Simulator) RunUntilCommitted(target uint64, maxCycles int64) (Stats, error) {
	for !s.done() && s.stats.Committed < target {
		if maxCycles > 0 && s.cycle >= maxCycles {
			return s.snapshot(), fmt.Errorf("pipeline: %s/%s: exceeded %d cycles (%d of %d committed)",
				s.cfg.Name, s.stats.Workload, maxCycles, s.stats.Committed, target)
		}
		if err := s.step(); err != nil {
			return s.snapshot(), err
		}
	}
	return s.snapshot(), nil
}

// SegmentOpts selects how a segment run warms microarchitectural state
// before its measurement window opens. The zero value replays the full
// prefix from the trace start: the exact plan.
type SegmentOpts struct {
	// Adaptive replaces the full prefix with IPC-convergence detection:
	// the replay starts cold at the segment boundary and discards the
	// segment's own leading adaptiveWindow-instruction sub-windows until
	// two consecutive windows' IPC agree within adaptiveTol, discarding
	// at most adaptiveCap instructions and never more than half the
	// segment, so every segment yields a measurement.
	Adaptive bool
}

// Adaptive warmup parameters; see SegmentOpts.
const (
	adaptiveWindow = 4096
	adaptiveTol    = 0.02
	adaptiveCap    = 65536 // two warm-start intervals
)

// SegmentReport describes what a segment run discarded as warmup.
type SegmentReport struct {
	// WarmupSteps is how many committed instructions were discarded
	// before the measurement window opened (the whole prefix under full
	// warmup).
	WarmupSteps uint64
	// Converged reports whether adaptive warmup's windowed IPC settled
	// before the cap. Always true under full warmup.
	Converged bool
}

// RunSegmentOpts simulates one trace segment under cfg with the given
// warmup policy and returns the measurement window [seg.Start, seg.End)'s
// Stats delta plus a report of what was discarded. Host telemetry
// covers the warmup leg too — that cost is real work this segment run
// performed.
func RunSegmentOpts(cfg Config, tr *trace.Trace, seg trace.Segment, opts SegmentOpts, maxCycles int64) (Stats, SegmentReport, error) {
	start := tr.WarmStart(seg, !opts.Adaptive)
	rd, err := trace.NewReaderAt(tr, start)
	if err != nil {
		return Stats{}, SegmentReport{}, err
	}
	defer rd.Release()
	sim, err := NewReplay(cfg, rd)
	if err != nil {
		return Stats{}, SegmentReport{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startAllocs := ms.Mallocs
	startWall := time.Now() //ce:nondet-ok host-performance telemetry (HostWallSeconds), not simulated time

	var (
		warm   Stats
		report SegmentReport
	)
	if opts.Adaptive {
		warm, report, err = sim.adaptiveWarm(seg, maxCycles)
	} else {
		warm, err = sim.RunUntilCommitted(seg.Start.Step-start.Step, maxCycles)
		report = SegmentReport{WarmupSteps: warm.Committed, Converged: true}
	}
	if err != nil {
		return warm, report, err
	}
	end, err := sim.RunUntilCommitted(seg.End.Step-start.Step, maxCycles)
	if err != nil {
		return end, report, err
	}
	delta, err := SubStats(end, warm)
	if err != nil {
		return delta, report, fmt.Errorf("pipeline: %s/%s segment %d: %w", cfg.Name, tr.Program().Name, seg.Index, err)
	}
	delta.HostWallSeconds = time.Since(startWall).Seconds() //ce:nondet-ok host-performance telemetry, not simulated time
	runtime.ReadMemStats(&ms)
	delta.HostAllocs = ms.Mallocs - startAllocs
	return delta, report, nil
}

// adaptiveWarm advances a simulator freshly booted at seg.Start through
// sub-windows of the segment itself until the windowed IPC of two
// consecutive windows agrees within tolerance, and returns the snapshot
// at which the measurement window opens. Where a fixed warmup replays
// an extra prefix before the segment (paying for records outside it),
// adaptive warmup spends nothing extra: it sacrifices a bounded sliver
// of the segment's own front, sized by when the caches and predictor
// actually stop drifting rather than by a one-size guess.
func (s *Simulator) adaptiveWarm(seg trace.Segment, maxCycles int64) (Stats, SegmentReport, error) {
	limit := uint64(adaptiveCap)
	if half := seg.Steps() / 2; limit > half {
		limit = half
	}
	var (
		warm    Stats // snapshot at the measurement window's opening
		prevIPC float64
	)
	for warm.Committed < limit {
		target := warm.Committed + adaptiveWindow
		if target > limit {
			target = limit
		}
		snap, err := s.RunUntilCommitted(target, maxCycles)
		if err != nil {
			return snap, SegmentReport{WarmupSteps: snap.Committed}, err
		}
		if snap.Committed < target {
			// The run completed inside the warmup prefix (tiny tail
			// segment); nothing left to measure beyond what we have.
			return warm, SegmentReport{WarmupSteps: warm.Committed}, nil
		}
		wc := snap.Committed - warm.Committed
		wy := snap.Cycles - warm.Cycles
		ipc := 0.0
		if wy > 0 {
			ipc = float64(wc) / float64(wy)
		}
		warm = snap
		if prevIPC > 0 {
			d := ipc - prevIPC
			if d < 0 {
				d = -d
			}
			if d <= adaptiveTol*prevIPC {
				return warm, SegmentReport{WarmupSteps: warm.Committed, Converged: true}, nil
			}
		}
		prevIPC = ipc
	}
	return warm, SegmentReport{WarmupSteps: warm.Committed}, nil
}

// SubStats returns end minus warm, field by field: the statistics of
// the window between two snapshots of one run. Every counter of end
// must be at least warm's (snapshots of a single run are monotone);
// a violation reports which counter went backwards instead of wrapping.
func SubStats(end, warm Stats) (Stats, error) {
	var firstErr error
	sub := func(a, b uint64, what string) uint64 {
		if a < b {
			if firstErr == nil {
				firstErr = fmt.Errorf("stats: %s went backwards between snapshots (%d then %d)", what, b, a)
			}
			return 0
		}
		return a - b
	}
	d := Stats{Config: end.Config, Workload: end.Workload}
	if end.Cycles < warm.Cycles {
		return d, fmt.Errorf("stats: cycles went backwards between snapshots (%d then %d)", warm.Cycles, end.Cycles)
	}
	d.Cycles = end.Cycles - warm.Cycles
	d.Committed = sub(end.Committed, warm.Committed, "committed")
	d.EmuSteps = sub(end.EmuSteps, warm.EmuSteps, "emu steps")
	d.CondBranches = sub(end.CondBranches, warm.CondBranches, "cond branches")
	d.Mispredicts = sub(end.Mispredicts, warm.Mispredicts, "mispredicts")
	d.InterClusterUops = sub(end.InterClusterUops, warm.InterClusterUops, "inter-cluster uops")
	d.ForwardedLoads = sub(end.ForwardedLoads, warm.ForwardedLoads, "forwarded loads")
	d.SquashedUops = sub(end.SquashedUops, warm.SquashedUops, "squashed uops")
	d.SchedulerStalls = sub(end.SchedulerStalls, warm.SchedulerStalls, "scheduler stalls")
	d.PhysRegStalls = sub(end.PhysRegStalls, warm.PhysRegStalls, "physreg stalls")
	d.ROBStalls = sub(end.ROBStalls, warm.ROBStalls, "rob stalls")
	d.Cache.Accesses = sub(end.Cache.Accesses, warm.Cache.Accesses, "dcache accesses")
	d.Cache.Misses = sub(end.Cache.Misses, warm.Cache.Misses, "dcache misses")
	d.Cache.Writebacks = sub(end.Cache.Writebacks, warm.Cache.Writebacks, "dcache writebacks")
	d.ICache.Accesses = sub(end.ICache.Accesses, warm.ICache.Accesses, "icache accesses")
	d.ICache.Misses = sub(end.ICache.Misses, warm.ICache.Misses, "icache misses")
	d.ICache.Writebacks = sub(end.ICache.Writebacks, warm.ICache.Writebacks, "icache writebacks")
	d.IssuedPerCycle = end.IssuedPerCycle.Clone()
	if err := d.IssuedPerCycle.SubCounts(warm.IssuedPerCycle); err != nil {
		return d, err
	}
	d.HostAllocs = sub(end.HostAllocs, warm.HostAllocs, "host allocs")
	if end.HostWallSeconds >= warm.HostWallSeconds {
		d.HostWallSeconds = end.HostWallSeconds - warm.HostWallSeconds
	}
	return d, firstErr
}

// StitchStats sums per-segment deltas into one whole-run Stats:
// counters add, histograms merge, host telemetry accumulates. For
// full-warmup segments of one trace the result is bit-identical to the
// monolithic run (see the package comment for why); internal/verify
// pins this.
func StitchStats(parts []Stats) (Stats, error) {
	if len(parts) == 0 {
		return Stats{}, fmt.Errorf("stats: stitching zero segments")
	}
	total := Stats{
		Config:         parts[0].Config,
		Workload:       parts[0].Workload,
		IssuedPerCycle: parts[0].IssuedPerCycle.Clone(),
	}
	for i, p := range parts {
		if p.Config != total.Config || p.Workload != total.Workload {
			return total, fmt.Errorf("stats: stitching %s/%s segment into a %s/%s run",
				p.Config, p.Workload, total.Config, total.Workload)
		}
		total.Cycles += p.Cycles
		total.Committed += p.Committed
		total.EmuSteps += p.EmuSteps
		total.CondBranches += p.CondBranches
		total.Mispredicts += p.Mispredicts
		total.InterClusterUops += p.InterClusterUops
		total.ForwardedLoads += p.ForwardedLoads
		total.SquashedUops += p.SquashedUops
		total.SchedulerStalls += p.SchedulerStalls
		total.PhysRegStalls += p.PhysRegStalls
		total.ROBStalls += p.ROBStalls
		total.Cache.Accesses += p.Cache.Accesses
		total.Cache.Misses += p.Cache.Misses
		total.Cache.Writebacks += p.Cache.Writebacks
		total.ICache.Accesses += p.ICache.Accesses
		total.ICache.Misses += p.ICache.Misses
		total.ICache.Writebacks += p.ICache.Writebacks
		total.HostAllocs += p.HostAllocs
		total.HostWallSeconds += p.HostWallSeconds
		if i > 0 {
			total.IssuedPerCycle.Merge(p.IssuedPerCycle)
		}
	}
	return total, nil
}
