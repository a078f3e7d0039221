package verify

// Differential verification of the segment seam (internal/pipeline's
// segment.go, orchestrated by the root package): the deltas of one
// replay snapshotted at every segment boundary must stitch back to the
// monolithic run on every deterministic statistic, and the
// phase-sampled estimate must land inside its stated error bars.
// Generated panel programs are too short to cross a boundary, so this
// check runs on named workloads long enough to segment.

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sampledTolerance is the error bar CheckSegmented holds the
// phase-sampled estimate to: the monolithic IPC must lie within the
// cluster-weighted 95% confidence interval widened by this relative
// slack (adaptive warmup biases every segment the same way, which a CI
// over segments cannot see).
const sampledTolerance = 0.10

// CheckSegmented differentially verifies the segment seam of one named
// workload against every replay-capable panel configuration, cutting
// the trace into (up to) k segments. Wrong-path configurations are
// skipped: they cannot replay, so the engine never segments them.
func CheckSegmented(workload string, k int) error {
	w, err := prog.ByName(workload)
	if err != nil {
		return err
	}
	p, err := w.Program()
	if err != nil {
		return err
	}
	tr, err := trace.Capture(p, maxInsts)
	if err != nil {
		return fmt.Errorf("verify: %s: %w", workload, err)
	}
	if tr.Boundaries() == 0 {
		return fmt.Errorf("verify: %s (%d steps) has no segment boundaries; pick a longer workload", workload, tr.Steps())
	}
	for _, cfg := range replayPanel() {
		if _, err := checkSegmentedOne(cfg, tr, k); err != nil {
			return err
		}
	}
	return nil
}

// CheckSegmentedStreamed is CheckSegmented through the disk-backed
// path: the workload is captured twice, once in memory and once
// streamed into dir, and the two traces must agree on every execution
// property. Then, for every replay-capable panel configuration, the
// segment seam is verified over both traces, and every run timed from
// disk — the monolithic replay, and each phase representative whose
// reader seeks to its segment and streams its chunks from the file —
// must equal its in-memory twin field for field.
func CheckSegmentedStreamed(workload string, k int, dir string) error {
	w, err := prog.ByName(workload)
	if err != nil {
		return err
	}
	p, err := w.Program()
	if err != nil {
		return err
	}
	mem, err := trace.Capture(p, maxInsts)
	if err != nil {
		return fmt.Errorf("verify: %s: %w", workload, err)
	}
	disk, err := trace.CaptureToDir(p, maxInsts, dir)
	if err != nil {
		return fmt.Errorf("verify: %s (streamed): %w", workload, err)
	}
	if mem.Steps() != disk.Steps() {
		return fmt.Errorf("verify: %s: streamed capture took %d steps, in-memory %d", workload, disk.Steps(), mem.Steps())
	}
	if mem.StateHash() != disk.StateHash() {
		return fmt.Errorf("verify: %s: streamed capture's final state diverges from the in-memory capture's", workload)
	}
	for _, cfg := range replayPanel() {
		fromMem, err := checkSegmentedOne(cfg, mem, k)
		if err != nil {
			return err
		}
		fromDisk, err := checkSegmentedOne(cfg, disk, k)
		if err != nil {
			return err
		}
		if len(fromDisk) != len(fromMem) {
			return fmt.Errorf("verify: %s on %s: streamed trace yields %d phase representatives, in-memory %d",
				workload, cfg.Name, len(fromDisk)-1, len(fromMem)-1)
		}
		for i := range fromDisk {
			if err := diffStats(fromDisk[i], fromMem[i]); err != nil {
				return fmt.Errorf("verify: %s on %s: streamed run %d (0 is monolithic, then the phase representatives) diverges from in-memory: %w",
					workload, cfg.Name, i, err)
			}
		}
	}
	return nil
}

// replayPanel returns the panel's replay-capable configurations with
// invariant checking and timelines off.
func replayPanel() []pipeline.Config {
	var cfgs []pipeline.Config
	for _, cfg := range Panel() {
		if !cfg.WrongPathExecution {
			cfg.CheckInvariants, cfg.RecordTimeline = false, false
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// checkSegmentedOne verifies the segment seam of one configuration and
// returns the runs it timed: the monolithic replay, then each phase
// representative.
func checkSegmentedOne(cfg pipeline.Config, tr *trace.Trace, k int) ([]pipeline.Stats, error) {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("verify: %s on %s (segmented): %s", tr.Program().Name, cfg.Name, fmt.Sprintf(format, args...))
	}
	sim, err := pipeline.NewReplay(cfg, trace.NewReader(tr))
	if err != nil {
		return nil, fail("%v", err)
	}
	mono, err := sim.Run(maxCycles)
	if err != nil {
		return nil, fail("%v", err)
	}
	segs := tr.Segments(k)
	if len(segs) < 2 {
		return nil, fail("Segments(%d) produced %d segments from %d boundaries", k, len(segs), tr.Boundaries())
	}

	// Stitching exactness: one replay snapshotted at every segment
	// boundary. Its consecutive deltas telescope, so stitched they must
	// equal the monolithic run on every deterministic field.
	if sim, err = pipeline.NewReplay(cfg, trace.NewReader(tr)); err != nil {
		return nil, fail("%v", err)
	}
	prev, err := sim.RunUntilCommitted(0, maxCycles)
	if err != nil {
		return nil, fail("%v", err)
	}
	parts := make([]pipeline.Stats, len(segs))
	for i, seg := range segs {
		snap, err := sim.RunUntilCommitted(seg.End.Step, maxCycles)
		if err == nil {
			parts[i], err = pipeline.SubStats(snap, prev)
		}
		if err != nil {
			return nil, fail("segment %d: %v", i, err)
		}
		prev = snap
	}
	stitched, err := pipeline.StitchStats(parts)
	if err != nil {
		return nil, fail("%v", err)
	}
	if err := diffStats(stitched, mono); err != nil {
		return nil, fail("snapshot stitch: %v", err)
	}

	// Phase-sampled regime: one representative per behavior cluster (at
	// most half the segments), adaptive warmup, cluster-weighted mean.
	// The estimate must stay inside its stated error bars against the
	// monolithic IPC.
	phases := tr.SegmentPhases(segs, (len(segs)+1)/2)
	if len(phases) == 0 {
		return nil, fail("%d segments yielded no phases", len(segs))
	}
	runs := []pipeline.Stats{mono}
	ipcs := make([]float64, len(phases))
	weights := make([]float64, len(phases))
	for i, ph := range phases {
		st, _, err := pipeline.RunSegmentOpts(cfg, tr, segs[ph.Rep], pipeline.SegmentOpts{}, maxCycles)
		if err != nil {
			return nil, fail("phase representative %d: %v", ph.Rep, err)
		}
		runs = append(runs, st)
		ipcs[i], weights[i] = st.IPC(), ph.Weight
	}
	mean, half := stats.WeightedMeanCI95(ipcs, weights)
	slack := half + sampledTolerance*mean
	if d := mean - mono.IPC(); d > slack || d < -slack {
		return nil, fail("sampled IPC %.4f ± %.4f misses monolithic %.4f (tolerance %.4f)",
			mean, half, mono.IPC(), slack)
	}
	return runs, nil
}

// diffStats reports the first deterministic statistic on which got
// diverges from want (host telemetry is exempt — it measures the runs
// themselves, which legitimately differ).
func diffStats(got, want pipeline.Stats) error {
	cmp := func(g, w uint64, what string) error {
		if g != w {
			return fmt.Errorf("%s = %d, monolithic %d", what, g, w)
		}
		return nil
	}
	if got.Cycles != want.Cycles {
		return fmt.Errorf("cycles = %d, monolithic %d", got.Cycles, want.Cycles)
	}
	checks := []error{
		cmp(got.Committed, want.Committed, "committed"),
		cmp(got.EmuSteps, want.EmuSteps, "emu steps"),
		cmp(got.CondBranches, want.CondBranches, "cond branches"),
		cmp(got.Mispredicts, want.Mispredicts, "mispredicts"),
		cmp(got.InterClusterUops, want.InterClusterUops, "inter-cluster uops"),
		cmp(got.ForwardedLoads, want.ForwardedLoads, "forwarded loads"),
		cmp(got.SquashedUops, want.SquashedUops, "squashed uops"),
		cmp(got.SchedulerStalls, want.SchedulerStalls, "scheduler stalls"),
		cmp(got.PhysRegStalls, want.PhysRegStalls, "physreg stalls"),
		cmp(got.ROBStalls, want.ROBStalls, "rob stalls"),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	if got.Cache != want.Cache || got.ICache != want.ICache {
		return fmt.Errorf("cache stats %+v/%+v, monolithic %+v/%+v", got.Cache, got.ICache, want.Cache, want.ICache)
	}
	if g, w := got.IssuedPerCycle.Total(), want.IssuedPerCycle.Total(); g != w {
		return fmt.Errorf("issue histogram records %d cycles, monolithic %d", g, w)
	}
	for v := 0; v <= 16; v++ {
		if g, w := got.IssuedPerCycle.Count(v), want.IssuedPerCycle.Count(v); g != w {
			return fmt.Errorf("issue histogram bucket %d = %d, monolithic %d", v, g, w)
		}
	}
	return nil
}
