package pipeline

import (
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
)

func captureWorkload(t *testing.T, name string) *trace.Trace {
	t.Helper()
	w, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Capture(p, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// eqDeterministic compares every deterministic Stats field (host
// telemetry legitimately differs between runs).
func eqDeterministic(t *testing.T, label string, got, want Stats) {
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

// TestRunUntilCommittedMatchesRun pins that the commit-horizon loop with
// the final target is the same run as Run: the warm-start seam may not
// perturb the simulation it snapshots.
func TestRunUntilCommittedMatchesRun(t *testing.T) {
	tr := captureWorkload(t, "micro.branchy")
	c := cfg("seg", 1, 0, window64)
	c.PerfectBPred = false

	simA, err := NewReplay(c, trace.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	want, err := simA.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	simB, err := NewReplay(c, trace.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Stop at an interior horizon first: the extra snapshot must not
	// change where the run ends up.
	if _, err := simB.RunUntilCommitted(tr.Steps()/2, 50_000_000); err != nil {
		t.Fatal(err)
	}
	got, err := simB.RunUntilCommitted(tr.Steps(), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	eqDeterministic(t, "run-until-committed", got, want)
}

// TestSegmentAdaptiveWarmup pins the phase-sampled plan's warmup
// contract: each segment discards at most min(cap, half the segment),
// measures the rest of it to within one retire width at its closing
// seam, and the stitched IPC lands near — not necessarily on — the
// monolithic IPC.
func TestSegmentAdaptiveWarmup(t *testing.T) {
	tr := captureWorkload(t, "micro.branchy")
	c := cfg("warm", 1, 0, window64)
	c.PerfectBPred = false
	sim, err := NewReplay(c, trace.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := sim.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	segs := tr.Segments(4)
	if len(segs) < 2 {
		t.Fatalf("micro.branchy yielded %d segments, want ≥ 2", len(segs))
	}
	var (
		parts     []Stats
		discarded uint64
	)
	for _, seg := range segs {
		st, rep, err := RunSegmentOpts(c, tr, seg, SegmentOpts{}, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if limit := min(uint64(adaptiveCap), seg.Steps()/2); rep.WarmupSteps > limit {
			t.Errorf("segment %d discarded %d warmup steps, limit %d", seg.Index, rep.WarmupSteps, limit)
		}
		// The run loop stops on the first cycle that crosses the window's
		// end, so a commit group may overshoot it by under one retire
		// width; the warmup snapshot is counted exactly.
		want := seg.Steps() - rep.WarmupSteps
		if st.Committed < want || st.Committed >= want+uint64(c.RetireWidth) {
			t.Errorf("segment %d committed %d, want %d (+ < %d)", seg.Index, st.Committed, want, c.RetireWidth)
		}
		discarded += rep.WarmupSteps
		parts = append(parts, st)
	}
	if discarded == 0 {
		t.Error("adaptive warmup discarded no steps")
	}
	stitched, err := StitchStats(parts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stitched.IPC(), mono.IPC(); got < want*0.9 || got > want*1.1 {
		t.Errorf("stitched IPC %.4f not within 10%% of monolithic %.4f", got, want)
	}
}
