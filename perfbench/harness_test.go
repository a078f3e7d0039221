package main

import (
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/canonjson"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9.99 beyond) was reported")
	}
	xs = append(xs, 999)
	v, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if v < 989 || v > 990 {
		t.Errorf("p99 of 0..999 = %v, want between 989 and 990", v)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples (9.9 beyond) was reported")
	}
	if _, err := percentile(xs[:100], 0.9); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 samples = %v, want 2", m)
	}
	if lv, _, err := highTail(xs[:500]); err != nil || lv != 0.98 {
		t.Errorf("highTail of 500 samples at level %v (%v), want 0.98", lv, err)
	}
	if lv, _, err := highTail(xs); err != nil || lv != 0.99 {
		t.Errorf("highTail of 1000 samples at level %v (%v), want 0.99", lv, err)
	}
	if _, _, err := highTail(xs[:19]); err == nil {
		t.Error("highTail of 19 samples was reported")
	}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add("ce", "sweep", 0, at(0), at(100))
	// Two overlapping children cover [10, 60] once: 50 ms.
	run1 := tr.Add("pipeline", "run1", root, at(10), at(50))
	tr.Add("pipeline", "run2", root, at(30), at(60))
	// A grandchild inside run1 takes 15 ms of its self time.
	tr.Add("trace", "capture", run1, at(20), at(35))
	// A child sticking out of its parent only counts inside it.
	tr.Add("runcache", "late", root, at(90), at(120))
	self := selfTimes(tr.Spans())
	want := map[string]time.Duration{
		"ce":       100*time.Millisecond - 50*time.Millisecond - 10*time.Millisecond,
		"pipeline": (40-15)*time.Millisecond + 30*time.Millisecond,
		"trace":    15 * time.Millisecond,
		"runcache": 30 * time.Millisecond,
	}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, self[l], d)
		}
	}
}

func TestUntracedRecordsNoSpans(t *testing.T) {
	var tr *Tracer
	id, end := tr.Begin("ce", "x", 0)
	end()
	tr.Add("pipeline", "y", id, time.Now(), time.Now())
	if id != 0 || len(tr.Spans()) != 0 {
		t.Errorf("nil tracer recorded span %d, %d spans", id, len(tr.Spans()))
	}
}

func TestPerturbedOracleFails(t *testing.T) {
	m := ce.RunMetrics{Config: "custom-w64", Workload: "compress", Cycles: 1000, Committed: 2400, IPC: 2.4, EmuSteps: 2400, WallSeconds: 0.1}
	body, err := canonjson.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	_, scrubbed, err := scrubRun(body)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{Serve: map[string]string{"p": sha256Hex(scrubbed)}}

	// Host fields do not take part: a recall with other timings passes.
	m.WallSeconds, m.Cached, m.HostAllocs = 0.00001, true, 7
	recalled, _ := canonjson.Marshal(m)
	_, scrubbed2, _ := scrubRun(recalled)
	rep := newReport()
	checkServe(rep, o, nil, "p", scrubbed2)
	if rep.failed != 0 {
		t.Fatalf("identical result with different host fields failed: %v", rep.failures)
	}
	// One perturbed recorded value fails the point.
	o.Serve["p"] = sha256Hex(append(scrubbed, ' '))
	checkServe(rep, o, nil, "p", scrubbed2)
	if rep.failed != 1 || rep.attempted != 2 {
		t.Errorf("perturbed serve oracle: %d of %d failed, want 1 of 2", rep.failed, rep.attempted)
	}

	want := hugeOracle{Steps: 10, StateHash: "ab", OutputSHA256: "cd", EstimatedCycles: 4}
	for _, perturb := range []func(*hugeOracle){
		func(h *hugeOracle) { h.Steps++ },
		func(h *hugeOracle) { h.StateHash = "ac" },
		func(h *hugeOracle) { h.OutputSHA256 = "" },
		func(h *hugeOracle) { h.EstimatedCycles-- },
	} {
		got := want
		perturb(&got)
		rep := newReport()
		checkHuge(rep, got, want)
		if rep.failed != 1 {
			t.Errorf("perturbed huge oracle %+v: %d failures, want 1", got, rep.failed)
		}
	}

	rep = newReport()
	checkPaper(rep, "a,b\n", "a,b\n", []byte("det"), sha256Hex([]byte("det")))
	checkPaper(rep, "a,b\n", "a,c\n", []byte("det"), sha256Hex([]byte("det!")))
	if rep.failed != 2 || rep.attempted != 4 {
		t.Errorf("paper oracle: %d of %d failed, want 2 of 4", rep.failed, rep.attempted)
	}
}

func TestRequestStreamSeeded(t *testing.T) {
	a := requestStream(7, 126, serveRequests)
	b := requestStream(7, 126, serveRequests)
	c := requestStream(8, 126, serveRequests)
	if !slices.Equal(a, b) {
		t.Error("one seed gave two request streams")
	}
	if slices.Equal(a, c) {
		t.Error("seeds 7 and 8 gave the same request stream")
	}
	seen := make([]bool, 126)
	posts, gets := 0, 0
	for _, p := range a {
		if p < 0 {
			gets++
			continue
		}
		posts++
		seen[p] = true
	}
	if posts != serveRequests || gets != serveRequests/serveMetricsEvery-1 {
		t.Errorf("stream has %d POSTs and %d GETs, want %d and %d", posts, gets, serveRequests, serveRequests/serveMetricsEvery-1)
	}
	for p, ok := range seen {
		if !ok {
			t.Errorf("point %d never requested", p)
		}
	}
}

func TestServePointsDistinct(t *testing.T) {
	pts, err := servePoints()
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, p := range pts {
		keys[p.key] = true
	}
	if len(keys) != len(pts) || len(pts) < 100 {
		t.Errorf("%d points, %d distinct; want at least 100, all distinct", len(pts), len(keys))
	}
}
