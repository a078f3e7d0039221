package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro"
	"repro/internal/canonjson"
	"repro/internal/emu"
	"repro/internal/lease"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/runcache"
	"repro/internal/server"
	"repro/internal/trace"
)

// maxInsts bounds every probe's functional execution and simulation,
// as the engine bounds its own.
const maxInsts = 200_000_000

// ceSummary accumulates the engine's view of the traced iterations:
// its per-run callback plus TraceStats and CacheStats.
type ceSummary struct {
	latMS []float64
	// slowestMS is each traced iteration's slowest run.
	slowestMS             []float64
	captureWait           float64
	busy, wall            float64
	records               float64
	slabHits, slabDecodes float64
	slabPeakMB            float64
	hits, lookups         float64
	coalesced             float64
}

func (c *ceSummary) add(eng *ce.Engine, runs []ce.RunMetrics, wall float64) {
	slowest := 0.0
	for _, m := range runs {
		lat := (m.WallSeconds + m.CaptureSeconds + m.CaptureWaitSeconds) * 1000
		c.latMS = append(c.latMS, lat)
		slowest = max(slowest, lat)
		c.captureWait += m.CaptureWaitSeconds
		if !m.Cached {
			c.busy += m.WallSeconds + m.CaptureSeconds
		}
	}
	c.slowestMS = append(c.slowestMS, slowest)
	c.wall += wall
	ts := eng.TraceStats()
	c.records += float64(ts.RecordsDecoded)
	c.slabHits += float64(ts.SlabHits)
	c.slabDecodes += float64(ts.SlabDecodes)
	c.slabPeakMB = max(c.slabPeakMB, float64(ts.SlabPeakBytes)/(1<<20))
	cs := eng.CacheStats()
	c.hits += float64(cs.Hits + cs.Coalesced + cs.DiskHits)
	c.lookups += float64(cs.Lookups())
	c.coalesced += float64(cs.Coalesced)
}

// gcSummary accumulates the Go runtime's activity over traced iterations.
type gcSummary struct {
	cycles, pauseMS, heapPeakMB float64
}

func (g *gcSummary) add(p *gcProbe) {
	c, pause, heap := p.finish()
	g.cycles += float64(c)
	g.pauseMS += pause
	g.heapPeakMB = max(g.heapPeakMB, heap)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfLayers are the layers a workload's spans reach from outside: the
// benchmark calls into ce, trace and server, and the engine's callback
// attributes each run to pipeline or runcache.
var selfLayers = []string{"ce", "pipeline", "runcache", "server", "trace"}

// layerReport fills the per-layer metrics of a traced run: the traced
// iterations' self time per layer, engine and runtime counters, the
// tracing overhead against the same run's untraced iterations, and the
// layer probes.
func layerReport(e *env, rep *report, untraced, traced []iteration, c ceSummary, g gcSummary) error {
	self := selfTimes(e.tr.Spans())
	for _, l := range selfLayers {
		rep.layer[l+".self_s"] = metric{self[l].Seconds() / float64(len(traced)), "s"}
	}
	var uw, tw []float64
	for _, it := range untraced {
		uw = append(uw, it.Wall)
	}
	for _, it := range traced {
		tw = append(tw, it.Wall)
	}
	rep.layer["tracing.overhead_pct"] = metric{(ratio(median(tw), median(uw)) - 1) * 100, "%"}

	rep.layer["ce.run_ms_p50"] = metric{median(c.latMS), "ms"}
	// The slowest run stands in for a p99: a traced sweep has 454 runs
	// and a traced RunOne one, too few for a p99 (see percentile).
	rep.layer["ce.run_ms_max"] = metric{median(c.slowestMS), "ms"}
	n := float64(len(traced))
	rep.layer["ce.capture_wait_s"] = metric{c.captureWait / n, "s"}
	rep.layer["ce.parallel_efficiency"] = metric{ratio(c.busy, c.wall*float64(runtime.GOMAXPROCS(0))), "ratio"}
	rep.layer["ce.records_decoded"] = metric{c.records / n, "count"}
	rep.layer["ce.slab_hit_ratio"] = metric{ratio(c.slabHits, c.slabHits+c.slabDecodes), "ratio"}
	rep.layer["ce.slab_peak_mb"] = metric{c.slabPeakMB, "MiB"}
	rep.layer["ce.cache_hit_ratio"] = metric{ratio(c.hits, c.lookups), "ratio"}
	rep.layer["server.coalesced"] = metric{c.coalesced / n, "count"}
	rep.layer["gc.cycles"] = metric{g.cycles / n, "count"}
	rep.layer["gc.pause_ms_total"] = metric{g.pauseMS / n, "ms"}
	rep.layer["gc.heap_peak_mb"] = metric{g.heapPeakMB, "MiB"}
	return probeLayers(e, rep)
}

// timeIt runs fn inside a span and returns its duration.
func timeIt(tr *Tracer, layer, name string, fn func() error) (time.Duration, error) {
	_, end := tr.Begin(layer, name, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	end()
	return d, err
}

// medianTime calls fn n times and returns the median duration.
func medianTime(n int, fn func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// probeLayers times each layer's public functions directly, with spans
// tagged "probe", and checks what they compute.
func probeLayers(e *env, rep *report) error {
	tr := e.tr
	tr.SetWorkload("probe")
	dir := filepath.Join(e.work, "probe-traces")
	if err := trace.EnsureDir(dir); err != nil {
		return err
	}
	var (
		steps, diskBytes            uint64
		emuT, capT, decT            time.Duration
		slabT                       time.Duration
		chunks                      int
		traces                      []*trace.Trace
		simInst                     = map[string]uint64{}
		simT                        = map[string]time.Duration{}
		allocs, cycles              uint64
		sample                      pipeline.Stats
		recBuf                      = make([]emu.Record, 4096)
		slabs                       = trace.NewSlabCache(1 << 30)
		window, fifo, clustered, ws = ce.BaselineConfig(), ce.DependenceConfig(), ce.ClusteredDependenceConfig(), ce.WithWrongPath(ce.BaselineConfig())
	)
	defer func() {
		for _, t := range traces {
			t.Close()
		}
	}()
	for _, name := range ce.Workloads() {
		w, err := prog.ByName(name)
		if err != nil {
			return err
		}
		p, err := w.Program()
		if err != nil {
			return err
		}
		var captured *trace.Trace
		d, err := timeIt(tr, "trace", "CaptureToDir "+name, func() (err error) {
			captured, err = trace.CaptureToDir(p, maxInsts, dir)
			return err
		})
		if err != nil {
			return err
		}
		capT += d
		steps += captured.Steps()
		disk, _ := captured.Footprint()
		diskBytes += uint64(disk)
		if err := captured.Close(); err != nil {
			return err
		}
		var out []int32
		d, err = timeIt(tr, "emu", "Run "+name, func() (err error) {
			out, err = emu.Run(p, maxInsts)
			return err
		})
		if err != nil {
			return err
		}
		emuT += d
		rep.check(slices.Equal(out, captured.Output()), "probe: emu.Run output of %s differs from its trace", name)

		var t *trace.Trace
		if _, err := timeIt(tr, "trace", "ReadFile "+name, func() (err error) {
			t, err = trace.ReadFile(dir, p)
			return err
		}); err != nil {
			return err
		}
		traces = append(traces, t)
		var decoded uint64
		d, err = timeIt(tr, "trace", "StepBatch "+name, func() error {
			rd := trace.NewReader(t)
			defer rd.Release()
			for {
				n, err := rd.StepBatch(recBuf)
				decoded += uint64(n)
				if err != nil || n < len(recBuf) {
					return err
				}
			}
		})
		if err != nil {
			return err
		}
		decT += d
		rep.check(decoded == t.Steps(), "probe: StepBatch decoded %d of %s's %d records", decoded, name, t.Steps())
		for ci := 0; ci < t.Chunks(); ci++ {
			var s *trace.Slab
			d, err := timeIt(tr, "trace", fmt.Sprintf("SlabCache.Acquire %s/%d", name, ci), func() (err error) {
				s, err = slabs.Acquire(t, ci)
				return err
			})
			if err != nil {
				return err
			}
			slabs.Release(s)
			slabT += d
			chunks++
		}

		for _, leg := range []struct {
			key string
			cfg ce.Config
		}{{"window", window}, {"fifo", fifo}, {"clustered", clustered}, {"lockstep", ws}} {
			var st pipeline.Stats
			d, err := timeIt(tr, "pipeline", leg.key+" "+name, func() error {
				var sim *pipeline.Simulator
				var err error
				if leg.key == "lockstep" {
					sim, err = pipeline.New(leg.cfg, p)
				} else {
					rd := trace.NewReader(t)
					defer rd.Release()
					sim, err = pipeline.NewReplay(leg.cfg, rd)
				}
				if err != nil {
					return err
				}
				st, err = sim.Run(maxInsts)
				return err
			})
			if err != nil {
				return fmt.Errorf("probe %s on %s: %w", leg.key, name, err)
			}
			rep.check(st.Committed == t.Steps(), "probe: %s on %s committed %d of %d", leg.key, name, st.Committed, t.Steps())
			simInst[leg.key] += st.Committed
			simT[leg.key] += d
			allocs += st.HostAllocs
			cycles += uint64(st.Cycles)
			sample = st
		}
	}
	perSec := func(n uint64, d time.Duration) float64 { return ratio(float64(n)/1e6, d.Seconds()) }
	rep.layer["emu.step_minst_per_s"] = metric{perSec(steps, emuT), "Minst/s"}
	rep.layer["trace.capture_minst_per_s"] = metric{perSec(steps, capT), "Minst/s"}
	rep.layer["trace.capture_bytes_per_inst"] = metric{ratio(float64(diskBytes), float64(steps)), "B/inst"}
	rep.layer["trace.decode_minst_per_s"] = metric{perSec(steps, decT), "Minst/s"}
	rep.layer["trace.slab_decode_ms"] = metric{ratio(float64(slabT)/1e6, float64(chunks)), "ms"}
	for _, k := range []string{"window", "fifo", "clustered", "lockstep"} {
		rep.layer["pipeline."+k+"_minst_per_s"] = metric{perSec(simInst[k], simT[k]), "Minst/s"}
	}
	rep.layer["pipeline.allocs_per_mcycle"] = metric{ratio(float64(allocs), float64(cycles)/1e6), "count"}

	if err := probeHuge(e, rep); err != nil {
		return err
	}
	return probeServing(e, rep, sample)
}

// probeHuge captures compress.huge to disk, reloads it, clusters its
// segments into phases and times each phase representative.
func probeHuge(e *env, rep *report) error {
	tr := e.tr
	p, err := hugeProgram()
	if err != nil {
		return err
	}
	dir := filepath.Join(e.work, "probe-huge")
	if err := trace.EnsureDir(dir); err != nil {
		return err
	}
	var t *trace.Trace
	if _, err := timeIt(tr, "trace", "CaptureToDir "+hugeWorkload, func() (err error) {
		t, err = trace.CaptureToDir(p, maxInsts, dir)
		return err
	}); err != nil {
		return err
	}
	if err := t.Close(); err != nil {
		return err
	}
	d, err := timeIt(tr, "trace", "ReadFile "+hugeWorkload, func() (err error) {
		t, err = trace.ReadFile(dir, p)
		return err
	})
	if err != nil {
		return err
	}
	defer t.Close()
	rep.layer["trace.load_ms"] = metric{float64(d) / 1e6, "ms"}
	segs := t.Segments(hugeSegments)
	var phases []trace.Phase
	d, _ = timeIt(tr, "trace", "SegmentPhases "+hugeWorkload, func() error {
		phases = t.SegmentPhases(segs, hugePhases)
		return nil
	})
	rep.layer["trace.phase_ms"] = metric{float64(d) / 1e6, "ms"}
	rep.check(len(phases) > 0, "probe: %s has no phases", hugeWorkload)
	var simulated uint64
	var segT time.Duration
	for _, ph := range phases {
		var st pipeline.Stats
		var sr pipeline.SegmentReport
		d, err := timeIt(tr, "pipeline", fmt.Sprintf("RunSegmentOpts %s/%d", hugeWorkload, ph.Rep), func() (err error) {
			st, sr, err = pipeline.RunSegmentOpts(ce.BaselineConfig(), t, segs[ph.Rep], pipeline.SegmentOpts{Adaptive: true}, maxInsts)
			return err
		})
		if err != nil {
			return err
		}
		simulated += st.Committed + sr.WarmupSteps
		segT += d
	}
	rep.layer["pipeline.segment_minst_per_s"] = metric{ratio(float64(simulated)/1e6, segT.Seconds()), "Minst/s"}
	return nil
}

// probeServing times the run cache, canonical JSON, leases and the HTTP
// handler on one recorded result.
func probeServing(e *env, rep *report, st pipeline.Stats) error {
	tr := e.tr
	const reps = 200
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	compute := func() (pipeline.Stats, error) { return st, nil }

	mem := runcache.New()
	if _, _, err := mem.Do("probe", compute); err != nil {
		return err
	}
	if _, err := timeIt(tr, "runcache", "Do memory hits", func() error {
		d, err := medianTime(reps, func() error { _, _, err := mem.Do("probe", compute); return err })
		rep.layer["runcache.hit_us"] = metric{us(d), "us"}
		return err
	}); err != nil {
		return err
	}
	dir := filepath.Join(e.work, "probe-runs")
	persist := runcache.New()
	if err := persist.SetDir(dir); err != nil {
		return err
	}
	i := 0
	if _, err := timeIt(tr, "runcache", "Do persists", func() error {
		d, err := medianTime(reps, func() error {
			i++
			_, _, err := persist.Do(fmt.Sprintf("persist-%d", i), compute)
			return err
		})
		rep.layer["runcache.persist_ms"] = metric{ms(d), "ms"}
		return err
	}); err != nil {
		return err
	}
	load := runcache.New()
	if err := load.SetDir(dir); err != nil {
		return err
	}
	i = 0
	if _, err := timeIt(tr, "runcache", "Do disk loads", func() error {
		d, err := medianTime(reps, func() error {
			i++
			_, hit, err := load.Do(fmt.Sprintf("persist-%d", i), func() (pipeline.Stats, error) {
				return pipeline.Stats{}, fmt.Errorf("persisted entry recomputed")
			})
			if err == nil && !hit {
				err = fmt.Errorf("disk entry not reported as a hit")
			}
			return err
		})
		rep.layer["runcache.disk_load_ms"] = metric{ms(d), "ms"}
		return err
	}); err != nil {
		return err
	}

	m := ce.RunMetrics{Config: st.Config, Cycles: st.Cycles, Committed: st.Committed, IPC: st.IPC(), EmuSteps: st.EmuSteps}
	if _, err := timeIt(tr, "canonjson", "Marshal RunMetrics", func() error {
		d, err := medianTime(reps*10, func() error { _, err := canonjson.Marshal(m); return err })
		rep.layer["canonjson.marshal_us"] = metric{us(d), "us"}
		return err
	}); err != nil {
		return err
	}

	lockPath := filepath.Join(e.work, "probe.lock")
	if _, err := timeIt(tr, "lease", "TryAcquire+Release", func() error {
		d, err := medianTime(reps, func() error {
			l, ok := lease.TryAcquire(lockPath, 0)
			if !ok {
				return fmt.Errorf("lease %s held", lockPath)
			}
			l.Release()
			return nil
		})
		rep.layer["lease.acquire_release_us"] = metric{us(d), "us"}
		return err
	}); err != nil {
		return err
	}

	// One recorded point, then hits through the handler directly and
	// through a real loopback client.
	eng := ce.NewEngine()
	body := []byte(`{"config":"baseline","workload":"compress"}`)
	h := server.New(eng, server.Options{}).Handler()
	serveOnce := func() error {
		rec := httptest.NewRecorder()
		req, err := http.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
		if err != nil {
			return err
		}
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status %d", rec.Code)
		}
		return nil
	}
	if err := serveOnce(); err != nil {
		return err
	}
	var handler time.Duration
	if _, err := timeIt(tr, "server", "Handler().ServeHTTP hits", func() (err error) {
		handler, err = medianTime(reps*5, serveOnce)
		return err
	}); err != nil {
		return err
	}
	rep.layer["server.handler_hit_us"] = metric{us(handler), "us"}
	d2, err := serveEngine(eng)
	if err != nil {
		return err
	}
	defer d2.stop()
	var client time.Duration
	if _, err := timeIt(tr, "server", "client POST /run hits", func() (err error) {
		client, err = medianTime(reps*5, func() error { _, err := d2.post(body); return err })
		return err
	}); err != nil {
		return err
	}
	rep.layer["server.client_overhead_us"] = metric{us(client - handler), "us"}
	return nil
}
