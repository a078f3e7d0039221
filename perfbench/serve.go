package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/runcache"
	"repro/internal/server"
)

const (
	// serveRequests is the length of one round's POST /run sequence.
	serveRequests = 1200
	// serveClients is the closed-loop client count: each waits for its
	// reply before sending again. It equals the host's CPU count, so the
	// load never exceeds what the process has cores for.
	serveClients = 2
	// serveMetricsEvery inserts a GET /metrics after this many requests.
	serveMetricsEvery = 50
	// serveZipf skews repeats toward a seed-chosen set of hot points.
	serveZipf = 1.2
	// persistEvery selects the points the fixture pre-persists (every
	// third), so a round meets memory hits, disk hits and misses.
	persistEvery = 3
)

// serveSpecs are the custom scheduler geometries serve-mixed requests,
// each crossed with the seven paper workloads.
var serveSpecs = []server.SchedulerSpec{
	{Kind: "window", Size: 16},
	{Kind: "window", Size: 32},
	{Kind: "window", Size: 48},
	{Kind: "window", Size: 96},
	{Kind: "window", Size: 128},
	{Kind: "random-select", Size: 32},
	{Kind: "random-select", Size: 64},
	{Kind: "exec-steer", Size: 32, Clusters: 2},
	{Kind: "exec-steer", Size: 64, Clusters: 2},
	{Kind: "exec-steer", Size: 64, Clusters: 4},
	{Kind: "fifos", Clusters: 1, FIFOsPerCluster: 4, Depth: 8},
	{Kind: "fifos", Clusters: 1, FIFOsPerCluster: 8, Depth: 16},
	{Kind: "fifos", Clusters: 1, FIFOsPerCluster: 16, Depth: 4},
	{Kind: "fifos", Clusters: 2, FIFOsPerCluster: 4, Depth: 8},
	{Kind: "fifos", Clusters: 2, FIFOsPerCluster: 2, Depth: 16},
	{Kind: "fifos", Clusters: 2, FIFOsPerCluster: 8, Depth: 4, AnySlot: true},
	{Kind: "fifos", Clusters: 4, FIFOsPerCluster: 2, Depth: 8},
	{Kind: "fifos", Clusters: 1, FIFOsPerCluster: 6, Depth: 8, AnySlot: true},
}

// servePoint is one design point: a request body and its oracle key.
type servePoint struct {
	key  string
	body []byte
}

func servePoints() ([]servePoint, error) {
	var pts []servePoint
	for _, spec := range serveSpecs {
		for _, w := range ce.Workloads() {
			spec := spec
			body, err := json.Marshal(server.RunRequest{Scheduler: &spec, Workload: w})
			if err != nil {
				return nil, err
			}
			pts = append(pts, servePoint{key: string(body), body: body})
		}
	}
	return pts, nil
}

// requestStream is a round's request sequence: indices into the points,
// with -1 for a GET /metrics. Every point appears at least once, so each
// round meets the same misses; the remaining requests repeat points with
// Zipf-skewed popularity over a seed-chosen ranking, in seeded order.
func requestStream(seed int64, points, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(points)
	zipf := rand.NewZipf(rng, serveZipf, 1, uint64(points-1))
	seq := make([]int, 0, n)
	for p := 0; p < points && len(seq) < n; p++ {
		seq = append(seq, p)
	}
	for len(seq) < n {
		seq = append(seq, rank[zipf.Uint64()])
	}
	rng.Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	out := make([]int, 0, n+n/serveMetricsEvery)
	for i, p := range seq {
		if i > 0 && i%serveMetricsEvery == 0 {
			out = append(out, -1)
		}
		out = append(out, p)
	}
	return out
}

// buildFixture pre-persists traces for every paper workload and results
// for every persistEvery-th point under dir, with the shared store on.
func buildFixture(dir string, pts []servePoint) error {
	eng := ce.NewEngine()
	if err := eng.SetCacheDir(filepath.Join(dir, "runs")); err != nil {
		return err
	}
	if err := eng.SetTraceDir(filepath.Join(dir, "traces")); err != nil {
		return err
	}
	eng.SetSharedStore(true)
	h := server.New(eng, server.Options{}).Handler()
	for i := 0; i < len(pts); i += persistEvery {
		// Through the handler, so the fixture stores exactly what the
		// served path would.
		req, err := http.NewRequest(http.MethodPost, "/run", bytes.NewReader(pts[i].body))
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("fixture point %s: status %d: %s", pts[i].key, rec.Code, rec.Body.Bytes())
		}
	}
	return nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// daemon is an in-process server on a loopback listener.
type daemon struct {
	eng    *ce.Engine
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

// startDaemon builds an engine over store, with the shared store on,
// and serves it.
func startDaemon(store string) (*daemon, error) {
	eng := ce.NewEngine()
	if err := eng.SetCacheDir(filepath.Join(store, "runs")); err != nil {
		return nil, err
	}
	if err := eng.SetTraceDir(filepath.Join(store, "traces")); err != nil {
		return nil, err
	}
	eng.SetSharedStore(true)
	return serveEngine(eng)
}

// serveEngine serves eng on 127.0.0.1:0 and waits until /healthz
// answers.
func serveEngine(eng *ce.Engine) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		eng:    eng,
		srv:    server.New(eng, server.Options{}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not answer /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down and waits for its Serve loop to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout leaves Serve to the Close below
	_ = d.hs.Close()
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	d.client.CloseIdleConnections()
}

// post sends one POST /run and returns the body.
func (d *daemon) post(body []byte) ([]byte, error) {
	resp, err := d.client.Post(d.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /run: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (d *daemon) metrics() (server.Metrics, error) {
	var m server.Metrics
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// roundResult is what one round's clients observed.
type roundResult struct {
	latMS          []float64
	runs           int
	freshCommitted uint64
}

// serveRound drives the daemon with serveClients closed-loop clients
// over seq and checks every response against the oracle.
// names maps each point to the engine's "config\x00workload" for it,
// learned from earlier responses (every round requests every point, so
// traced rounds, which are never the first, know them all).
func serveRound(e *env, rep *report, d *daemon, pts []servePoint, seq []int, tr *Tracer, names map[string]string) roundResult {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		res     roundResult
		wg      sync.WaitGroup
		flights = newFlightIndex()
	)
	observeRuns(tr, d.eng, func(m ce.RunMetrics) int { return flights.parent(m.Config + "\x00" + m.Workload) })
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				if seq[i] < 0 {
					_, end := tr.Begin("server", "GET /metrics", 0)
					_, err := d.metrics()
					end()
					mu.Lock()
					rep.op(err)
					mu.Unlock()
					continue
				}
				pt := pts[seq[i]]
				mu.Lock()
				runKey := names[pt.key]
				mu.Unlock()
				t0 := time.Now()
				id, end := tr.Begin("server", "POST /run", 0)
				flights.add(runKey, id)
				body, err := d.post(pt.body)
				lat := time.Since(t0)
				end()
				flights.remove(runKey, id)
				var m ce.RunMetrics
				var scrubbed []byte
				if err == nil {
					m, scrubbed, err = scrubRun(body)
				}
				mu.Lock()
				rep.op(err)
				if err == nil {
					res.latMS = append(res.latMS, float64(lat)/1e6)
					res.runs++
					names[pt.key] = m.Config + "\x00" + m.Workload
					if !m.Cached {
						res.freshCommitted += m.Committed
					}
					checkServe(rep, e.oracle, e.record, pt.key, scrubbed)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// flightIndex maps in-flight requests to their spans, so the engine's
// per-run callback can be attributed to the request that caused it. It
// is keyed by "config\x00workload" as the engine reports runs.
type flightIndex struct {
	mu sync.Mutex
	m  map[string][]int
}

func newFlightIndex() *flightIndex { return &flightIndex{m: map[string][]int{}} }

func (f *flightIndex) add(k string, id int) {
	if id == 0 || k == "" {
		return
	}
	f.mu.Lock()
	f.m[k] = append(f.m[k], id)
	f.mu.Unlock()
}

func (f *flightIndex) remove(k string, id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := f.m[k]
	for i, v := range ids {
		if v == id {
			f.m[k] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
}

func (f *flightIndex) parent(k string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ids := f.m[k]; len(ids) > 0 {
		return ids[0]
	}
	return 0
}

func runServe(e *env) (*report, error) {
	rep := newReport()
	pts, err := servePoints()
	if err != nil {
		return nil, err
	}
	if e.record != nil {
		e.record.Serve = map[string]string{}
	}
	names := map[string]string{}
	fixture := filepath.Join(e.work, "fixture")
	if err := buildFixture(fixture, pts); err != nil {
		return nil, err
	}
	store := func(i int) string { return filepath.Join(e.work, fmt.Sprintf("store-%d", i)) }
	// Starting and stopping a daemon leaves its store as it was, so the
	// timed set-ups share one copy of the fixture.
	if err := copyTree(fixture, store(-1)); err != nil {
		return nil, err
	}
	var (
		iters, traced []iteration
		latMS         []float64
		runs          int
		measured      float64
		committed     []float64
		ceStats       ceSummary
		gcs           gcSummary
		// tiers sums the engine's cache lookups over untraced rounds:
		// which tier served each POST /run.
		tiers        runcache.Stats
		srvCoalesced uint64
	)
	setup := func() (func(), error) {
		d, err := startDaemon(store(-1))
		if err != nil {
			return nil, err
		}
		return d.stop, nil
	}
	setups, err := repeat(e.seconds, setup, func(i int) error {
		dir := store(i)
		if err := copyTree(fixture, dir); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		d, err := startDaemon(dir)
		if err != nil {
			return err
		}
		defer d.stop()
		seq := requestStream(e.seed*1000+int64(i), len(pts), serveRequests)
		tr := e.tr
		if i%2 == 0 {
			tr = nil
		}
		tr.SetWorkload("serve-mixed")
		var gp *gcProbe
		if tr != nil {
			gp = startGCProbe()
		}
		var res roundResult
		it, err := measureIteration(func() error {
			res = serveRound(e, rep, d, pts, seq, tr, names)
			return nil
		})
		if err != nil {
			return err
		}
		if gp != nil {
			gcs.add(gp)
		}
		if tr != nil {
			traced = append(traced, it)
			ceStats.add(d.eng, d.eng.Metrics(), it.Wall)
			ceStats.coalesced += float64(d.srv.MetricsSnapshot().Server.Coalesced)
		} else {
			iters = append(iters, it)
			latMS = append(latMS, res.latMS...)
			runs += res.runs
			measured += it.Wall
			committed = append(committed, float64(res.freshCommitted)/1e6/it.Wall)
			cs := d.eng.CacheStats()
			tiers.Hits += cs.Hits
			tiers.Coalesced += cs.Coalesced
			tiers.DiskHits += cs.DiskHits
			tiers.Misses += cs.Misses
			srvCoalesced += d.srv.MetricsSnapshot().Server.Coalesced
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.hostE2E(iters, setups)
	rep.e2e["sim_minst_per_s"] = metric{median(committed), "Minst/s"}
	rep.e2e["run_p50_ms"] = metric{median(latMS), "ms"}
	rep.e2e["run_per_s"] = metric{float64(runs) / measured, "1/s"}
	rep.note("%d rounds of %d POST /run over %d points, %d clients", len(iters)+len(traced), serveRequests, len(pts), serveClients)
	if lv, v, err := highTail(latMS); err == nil {
		rep.note("run_p%.4g_ms %.3f over %d requests", lv*100, v, len(latMS))
	}
	n := float64(len(iters))
	rep.note("per untraced round: %.1f requests joined a server flight; engine lookups %.1f memory hits, %.1f coalesced, %.1f disk hits, %.1f misses",
		float64(srvCoalesced)/n, float64(tiers.Hits)/n, float64(tiers.Coalesced)/n, float64(tiers.DiskHits)/n, float64(tiers.Misses)/n)
	if e.tr != nil {
		if err := layerReport(e, rep, iters, traced, ceStats, gcs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
