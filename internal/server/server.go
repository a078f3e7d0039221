// Package server implements cesweepd's HTTP/JSON API over a ce.Engine —
// the layer that turns the deterministic, memoized sweep engine into a
// long-lived sweep-as-a-service daemon.
//
// Endpoints:
//
//	POST /run        simulate (or recall) one design point: a stock
//	                 configuration name or a scheduler spec, plus a
//	                 workload; returns the run's ce.RunMetrics
//	GET  /figure/{n} the canonical JSON dump of figure 13, 15 or 17
//	GET  /frontier   the canonical JSON frontier ranking
//	GET  /metrics    cache, trace-pool and request counters
//	GET  /healthz    liveness probe
//
// Figure and frontier responses are byte-identical to cesweep -json's
// dumps: both call the same ce.FigureJSON/ce.FrontierJSON over the same
// deterministic results. Concurrent identical requests are coalesced —
// POST /run by the engine's content-addressed single-flight cache,
// figure/frontier sweeps by a server-level single-flight group — and
// with Engine.SetSharedStore enabled, coalescing extends across daemons
// sharing one store via the internal/lease lock-file protocol.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/canonjson"
	"repro/internal/core"
)

// Options configures a Server.
type Options struct {
	// Log receives one JSON line per completed request (nil disables
	// request logging).
	Log io.Writer
}

// Server serves the sweep API over one engine.
type Server struct {
	eng   *ce.Engine
	start time.Time

	logMu sync.Mutex
	logW  io.Writer

	flights flightGroup

	// workloads is the fixed benchmark registry, indexed for request
	// validation.
	workloads map[string]bool

	requests    atomic.Uint64
	errors      atomic.Uint64
	runRequests atomic.Uint64
	inFlight    atomic.Int64
	busyNanos   atomic.Int64
}

// New returns a Server over eng.
func New(eng *ce.Engine, opts Options) *Server {
	s := &Server{eng: eng, start: time.Now(), logW: opts.Log, workloads: make(map[string]bool)}
	for _, w := range ce.WorkloadsExtended() {
		s.workloads[w] = true
	}
	// Huge workloads never enter a sweep matrix, but a single /run on
	// one is exactly what phase-sampled segmented simulation is for.
	for _, w := range ce.WorkloadsHuge() {
		s.workloads[w] = true
	}
	return s
}

// Handler returns the daemon's root handler: the API routes wrapped in
// the request-accounting and structured-logging middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /figure/{n}", s.handleFigure)
	mux.HandleFunc("GET /frontier", s.handleFrontier)
	mux.HandleFunc("POST /run", s.handleRun)
	return s.instrument(mux)
}

// statusWriter captures the status code and byte count a handler wrote,
// for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrument wraps next in request accounting and structured logging.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Add(1)
		s.inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		s.inFlight.Add(-1)
		s.busyNanos.Add(int64(dur))
		if sw.status >= 400 {
			s.errors.Add(1)
		}
		if s.logW != nil {
			line, err := json.Marshal(struct {
				Time     string  `json:"time"`
				Method   string  `json:"method"`
				Path     string  `json:"path"`
				Status   int     `json:"status"`
				Millis   float64 `json:"ms"`
				Bytes    int     `json:"bytes"`
				Remote   string  `json:"remote"`
				InFlight int64   `json:"in_flight"`
			}{
				Time:     start.UTC().Format(time.RFC3339Nano),
				Method:   r.Method,
				Path:     r.URL.Path,
				Status:   sw.status,
				Millis:   float64(dur.Microseconds()) / 1000,
				Bytes:    sw.bytes,
				Remote:   r.RemoteAddr,
				InFlight: s.inFlight.Load(),
			})
			if err == nil {
				s.logMu.Lock()
				// Serializing whole lines onto logW is this mutex's entire
				// job; the write is the critical section.
				fmt.Fprintf(s.logW, "%s\n", line) //ce:lock-ok logMu exists to serialize this write
				s.logMu.Unlock()
			}
		}
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// Metrics is the GET /metrics payload.
type Metrics struct {
	Cache  ce.CacheStats `json:"cache"`
	Trace  ce.TraceStats `json:"trace"`
	Server struct {
		Requests      uint64  `json:"requests"`
		RunRequests   uint64  `json:"run_requests"`
		Errors        uint64  `json:"errors"`
		InFlight      int64   `json:"in_flight"`
		Coalesced     uint64  `json:"coalesced"`
		BusySeconds   float64 `json:"busy_seconds"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	} `json:"server"`
}

// MetricsSnapshot returns the current counters (the GET /metrics
// payload, exposed for the daemon's shutdown summary).
func (s *Server) MetricsSnapshot() Metrics {
	var m Metrics
	m.Cache = s.eng.CacheStats()
	m.Trace = s.eng.TraceStats()
	m.Server.Requests = s.requests.Load()
	m.Server.RunRequests = s.runRequests.Load()
	m.Server.Errors = s.errors.Load()
	m.Server.InFlight = s.inFlight.Load()
	m.Server.Coalesced = s.flights.coalesced.Load()
	m.Server.BusySeconds = float64(s.busyNanos.Load()) / 1e9
	m.Server.UptimeSeconds = time.Since(s.start).Seconds()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.writeCanonJSON(w, s.MetricsSnapshot())
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || (n != 13 && n != 15 && n != 17) {
		http.Error(w, fmt.Sprintf("unknown figure %q (want 13, 15 or 17)", r.PathValue("n")), http.StatusNotFound)
		return
	}
	s.serveFlight(w, fmt.Sprintf("figure/%d", n), func() ([]byte, error) {
		return s.eng.FigureJSON(n)
	})
}

func (s *Server) handleFrontier(w http.ResponseWriter, _ *http.Request) {
	s.serveFlight(w, "frontier", s.eng.FrontierJSON)
}

// serveFlight computes (or joins) the keyed response and writes it.
// Identical concurrent requests share one sweep; the engine's run cache
// already deduplicates the underlying simulations, so the flight group
// only saves the (cheap) recall-and-render work — but it also bounds
// how many goroutines can pile onto one cold sweep.
func (s *Server) serveFlight(w http.ResponseWriter, key string, fn func() ([]byte, error)) {
	data, err := s.flights.do(key, fn)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// RunRequest is the POST /run body. Exactly one of Config (a stock
// configuration name, see ce.ConfigNames) or Scheduler (a custom
// scheduler mounted on the Table 3 8-way machine) must be set.
type RunRequest struct {
	Config    string         `json:"config,omitempty"`
	Scheduler *SchedulerSpec `json:"scheduler,omitempty"`
	Workload  string         `json:"workload"`
	// Predictor optionally overrides the branch predictor: gshare,
	// bimodal, taken or perfect.
	Predictor string `json:"predictor,omitempty"`
}

// SchedulerSpec is the wire form of a custom scheduler description.
type SchedulerSpec struct {
	// Kind selects the organization: "window" (central issue window),
	// "exec-steer" (central window, execution-driven cluster steering),
	// "random-select" (central window, random selection), or "fifos"
	// (the dependence-based FIFO bank).
	Kind string `json:"kind"`
	// Size is the window entry count (central-window kinds).
	Size int `json:"size,omitempty"`
	// Clusters splits the machine's 8 FUs into equal clusters.
	Clusters int `json:"clusters,omitempty"`
	// FIFOsPerCluster, Depth and AnySlot describe the bank geometry
	// ("fifos" only).
	FIFOsPerCluster int  `json:"fifos_per_cluster,omitempty"`
	Depth           int  `json:"depth,omitempty"`
	AnySlot         bool `json:"any_slot,omitempty"`
}

// buildConfig resolves a RunRequest into a simulator configuration.
func (s *Server) buildConfig(req *RunRequest) (ce.Config, error) {
	if (req.Config == "") == (req.Scheduler == nil) {
		return ce.Config{}, fmt.Errorf("exactly one of config or scheduler must be set")
	}
	var cfg ce.Config
	if req.Config != "" {
		var ok bool
		cfg, ok = ce.NamedConfig(req.Config)
		if !ok {
			return ce.Config{}, fmt.Errorf("unknown config %q (want one of %v)", req.Config, ce.ConfigNames())
		}
	} else {
		spec, clusters, err := req.Scheduler.resolve()
		if err != nil {
			return ce.Config{}, err
		}
		cfg, err = ce.CustomConfig("custom-"+spec.Key(), clusters, spec)
		if err != nil {
			return ce.Config{}, err
		}
	}
	if req.Predictor != "" {
		var err error
		cfg, err = ce.WithPredictor(cfg, req.Predictor)
		if err != nil {
			return ce.Config{}, err
		}
	}
	return cfg, nil
}

// maxSpecDim bounds every size field of a SchedulerSpec (size, clusters,
// fifos_per_cluster, depth). The simulator allocates scheduler state in
// proportion to them, so an unbounded field would let a tiny request
// body exhaust the daemon's memory. The largest geometry any caller
// requests today is a 128-entry window.
const maxSpecDim = 1024

// resolve lowers the wire spec to the engine's serializable form and the
// cluster count it implies.
func (r *SchedulerSpec) resolve() (core.SchedulerSpec, int, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"size", r.Size}, {"clusters", r.Clusters}, {"fifos_per_cluster", r.FIFOsPerCluster}, {"depth", r.Depth}} {
		if f.v > maxSpecDim {
			return core.SchedulerSpec{}, 0, fmt.Errorf("scheduler %s %d exceeds the limit of %d", f.name, f.v, maxSpecDim)
		}
	}
	switch r.Kind {
	case "window":
		if r.Size <= 0 {
			return core.SchedulerSpec{}, 0, fmt.Errorf("window scheduler needs size > 0")
		}
		return core.WindowSpec(r.Size), 1, nil
	case "exec-steer":
		if r.Size <= 0 || r.Clusters < 1 {
			return core.SchedulerSpec{}, 0, fmt.Errorf("exec-steer scheduler needs size > 0 and clusters >= 1")
		}
		return core.ExecSteeredSpec(r.Size, r.Clusters), r.Clusters, nil
	case "random-select":
		if r.Size <= 0 {
			return core.SchedulerSpec{}, 0, fmt.Errorf("random-select scheduler needs size > 0")
		}
		return core.RandomSelectSpec(r.Size), 1, nil
	case "fifos":
		clusters := r.Clusters
		if clusters == 0 {
			clusters = 1
		}
		if r.FIFOsPerCluster <= 0 || r.Depth <= 0 {
			return core.SchedulerSpec{}, 0, fmt.Errorf("fifos scheduler needs fifos_per_cluster > 0 and depth > 0")
		}
		fc := core.FIFOBankConfig{
			Clusters:        clusters,
			FIFOsPerCluster: r.FIFOsPerCluster,
			Depth:           r.Depth,
			AnySlot:         r.AnySlot,
		}
		fc.Name = fmt.Sprintf("fifos-%dx%dx%d", clusters, r.FIFOsPerCluster, r.Depth)
		return core.FIFOBankSpec(fc), clusters, nil
	default:
		return core.SchedulerSpec{}, 0, fmt.Errorf("unknown scheduler kind %q (want window, exec-steer, random-select or fifos)", r.Kind)
	}
}

// decodeRunRequest parses a POST /run body: one JSON object with no
// unknown fields.
func decodeRunRequest(body io.Reader) (RunRequest, error) {
	var req RunRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.runRequests.Add(1)
	req, err := decodeRunRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, "malformed run request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !s.workloads[req.Workload] {
		http.Error(w, fmt.Sprintf("unknown workload %q", req.Workload), http.StatusBadRequest)
		return
	}
	cfg, err := s.buildConfig(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	_, m, err := s.eng.RunOne(cfg, req.Workload)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeCanonJSON(w, m)
}

func (s *Server) writeCanonJSON(w http.ResponseWriter, v any) {
	data, err := canonjson.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// flightGroup coalesces concurrent calls with the same key into one
// execution of fn — the server-level single-flight over whole figure
// sweeps. Results are not retained after the last waiter leaves; the
// engine's run cache is the durable tier.
type flightGroup struct {
	mu        sync.Mutex
	m         map[string]*flightCall
	coalesced atomic.Uint64
}

type flightCall struct {
	done chan struct{}
	data []byte
	err  error
}

func (g *flightGroup) do(key string, fn func() ([]byte, error)) ([]byte, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		g.coalesced.Add(1)
		<-c.done
		return c.data, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()
	defer func() {
		// Publish to waiters even if fn panics, then forget the key so
		// the next request retries rather than reusing a failed flight.
		if c.err == nil && c.data == nil {
			c.err = fmt.Errorf("server: flight %q panicked", key)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.data, c.err = fn()
	return c.data, c.err
}
