// Cesweepd serves the sweep engine as a long-lived HTTP daemon: the
// figures, the frontier and single design-point runs, all backed by one
// content-addressed run cache and one trace pool.
//
// Usage:
//
//	cesweepd -addr :8080 -cache-dir /var/cache/ce/runs -trace-dir /var/cache/ce/traces
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/run \
//	    -d '{"config":"dependence","workload":"compress"}'
//	curl -s -X POST localhost:8080/run \
//	    -d '{"scheduler":{"kind":"fifos","clusters":2,"fifos_per_cluster":4,"depth":8},"workload":"li"}'
//	curl -s localhost:8080/figure/13
//	curl -s localhost:8080/frontier
//	curl -s localhost:8080/metrics
//
// Several daemons may share one -cache-dir/-trace-dir: the store is
// operated under the cross-process lease protocol (internal/lease), so a
// design point requested on N daemons simultaneously is simulated by
// exactly one of them and read from disk by the rest. -cache-max bounds
// the warm in-memory tier; evicted results reload from the directory.
//
// -segments K -phases P phase-samples each run, as in cesweep: the trace
// is cut into K segments and one representative per behavior cluster
// (at most P) is timed, an estimate under its own run-cache key. The
// two flags go together; giving only one is a usage error (exit 2).
// Only phase-sampled runs read or write -trace-dir: every other run,
// and every wrong-path configuration, executes in lockstep.
//
// A client that stalls while sending a request header is disconnected
// after 5 s, and an idle keep-alive connection after 2 minutes; neither
// timeout is a flag.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, lets
// in-flight simulations finish (up to -shutdown-timeout), writes a final
// metrics summary to stderr, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/canonjson"
	"repro/internal/server"
)

// Connection timeouts for both listeners. readHeaderTimeout bounds how
// long a client may take to send its request header, so slow or stalled
// clients cannot hold connections open indefinitely; idleTimeout closes
// keep-alive connections that sit idle between requests. Neither bounds
// a request body or a response: a POST /run may legitimately simulate
// for minutes.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

var (
	addr            = flag.String("addr", "localhost:8344", "listen address (host:port; :0 picks a free port)")
	cacheDir        = flag.String("cache-dir", "", "persist run results under this directory (shared across daemons)")
	traceDir        = flag.String("trace-dir", "", "persist the execution traces of phase-sampled runs under this directory (shared across daemons); other runs never read or write it")
	cacheMax        = flag.Int("cache-max", 4096, "max run results held in memory, LRU over the disk tier (0 = unbounded)")
	pprofAddr       = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty = disabled. Never exposed on the serving port")
	segments        = flag.Int("segments", 0, "phase-sample: cut each trace into this many segments (> 1, with -phases; 0 = monolithic)")
	segPhases       = flag.Int("phases", 0, "phase-sample: time one representative of at most this many behavior clusters (> 0, with -segments; 0 = monolithic)")
	shutdownTimeout = flag.Duration("shutdown-timeout", 2*time.Minute, "max time to drain in-flight requests on SIGINT/SIGTERM")
	quiet           = flag.Bool("quiet", false, "suppress per-request log lines")
)

func main() {
	flag.Parse()
	// -segments alone once selected exact segmentation: refuse a
	// half-given plan rather than let an old command line change meaning.
	if (*segments != 0 || *segPhases != 0) && (*segments <= 1 || *segPhases <= 0) {
		fmt.Fprintf(os.Stderr, "cesweepd: -segments %d -phases %d: phase sampling needs both, -segments > 1 and -phases > 0\n", *segments, *segPhases)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cesweepd:", err)
		os.Exit(1)
	}
}

func run() error {
	eng := ce.NewEngine()
	if *cacheDir != "" {
		if err := eng.SetCacheDir(*cacheDir); err != nil {
			return err
		}
	}
	if *traceDir != "" {
		if err := eng.SetTraceDir(*traceDir); err != nil {
			return err
		}
	}
	// The lease protocol only matters when a directory is shared, but it
	// is harmless (and self-testing) on a private one; enable it whenever
	// any on-disk store is configured.
	if *cacheDir != "" || *traceDir != "" {
		eng.SetSharedStore(true)
	}
	eng.SetCacheLimit(*cacheMax)
	eng.SetSegments(*segments)
	eng.SetSegmentPhases(*segPhases)

	var opts server.Options
	if !*quiet {
		opts.Log = os.Stderr
	}
	srv := server.New(eng, opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Announce the resolved address (meaningful with -addr :0) on its own
	// stderr line so scripts and tests can scrape it.
	fmt.Fprintf(os.Stderr, "cesweepd: listening on http://%s\n", ln.Addr())

	// Opt-in profiling endpoint, always on its own listener with its own
	// mux: the serving port never exposes /debug/pprof/, however the
	// daemon is deployed, and the profiler can be bound to localhost while
	// the API listens publicly.
	if *pprofAddr != "" {
		if *pprofAddr == *addr {
			return fmt.Errorf("-pprof-addr %q must differ from the serving -addr", *pprofAddr)
		}
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof-addr: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "cesweepd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() { _ = newHTTPServer(mux).Serve(pln) }()
	}

	httpSrv := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "cesweepd: %s, draining (timeout %s)\n", sig, *shutdownTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	summary, err := canonjson.Marshal(srv.MetricsSnapshot())
	if err == nil {
		fmt.Fprintf(os.Stderr, "cesweepd: final metrics\n%s", summary)
	}
	return nil
}

// newHTTPServer returns a server for h with the daemon's connection
// timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
