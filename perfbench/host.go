package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fingerprint identifies the host and the code a result was measured
// on; results are only comparable between equal fingerprints.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
	// Commit is the VCS revision the binary was built from, when the
	// build saw one; Tree is a digest of the module's Go sources and
	// go.mod files, which identifies the code in a checkout without git.
	Commit string `json:"commit"`
	Tree   string `json:"tree"`
}

func hostFingerprint(root string) fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
		Tree:       treeDigest(root),
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// treeDigest hashes every .go file and go.mod under root in path order,
// skipping dot-directories (build output lives there).
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(string(fields[0]), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns memory the runtime holds but no longer uses and
// restarts VmHWM, so each iteration's peak is its own.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it peaks are monotone
}

// iteration is the host cost of one measured repetition of a workload.
type iteration struct {
	Wall, CPU, RSSMB float64
}

// measureIteration runs fn between fresh host counters.
func measureIteration(fn func() error) (iteration, error) {
	resetPeakRSS()
	cpu0, t0 := cpuSeconds(), time.Now()
	err := fn()
	return iteration{
		Wall:  time.Since(t0).Seconds(),
		CPU:   cpuSeconds() - cpu0,
		RSSMB: peakRSSMB(),
	}, err
}

// gcProbe samples the Go runtime across a traced iteration: GC cycles
// and pause time from runtime/metrics, and the peak of live heap objects
// sampled every few milliseconds.
type gcProbe struct {
	cycles0 uint64
	pause0  float64
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	peak    uint64
}

func readGC() (cycles uint64, pauseSeconds float64, heap uint64) {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/pauses:seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			// Each bucket contributes its lower bound (the top bucket's
			// upper bound is +Inf), so the total never overstates.
			lo := h.Buckets[i]
			if lo > 0 {
				pauseSeconds += float64(c) * lo
			}
		}
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		heap = s[2].Value.Uint64()
	}
	return
}

func startGCProbe() *gcProbe {
	g := &gcProbe{stop: make(chan struct{}), done: make(chan struct{})}
	g.cycles0, g.pause0, g.peak = readGC()
	go func() {
		defer close(g.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				_, _, heap := readGC()
				g.mu.Lock()
				g.peak = max(g.peak, heap)
				g.mu.Unlock()
			}
		}
	}()
	return g
}

// finish stops the sampler and returns cycles, total pause and peak
// heap over the probe's lifetime.
func (g *gcProbe) finish() (cycles uint64, pauseMS, heapPeakMB float64) {
	close(g.stop)
	<-g.done
	c, p, heap := readGC()
	g.mu.Lock()
	peak := max(g.peak, heap)
	g.mu.Unlock()
	return c - g.cycles0, (p - g.pause0) * 1000, float64(peak) / (1 << 20)
}
