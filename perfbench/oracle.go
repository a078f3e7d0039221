package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro"
	"repro/internal/canonjson"
)

// oracle holds the recorded simulated results every run is checked
// against. Simulated results depend on neither the seed nor the host,
// so one recording serves every run; `-record FILE` regenerates it.
type oracle struct {
	// PaperDetSHA256 digests the sweep's deterministic run dump, built
	// exactly as `cesweep -all -metrics-det` builds its file.
	PaperDetSHA256 string `json:"paper_det_sha256"`
	// Huge pins the compress.huge trace and its phase estimate.
	Huge hugeOracle `json:"huge"`
	// Serve maps each serve-mixed point to the digest of its scrubbed
	// POST /run response (see scrubRun).
	Serve map[string]string `json:"serve"`
}

type hugeOracle struct {
	Steps           uint64 `json:"steps"`
	StateHash       string `json:"state_hash"`
	OutputSHA256    string `json:"output_sha256"`
	EstimatedCycles int64  `json:"estimated_cycles"`
	// ExactCycles is the baseline's exact (unsampled) cycle count on the
	// whole trace, the reference for sample_ipc_err_pct.
	ExactCycles int64 `json:"exact_cycles"`
}

//go:embed oracle.json
var oracleJSON []byte

func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	return &o, nil
}

func (o *oracle) write(path string) error {
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// detRun and detDump mirror cesweep's -metrics-det file: simulated
// results in a stable order, host fields scrubbed, and the racy
// memory-hit versus coalesced split merged.
type detRun struct {
	Config    string  `json:"config"`
	Workload  string  `json:"workload"`
	Cycles    int64   `json:"cycles"`
	Committed uint64  `json:"committed"`
	EmuSteps  uint64  `json:"emu_steps"`
	IPC       float64 `json:"ipc"`
}

func detDump(runs []ce.RunMetrics, cs ce.CacheStats) ([]byte, error) {
	det := make([]detRun, len(runs))
	for i, m := range runs {
		det[i] = detRun{m.Config, m.Workload, m.Cycles, m.Committed, m.EmuSteps, m.IPC}
	}
	sort.Slice(det, func(i, j int) bool {
		if det[i].Config != det[j].Config {
			return det[i].Config < det[j].Config
		}
		return det[i].Workload < det[j].Workload
	})
	dump := struct {
		Runs  []detRun `json:"runs"`
		Cache struct {
			Lookups     uint64 `json:"lookups"`
			Hits        uint64 `json:"hits"`
			DiskHits    uint64 `json:"disk_hits"`
			Misses      uint64 `json:"misses"`
			Uncacheable uint64 `json:"uncacheable"`
		} `json:"cache"`
	}{Runs: det}
	dump.Cache.Lookups = cs.Lookups()
	dump.Cache.Hits = cs.Hits + cs.Coalesced
	dump.Cache.DiskHits = cs.DiskHits
	dump.Cache.Misses = cs.Misses
	dump.Cache.Uncacheable = cs.Uncacheable
	return canonjson.Marshal(dump)
}

// scrubRun reduces a POST /run response to its simulated result: host
// timings, allocation counts and how the result was obtained (fresh,
// recalled, replayed, ganged) are dropped, and the rest is re-encoded
// canonically. Two responses for one point must scrub to the same bytes.
func scrubRun(body []byte) (ce.RunMetrics, []byte, error) {
	var m ce.RunMetrics
	if err := json.Unmarshal(body, &m); err != nil {
		return m, nil, fmt.Errorf("run response: %w", err)
	}
	b, err := canonjson.Marshal(detRun{m.Config, m.Workload, m.Cycles, m.Committed, m.EmuSteps, m.IPC})
	return m, b, err
}

// checkServe compares one point's scrubbed response with the oracle, or
// records it when record is set.
func checkServe(rep *report, o, record *oracle, key string, scrubbed []byte) {
	got := sha256Hex(scrubbed)
	if record != nil {
		record.Serve[key] = got
		return
	}
	rep.check(got == o.Serve[key], "serve-mixed: %s answered %s, recorded %s", key, scrubbed, o.Serve[key])
}

// checkPaper compares a sweep's Figure 13 CSV with the golden file and
// its deterministic run dump with the recorded digest.
func checkPaper(rep *report, fig13, golden string, det []byte, want string) {
	rep.check(fig13 == golden, "paper-sweep: Figure 13 CSV differs from testdata/figure13.golden:\n%s", fig13)
	rep.check(sha256Hex(det) == want, "paper-sweep: deterministic run dump sha256 %s, recorded %s", sha256Hex(det), want)
}

// checkHuge compares the compress.huge trace and phase estimate with
// the recorded ones.
func checkHuge(rep *report, got, want hugeOracle) {
	rep.check(got.Steps == want.Steps, "huge-sampled: trace has %d steps, recorded %d", got.Steps, want.Steps)
	rep.check(got.StateHash == want.StateHash, "huge-sampled: trace state hash %s, recorded %s", got.StateHash, want.StateHash)
	rep.check(got.OutputSHA256 == want.OutputSHA256, "huge-sampled: output digest %s, recorded %s", got.OutputSHA256, want.OutputSHA256)
	rep.check(got.EstimatedCycles == want.EstimatedCycles, "huge-sampled: estimated cycles %d, recorded %d", got.EstimatedCycles, want.EstimatedCycles)
}
