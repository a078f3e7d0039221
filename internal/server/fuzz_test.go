package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/prog"
)

// FuzzRunRequest feeds arbitrary bytes through the POST /run decoder
// and buildConfig. Neither may panic, and every request they accept
// must build a simulator that runs: no field may reach the scheduler
// unbounded or malformed.
func FuzzRunRequest(f *testing.F) {
	w, err := prog.ByName("micro.chain")
	if err != nil {
		f.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []RunRequest{
		{Config: "baseline", Workload: "micro.chain"},
		{Config: "dependence", Workload: "compress", Predictor: "bimodal"},
		{Scheduler: &SchedulerSpec{Kind: "window", Size: 128}, Workload: "li"},
		{Scheduler: &SchedulerSpec{Kind: "random-select", Size: 64}, Workload: "li"},
		{Scheduler: &SchedulerSpec{Kind: "exec-steer", Size: 64, Clusters: 4}, Workload: "li"},
		{Scheduler: &SchedulerSpec{Kind: "fifos", Clusters: 2, FIFOsPerCluster: 8, Depth: 4, AnySlot: true}, Workload: "li"},
		{Scheduler: &SchedulerSpec{Kind: "fifos", FIFOsPerCluster: maxSpecDim, Depth: maxSpecDim}, Workload: "li"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"scheduler":{"kind":"fifos","fifos_per_cluster":4194304,"depth":8},"workload":"li"}`))
	f.Add([]byte(`{"scheduler":{"kind":"window","size":-1},"workload":"li"}`))
	f.Add([]byte(`{`))
	s := &Server{}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRunRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		cfg, err := s.buildConfig(&req)
		if err != nil {
			return
		}
		sim, err := pipeline.New(cfg, p)
		if err != nil {
			t.Fatalf("accepted request %s does not build: %v", body, err)
		}
		if _, err := sim.RunUntilCommitted(64, 100_000); err != nil {
			t.Fatalf("accepted request %s does not run: %v", body, err)
		}
	})
}
