package main

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/trace"
)

const (
	hugeWorkload = "compress.huge"
	hugeSegments = 64
	hugePhases   = 8
)

func hugeProgram() (*isa.Program, error) {
	w, err := prog.ByName(hugeWorkload)
	if err != nil {
		return nil, err
	}
	return w.Program()
}

// hugeSetup builds a cold engine over a fresh trace directory with the
// phase-sampling plan: 64 segments, adaptive warmup, 8 phases.
func hugeSetup(dir string) (*ce.Engine, error) {
	eng := ce.NewEngine()
	if err := eng.SetTraceDir(dir); err != nil {
		return nil, err
	}
	eng.SetSegments(hugeSegments)
	eng.SetSegmentAdaptive(true)
	eng.SetSegmentPhases(hugePhases)
	return eng, assembleWorkloads([]string{hugeWorkload})
}

func outputDigest(out []int32) string {
	var b strings.Builder
	for _, v := range out {
		b.WriteString(strconv.FormatInt(int64(v), 10))
		b.WriteByte('\n')
	}
	return sha256Hex([]byte(b.String()))
}

// exactCycles simulates the whole trace under the baseline
// configuration, unsampled, and returns its cycle count.
func exactCycles(t *trace.Trace) (int64, error) {
	rd := trace.NewReader(t)
	defer rd.Release()
	sim, err := pipeline.NewReplay(ce.BaselineConfig(), rd)
	if err != nil {
		return 0, err
	}
	st, err := sim.Run(maxInsts)
	if err != nil {
		return 0, err
	}
	if st.Committed != t.Steps() {
		return 0, fmt.Errorf("exact replay of %s committed %d of %d", hugeWorkload, st.Committed, t.Steps())
	}
	return st.Cycles, nil
}

func runHuge(e *env) (*report, error) {
	rep := newReport()
	p, err := hugeProgram()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, "huge-traces")
	var (
		iters, traced []iteration
		committed     []float64
		latMS         []float64
		errPct        float64
		ceStats       ceSummary
		gcs           gcSummary
	)
	// The seed has nothing to reorder here: the workload is one
	// submission. It is accepted so every workload takes the same flags.
	setup := func() (func(), error) {
		_, err := hugeSetup(dir)
		return func() {}, err
	}
	setups, err := repeat(e.seconds, setup, func(i int) error {
		eng, err := hugeSetup(dir)
		if err != nil {
			return err
		}
		tr := e.tr
		if i%2 == 0 {
			tr = nil
		}
		tr.SetWorkload("huge-sampled")
		var parent int
		observeRuns(tr, eng, func(ce.RunMetrics) int { return parent })
		var gp *gcProbe
		if tr != nil {
			gp = startGCProbe()
		}
		var m ce.RunMetrics
		it, err := measureIteration(func() error {
			var end func()
			parent, end = tr.Begin("ce", "RunOne baseline/"+hugeWorkload, 0)
			_, m, err = eng.RunOne(ce.BaselineConfig(), hugeWorkload)
			end()
			rep.op(err)
			return err
		})
		if err != nil {
			return err
		}
		if gp != nil {
			gcs.add(gp)
		}
		if tr != nil {
			traced = append(traced, it)
			ceStats.add(eng, eng.Metrics(), it.Wall)
		} else {
			iters = append(iters, it)
			committed = append(committed, float64(m.Committed)/1e6/it.Wall)
			latMS = append(latMS, it.Wall*1000)
		}
		if m.Segments == nil {
			return fmt.Errorf("%s ran without a segment plan", hugeWorkload)
		}
		// The oracle: the trace the engine streamed to disk, and the
		// phase estimate built from it.
		t, err := trace.ReadFile(dir, p)
		if err != nil {
			return err
		}
		sh := t.StateHash()
		got := hugeOracle{
			Steps:           t.Steps(),
			StateHash:       hex.EncodeToString(sh[:]),
			OutputSHA256:    outputDigest(t.Output()),
			EstimatedCycles: m.Segments.EstimatedCycles,
			ExactCycles:     e.oracle.Huge.ExactCycles,
		}
		if e.record != nil && i == 0 {
			// Re-take the exact reference too, as StreamBench's exact
			// leg does: one unsampled replay of the whole trace.
			if got.ExactCycles, err = exactCycles(t); err != nil {
				return err
			}
		}
		if err := t.Close(); err != nil {
			return err
		}
		if e.record != nil {
			e.record.Huge = got
		}
		want := e.oracle.Huge
		checkHuge(rep, got, want)
		exact := float64(got.Steps) / float64(want.ExactCycles)
		errPct = math.Abs(float64(got.Steps)/float64(got.EstimatedCycles)-exact) / exact * 100
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	rep.hostE2E(iters, setups)
	rep.e2e["sim_minst_per_s"] = metric{median(committed), "Minst/s"}
	rep.e2e["run_p50_ms"] = metric{median(latMS), "ms"}
	rep.e2e["run_per_s"] = metric{1000 / median(latMS), "1/s"}
	rep.note("%d iterations; sample_ipc_err_pct %.4f %% (phase estimate against the exact %d-cycle baseline)", len(iters)+len(traced), errPct, e.oracle.Huge.ExactCycles)
	if e.tr != nil {
		if err := layerReport(e, rep, iters, traced, ceStats, gcs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
