package ce

// Simulator host-performance benchmarks: how fast the timing simulator
// runs on this machine, per panel configuration. Run them with
// `go test -bench=Simulator -benchtime=1x .` (the CI smoke invocation)
// or longer benchtimes; perfbench/run.sh is the repeated, oracle-checked
// measurement of the whole system.

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/verify"
)

// benchPanel returns the differential-verification panel with its
// instruments (invariant checker, timeline recording) cleared, so the
// production fast path is what gets measured.
func benchPanel() []Config {
	cfgs := verify.Panel()
	for i := range cfgs {
		cfgs[i].CheckInvariants = false
		cfgs[i].RecordTimeline = false
	}
	return cfgs
}

// BenchmarkSimulatorPanel runs the compress workload through every
// verification-panel configuration with the instruments stripped (the
// production fast path) and reports simulated Mcycles per wall-clock
// second plus allocations per simulated cycle.
func BenchmarkSimulatorPanel(b *testing.B) {
	w, err := prog.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range benchPanel() {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			var cycles int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := pipeline.New(cfg, p)
				if err != nil {
					b.Fatal(err)
				}
				st, err := sim.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				cycles += st.Cycles
			}
			b.StopTimer()
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
		})
	}
}
