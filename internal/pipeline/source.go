package pipeline

import (
	"fmt"

	"repro/internal/trace"
)

// NewReplay builds a simulator driven by a pre-captured trace instead of
// lockstep execution: rd streams the same emu.Record sequence the
// functional emulator would produce, so a sweep runs each program once
// and times it under every configuration. The contract is exact
// equivalence — identical records, errors included, and identical
// Output/StateHash — which the differential harness in internal/verify
// pins. Wrong-path execution is refused: it must execute down
// mispredicted paths, which only a concrete machine can do — a trace has
// exactly the architectural path.
func NewReplay(cfg Config, rd *trace.Reader) (*Simulator, error) {
	if cfg.WrongPathExecution {
		return nil, fmt.Errorf("pipeline: %s: wrong-path execution cannot run from a replay source (it executes mispredicted paths; use New)", cfg.Name)
	}
	return newSimulator(cfg, rd.Program(), nil, rd)
}
