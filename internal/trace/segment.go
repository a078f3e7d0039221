package trace

// Time-parallel segmentation (SMARTS/SimPoint-style): the one functional
// execution that captures a trace also records periodic boundaries —
// cheap architectural checkpoints of the *replay* cursor. Because the
// timing simulator consumes nothing but the Record stream, a boundary
// (step count, packed-stream offset, next PC) is a complete warm-start
// point: a Reader opened there replays the identical record suffix the
// monolithic run would have seen, with no register file or memory image
// to restore. The segment scheduler in the root package fans a
// workload's segments across workers and stitches the per-segment Stats
// deltas; internal/verify pins that full-warmup stitching is exact.

import (
	"fmt"
	"sort"
)

// boundaryInterval is the spacing, in dynamic instructions, of the
// boundaries captured during recording. 2^15 keeps the table to ~20
// bytes per 32k instructions (noise next to the ~1 byte/instruction
// stream) while letting warm-start points land within 32k instructions
// of any requested cut.
const boundaryInterval = 1 << 15

// Boundary is one warm-start point inside a trace: the state of a
// Reader that has replayed exactly Step records.
type Boundary struct {
	// Step is the number of dynamic records replayed before this point.
	Step uint64
	// Pos is the byte offset into the packed stream.
	Pos uint64
	// PC is the next instruction to replay.
	PC uint32
}

// Segment is a contiguous slice of a trace's dynamic instructions:
// records [Start.Step, End.Step). Start is always a true boundary (a
// Reader can be opened there); End is the next segment's Start, or the
// trace's end for the final segment.
type Segment struct {
	Index int
	Start Boundary
	End   Boundary
}

// Steps returns the number of dynamic instructions in the segment.
func (s Segment) Steps() uint64 { return s.End.Step - s.Start.Step }

// startBoundary is the implicit boundary before the first record.
func (t *Trace) startBoundary() Boundary { return Boundary{PC: t.entryPC} }

// endBoundary marks the end of the trace. Its PC is not a replay point
// (the trace ends in Halt); only Step and Pos are meaningful.
func (t *Trace) endBoundary() Boundary {
	return Boundary{Step: t.n, Pos: t.packedLen}
}

// Boundaries returns the number of stored warm-start boundaries.
func (t *Trace) Boundaries() int { return len(t.bounds) }

// boundaryNear returns the stored boundary whose Step is nearest to
// target (false if none are stored).
func (t *Trace) boundaryNear(target uint64) (Boundary, bool) {
	if len(t.bounds) == 0 {
		return Boundary{}, false
	}
	i := sort.Search(len(t.bounds), func(i int) bool { return t.bounds[i].Step >= target })
	if i == len(t.bounds) {
		return t.bounds[i-1], true
	}
	if i > 0 && target-t.bounds[i-1].Step < t.bounds[i].Step-target {
		return t.bounds[i-1], true
	}
	return t.bounds[i], true
}

// Segments cuts the trace into up to k contiguous segments at the
// stored boundaries nearest to the ideal k-way split points. Short
// traces (fewer boundaries than requested cuts) yield fewer segments —
// possibly one — never an error: segmentation degrades gracefully to
// the monolithic run. The segments partition [0, Steps()) exactly.
func (t *Trace) Segments(k int) []Segment {
	if k < 1 {
		k = 1
	}
	cuts := []Boundary{t.startBoundary()}
	for i := 1; i < k; i++ {
		b, ok := t.boundaryNear(t.n * uint64(i) / uint64(k))
		if !ok || b.Step <= cuts[len(cuts)-1].Step || b.Step >= t.n {
			continue
		}
		cuts = append(cuts, b)
	}
	segs := make([]Segment, len(cuts))
	for i, c := range cuts {
		end := t.endBoundary()
		if i+1 < len(cuts) {
			end = cuts[i+1]
		}
		segs[i] = Segment{Index: i, Start: c, End: end}
	}
	return segs
}

// WarmStart returns the boundary at which to begin replaying seg. Full
// warmup replays from the very beginning, which makes the segment run
// an exact stopped-early copy of the monolithic simulation and the
// stitched statistics bit-identical to it; otherwise replay starts cold
// at the segment's own boundary.
func (t *Trace) WarmStart(seg Segment, full bool) Boundary {
	if full {
		return t.startBoundary()
	}
	return seg.Start
}

// NewReaderAt returns a cursor positioned at boundary b, exactly as if
// a fresh Reader had replayed b.Step records. b must be a boundary of
// this trace (its start, or one returned by WarmStart / Segments). Only
// the chunk containing b is loaded; later chunks stream in as the
// cursor crosses into them.
func NewReaderAt(t *Trace, b Boundary) (*Reader, error) {
	if b.Step > t.n || b.Pos > t.packedLen {
		return nil, fmt.Errorf("trace: boundary step %d / pos %d outside the trace (%d steps, %d bytes)",
			b.Step, b.Pos, t.n, t.packedLen)
	}
	if b.Step < t.n && b.PC >= uint32(len(t.prog.Text)) {
		return nil, fmt.Errorf("trace: boundary pc %d outside the text segment (%d instructions)", b.PC, len(t.prog.Text))
	}
	r := &Reader{
		t:      t,
		text:   t.prog.Text,
		pc:     b.PC,
		step:   b.Step,
		halted: b.Step == t.n,
	}
	if r.halted {
		return r, nil
	}
	ci := 0
	if t.chunkRecs > 0 {
		ci = int(b.Step / t.chunkRecs)
	}
	if ci >= len(t.chunks) {
		return nil, fmt.Errorf("trace: boundary step %d has no chunk (%d chunks of %d records)", b.Step, len(t.chunks), t.chunkRecs)
	}
	if err := r.load(ci, b.Pos); err != nil {
		r.Release()
		return nil, err
	}
	return r, nil
}
