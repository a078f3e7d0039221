package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/emu"
	"repro/internal/errclass"
)

// FuzzUnmarshal feeds arbitrary bytes to Unmarshal and, when it accepts
// them, replays the trace to its end through a Reader. Neither may
// panic, and every error either returns must classify as corrupt: the
// engine deletes and recaptures a corrupt trace, but would memoize any
// other error as a deterministic simulation failure.
//
// Checksums guard the footer and every chunk, so mutated bytes rarely
// get past them. With reseal set, the target first recomputes the chunk
// and footer checksums the (mutated) footer describes, so mutations
// reach parseFooter and the Reader's decoder as well.
func FuzzUnmarshal(f *testing.F) {
	p := mustProgram(f, "micro.parallel")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		f.Fatal(err)
	}
	data := tr.Marshal()
	f.Add(data, false)
	f.Add(data, true)
	f.Add(data[:len(data)/2], true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = resealed(data)
		}
		tr, err := Unmarshal(data, p)
		if err != nil {
			if !errclass.IsCorrupt(err) {
				t.Fatalf("Unmarshal error not classified corrupt: %v", err)
			}
			return
		}
		replayToEnd(t, tr)
	})
}

// FuzzReadFile is FuzzUnmarshal for the file-backed open: it writes
// arbitrary bytes as p's trace file, opens it with ReadFile and, when
// the file opens, replays the trace to its end through a Reader that
// loads and verifies each chunk from the file. ReadFile parses the
// header, trailer and footer itself (readFrom), so Unmarshal's fuzzing
// does not cover it. Neither step may panic, and every error must
// classify as corrupt. It is seeded from a real CaptureToDir file.
func FuzzReadFile(f *testing.F) {
	p := mustProgram(f, "micro.parallel")
	seedDir := f.TempDir()
	tr, err := CaptureToDir(p, maxInsts, seedDir)
	if err != nil {
		f.Fatal(err)
	}
	tr.Close()
	data, err := os.ReadFile(DiskPath(seedDir, p))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, false)
	f.Add(data, true)
	f.Add(data[:len(data)/2], true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = resealed(data)
		}
		// A directory per input: fuzz workers run in parallel, and
		// ReadFile deletes a file it rejects.
		dir := t.TempDir()
		if err := os.WriteFile(DiskPath(dir, p), data, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := ReadFile(dir, p)
		if err != nil {
			if !errclass.IsCorrupt(err) {
				t.Fatalf("ReadFile error not classified corrupt: %v", err)
			}
			return
		}
		defer tr.Close()
		replayToEnd(t, tr)
	})
}

// replayToEnd streams tr through a Reader until it halts or fails. A
// failure must classify as corrupt, and the Reader may not produce more
// records than the trace claims.
func replayToEnd(t *testing.T, tr *Trace) {
	t.Helper()
	r := NewReader(tr)
	defer r.Release()
	for steps := uint64(0); ; steps++ {
		_, err := r.Step()
		if errors.Is(err, emu.ErrHalted) {
			return
		}
		if err != nil {
			if !errclass.IsCorrupt(err) {
				t.Fatalf("Reader error at step %d not classified corrupt: %v", steps, err)
			}
			return
		}
		if steps > tr.Steps() {
			t.Fatalf("Reader produced more than the trace's %d steps", tr.Steps())
		}
	}
}

// resealed returns a copy of data with the chunk checksums its footer
// lists, and then the footer checksum, recomputed over the bytes present.
// Input too malformed to locate a footer or a chunk is returned with as
// much resealed as could be located.
func resealed(data []byte) []byte {
	if len(data) < fileHeaderLen+trailerLen {
		return data
	}
	data = append([]byte(nil), data...)
	trailer := data[len(data)-trailerLen:]
	footerLen := binary.LittleEndian.Uint64(trailer[:8])
	if footerLen > uint64(len(data)-fileHeaderLen-trailerLen) {
		return data
	}
	footerStart := uint64(len(data)) - trailerLen - footerLen
	footer := data[footerStart : uint64(len(data))-trailerLen]
	// footer: entryPC u32, steps u64, chunkRecs u64, nChunks u32, then
	// nChunks × {packedLen u32, sum [32]byte}.
	if len(footer) >= 24 {
		n := uint64(binary.LittleEndian.Uint32(footer[20:24]))
		pos := uint64(fileHeaderLen)
		for i, off := uint64(0), uint64(24); i < n && off+chunkMetaBytes <= uint64(len(footer)); i, off = i+1, off+chunkMetaBytes {
			end := pos + uint64(binary.LittleEndian.Uint32(footer[off:off+4]))
			if end > footerStart {
				break
			}
			sum := sha256.Sum256(data[pos:end])
			copy(footer[off+4:off+chunkMetaBytes], sum[:])
			pos = end
		}
	}
	sum := sha256.Sum256(footer)
	copy(trailer[8:], sum[:])
	return data
}

// TestUnmarshalRejectsInflatedStepCount pins the boundary-count check
// FuzzUnmarshal motivated: a footer whose step count claims records its
// boundary table does not cover is corrupt, even with every checksum
// resealed. Without the check a Reader would decode far past the
// captured execution.
func TestUnmarshalRejectsInflatedStepCount(t *testing.T) {
	p := mustProgram(t, "micro.parallel")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	data := tr.Marshal()
	footerLen := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	steps := data[uint64(len(data))-trailerLen-footerLen+4:]
	// One more boundary interval keeps the chunk count (the trace has
	// fewer records than a chunk holds) but not the boundary count.
	if tr.Steps()+boundaryInterval > chunkRecords {
		t.Fatalf("micro.parallel has %d steps; the test needs a single-chunk trace", tr.Steps())
	}
	binary.LittleEndian.PutUint64(steps, tr.Steps()+boundaryInterval)
	_, err = Unmarshal(resealed(data), p)
	if !errclass.IsCorrupt(err) {
		t.Fatalf("Unmarshal of an inflated step count = %v, want a corrupt error", err)
	}
}
