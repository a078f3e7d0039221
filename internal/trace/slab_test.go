package trace

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/emu"
)

// captureBig captures compress.big (the multi-chunk fixture) and fails
// the test if it no longer spans several chunks — the slab tests are
// about chunk-granular sharing and eviction, so a single-chunk trace
// would silently stop exercising them.
func captureBig(t *testing.T) *Trace {
	t.Helper()
	p := mustProgram(t, "compress.big")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Chunks() < 2 {
		t.Fatalf("compress.big packs into %d chunk(s); slab tests need a multi-chunk trace", tr.Chunks())
	}
	return tr
}

// readAll replays tr from boundary b to the end through the streaming
// Reader — the reference stream every slab path must reproduce exactly.
func readAll(t *testing.T, tr *Trace, b Boundary) []emu.Record {
	t.Helper()
	r, err := NewReaderAt(tr, b)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	var recs []emu.Record
	for {
		rec, err := r.Step()
		if err == emu.ErrHalted {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

// TestDecodeChunkMatchesReader pins the tentpole's correctness floor:
// chunk-batched decode produces byte-identical records to the streaming
// Reader, for every chunk including the short final one.
func TestDecodeChunkMatchesReader(t *testing.T) {
	tr := captureBig(t)
	want := readAll(t, tr, tr.startBoundary())
	var got []emu.Record
	for ci := 0; ci < tr.Chunks(); ci++ {
		recs, err := tr.decodeChunk(ci)
		if err != nil {
			t.Fatalf("decodeChunk(%d): %v", ci, err)
		}
		got = append(got, recs...)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records across chunks, reader produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs: slab %+v, reader %+v", i, got[i], want[i])
		}
	}
	if uint64(len(got)) != tr.Steps() {
		t.Fatalf("decoded %d records, trace has %d steps", len(got), tr.Steps())
	}
}

// TestStepBatch pins the batch API's contract: early stop at the halt
// record with a nil error, (0, emu.ErrHalted) afterwards, and exact
// agreement with per-record stepping across arbitrary batch sizes.
func TestStepBatch(t *testing.T) {
	tr := captureBig(t)
	want := readAll(t, tr, tr.startBoundary())

	r := NewReader(tr)
	defer r.Release()
	var got []emu.Record
	buf := make([]emu.Record, 100_003) // deliberately chunk-misaligned
	for {
		n, err := r.StepBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
		if n < len(buf) {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("StepBatch produced %d records, Step produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs: batch %+v, step %+v", i, got[i], want[i])
		}
	}
	if n, err := r.StepBatch(buf); n != 0 || err != emu.ErrHalted {
		t.Fatalf("StepBatch after halt = (%d, %v), want (0, ErrHalted)", n, err)
	}
}

// acquireAll reads tr's full record stream chunk by chunk through the
// cache, holding exactly one slab at a time.
func acquireAll(t *testing.T, c *SlabCache, tr *Trace) []emu.Record {
	t.Helper()
	var recs []emu.Record
	for ci := 0; ci < tr.Chunks(); ci++ {
		s, err := c.Acquire(tr, ci)
		if err != nil {
			t.Fatalf("Acquire(%d): %v", ci, err)
		}
		recs = append(recs, s.recs...)
		c.Release(s)
	}
	return recs
}

// statsOf snapshots c's counters.
func statsOf(c *SlabCache) slabStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// TestSlabCacheEvictionUnderConcurrentGangs pins the cache's refcount
// contract: several goroutines read the same trace through one
// budget-constrained cache, racing acquire/release/evict. Refcount
// pinning means no worker ever observes a reclaimed slab — every worker
// must still see the byte-exact record stream — and the budget holds:
// peak resident slab bytes never exceed it (each worker pins at most one
// slab, and the budget covers one slab per worker). Run with -race.
func TestSlabCacheEvictionUnderConcurrentGangs(t *testing.T) {
	tr := captureBig(t)
	want := readAll(t, tr, tr.startBoundary())

	const workers = 4
	slabBytes := int64(chunkRecords) * slabRecordBytes
	budget := workers * slabBytes
	cache := NewSlabCache(budget)

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { //ce:nondet-ok test-only concurrency: races the cache on purpose; every interleaving must yield the same byte-exact stream
			defer wg.Done()
			pos := 0
			for ci := 0; ci < tr.Chunks(); ci++ {
				s, err := cache.Acquire(tr, ci)
				if err != nil {
					errs[w] = err
					return
				}
				for i := range s.recs {
					if pos >= len(want) || s.recs[i] != want[pos] {
						cache.Release(s)
						errs[w] = errors.New("record stream diverged from reference replay")
						return
					}
					pos++
				}
				cache.Release(s)
			}
			if pos != len(want) {
				errs[w] = errors.New("short replay")
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("gang worker %d: %v", w, err)
		}
	}

	st := statsOf(cache)
	if st.peakBytes > budget {
		t.Fatalf("peak slab bytes %d exceed the budget %d", st.peakBytes, budget)
	}
	if st.evictions == 0 {
		t.Fatalf("no evictions with budget %d over a %d-chunk trace; the test is not exercising eviction", budget, tr.Chunks())
	}
	if st.decodes+st.hits != workers*tr.Chunks() {
		t.Fatalf("decodes %d + hits %d ≠ %d acquisitions", st.decodes, st.hits, workers*tr.Chunks())
	}
	if st.decodes < tr.Chunks() {
		t.Fatalf("decoded %d chunks, trace has %d", st.decodes, tr.Chunks())
	}
	t.Logf("%d workers over %d chunks: %d decodes, %d hits, %d evictions, peak %d/%d bytes",
		workers, tr.Chunks(), st.decodes, st.hits, st.evictions, st.peakBytes, budget)
}

// TestSlabCacheTinyBudget drives the degenerate budget: every release
// immediately evicts, yet replay stays correct and peak stays at one
// slab (a pinned slab is never reclaimed, whatever the budget says).
func TestSlabCacheTinyBudget(t *testing.T) {
	tr := captureBig(t)
	cache := NewSlabCache(1)
	got := acquireAll(t, cache, tr)
	if uint64(len(got)) != tr.Steps() {
		t.Fatalf("read %d records, want %d", len(got), tr.Steps())
	}
	st := statsOf(cache)
	if st.evictions != tr.Chunks() {
		t.Fatalf("tiny budget evicted %d slabs, want one per chunk (%d)", st.evictions, tr.Chunks())
	}
	if st.peakBytes > int64(chunkRecords)*slabRecordBytes {
		t.Fatalf("peak %d bytes exceeds one slab; eviction is not keeping up", st.peakBytes)
	}
	if st.bytes != 0 {
		t.Fatalf("%d resident bytes after every slab was released, want 0", st.bytes)
	}
}

// TestSlabCacheFileBacked checks the cache against a file-backed trace:
// the records equal the streaming Reader's, and under an ample budget a
// second pass is served entirely from resident slabs — one decode per
// chunk, no evictions, peak no larger than the trace's decoded records.
func TestSlabCacheFileBacked(t *testing.T) {
	p := mustProgram(t, "compress.big")
	tr, err := CaptureToDir(p, maxInsts, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	want := readAll(t, tr, tr.startBoundary())
	decoded := int64(tr.Steps()) * slabRecordBytes
	cache := NewSlabCache(decoded) // ample: no eviction pressure
	for pass := 0; pass < 2; pass++ {
		got := acquireAll(t, cache, tr)
		if len(got) != len(want) {
			t.Fatalf("pass %d: cache produced %d records, reader %d", pass, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d record %d differs: cache %+v, reader %+v", pass, i, got[i], want[i])
			}
		}
	}
	st := statsOf(cache)
	if st.decodes != tr.Chunks() || st.hits != tr.Chunks() {
		t.Fatalf("two passes over %d chunks: %d decodes, %d hits; want one decode and one hit per chunk", tr.Chunks(), st.decodes, st.hits)
	}
	if st.evictions != 0 {
		t.Fatalf("ample-budget cache evicted %d slabs, want 0", st.evictions)
	}
	if st.peakBytes > decoded {
		t.Fatalf("peak slab bytes %d exceed the trace's decoded footprint %d", st.peakBytes, decoded)
	}
}
