package trace

// Chunk-batched decode into a budgeted cache of decoded slabs. Replay
// does not use it — every simulation streams its trace through a private
// Reader, which measured no slower and holds one chunk of packed bytes
// instead of decoded records at ~24 bytes each. SlabCache, Slab and
// Acquire/Release are kept only for the repository benchmark's
// trace.slab_decode_ms probe, which times one Acquire per chunk.
//
// A slab is decoded once (single-flight per chunk) and pinned by a
// refcount while held; unpinned slabs are evicted LRU-first once the
// resident bytes exceed the cache's budget, and pinned slabs are never
// reclaimed.

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/emu"
)

// slabRecordBytes is the in-memory cost of one decoded record, used to
// charge slabs against the cache budget.
const slabRecordBytes = int64(unsafe.Sizeof(emu.Record{}))

// chunkStartBoundary returns the boundary at chunk ci's first record.
// Chunk starts always coincide with stored boundaries (chunkRecords is a
// multiple of boundaryInterval), so this is a table lookup, not a scan.
func (t *Trace) chunkStartBoundary(ci int) (Boundary, error) {
	if ci == 0 {
		return t.startBoundary(), nil
	}
	step := uint64(ci) * t.chunkRecs
	// bounds[k] holds the boundary after (k+1)·boundaryInterval records.
	k := int(step/boundaryInterval) - 1
	if k < 0 || k >= len(t.bounds) || t.bounds[k].Step != step {
		return Boundary{}, fmt.Errorf("trace: chunk %d start (step %d) has no stored boundary: %w", ci, step, ErrCorruptChunk)
	}
	return t.bounds[k], nil
}

// chunkLen returns the number of records in chunk ci.
func (t *Trace) chunkLen(ci int) int {
	end := uint64(ci+1) * t.chunkRecs
	if end > t.n {
		end = t.n
	}
	return int(end - uint64(ci)*t.chunkRecs)
}

// decodeChunk materializes chunk ci's records. The chunk's bytes are
// loaded — and, for file-backed traces, checksum-verified — exactly
// once, and the decode goes through the same Step logic every streaming
// Reader uses, so the records are identical to what per-record replay
// would produce.
func (t *Trace) decodeChunk(ci int) ([]emu.Record, error) {
	if ci < 0 || ci >= len(t.chunks) {
		return nil, fmt.Errorf("trace: decode of chunk %d (trace has %d): %w", ci, len(t.chunks), ErrCorruptChunk)
	}
	b, err := t.chunkStartBoundary(ci)
	if err != nil {
		return nil, err
	}
	r, err := NewReaderAt(t, b)
	if err != nil {
		return nil, err
	}
	defer r.Release()
	n := t.chunkLen(ci)
	dst := make([]emu.Record, n)
	got, err := r.StepBatch(dst)
	if err != nil {
		return nil, err
	}
	if got != n {
		return nil, errCorrupt
	}
	return dst, nil
}

// slabStats are the cache's counters.
type slabStats struct {
	// decodes counts chunks decoded into slabs; hits counts acquisitions
	// served from an already-decoded slab.
	decodes int
	hits    int
	// evictions counts unpinned slabs reclaimed to stay inside the budget.
	evictions int
	// bytes is the current resident slab footprint, which the budget
	// bounds; peakBytes its maximum (after each eviction pass settles).
	bytes     int64
	peakBytes int64
}

// slabKey identifies one chunk of one pooled trace.
type slabKey struct {
	t  *Trace
	ci int
}

// Slab is one decoded chunk held by the cache. The record slice is
// immutable after decode; holders pin it via SlabCache.Acquire and must
// Release it when done. Kept only for perfbench's probe.
type Slab struct {
	recs  []emu.Record
	bytes int64
	key   slabKey
	refs  int
	err   error
	done  chan struct{} // closed when decode finishes (recs/err valid)

	// LRU links, meaningful only while refs == 0 and the decode is done.
	prev, next *Slab
}

// SlabCache shares decoded chunk slabs across concurrent holders under a
// byte budget. Decodes are single-flight per chunk; eviction is LRU over
// unpinned slabs only, so budget pressure can never reclaim a slab a
// holder is still reading. Kept only for perfbench's probe.
type SlabCache struct {
	mu     sync.Mutex
	budget int64
	slabs  map[slabKey]*Slab
	// lruHead/lruTail order unpinned decoded slabs, least recent first.
	lruHead, lruTail *Slab
	stats            slabStats
}

// NewSlabCache returns a cache bounded (evictions permitting — pinned
// slabs are never reclaimed) by budget bytes of decoded records. Kept
// only for perfbench's probe.
func NewSlabCache(budget int64) *SlabCache {
	return &SlabCache{budget: budget, slabs: make(map[slabKey]*Slab)}
}

// lruRemove unlinks s from the eviction list (no-op if not linked).
func (c *SlabCache) lruRemove(s *Slab) {
	if c.lruHead != s && s.prev == nil && s.next == nil {
		return
	}
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		c.lruHead = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		c.lruTail = s.prev
	}
	s.prev, s.next = nil, nil
}

// lruPush appends s as the most recently released slab.
func (c *SlabCache) lruPush(s *Slab) {
	s.prev, s.next = c.lruTail, nil
	if c.lruTail != nil {
		c.lruTail.next = s
	} else {
		c.lruHead = s
	}
	c.lruTail = s
}

// evictLocked reclaims least-recently-used unpinned slabs until the
// resident footprint fits the budget (or nothing evictable remains).
func (c *SlabCache) evictLocked() {
	for c.stats.bytes > c.budget && c.lruHead != nil {
		victim := c.lruHead
		c.lruRemove(victim)
		delete(c.slabs, victim.key)
		c.stats.bytes -= victim.bytes
		c.stats.evictions++
		victim.recs = nil
	}
	if c.stats.bytes > c.stats.peakBytes {
		c.stats.peakBytes = c.stats.bytes
	}
}

// Acquire returns chunk ci of t decoded, pinned against eviction until
// the matching Release. The first caller decodes (checksum verified
// once); concurrent callers for the same chunk wait on that decode
// instead of duplicating it. Kept only for perfbench's probe.
func (c *SlabCache) Acquire(t *Trace, ci int) (*Slab, error) {
	key := slabKey{t, ci}
	c.mu.Lock()
	if s, ok := c.slabs[key]; ok {
		s.refs++
		c.lruRemove(s)
		c.stats.hits++
		c.mu.Unlock()
		<-s.done
		if s.err != nil {
			// Decode failed after we joined; drop our pin (the decoder
			// already removed the entry from the map).
			c.Release(s)
			return nil, s.err
		}
		return s, nil
	}
	s := &Slab{key: key, refs: 1, done: make(chan struct{})}
	c.slabs[key] = s
	c.mu.Unlock()

	recs, err := t.decodeChunk(ci)

	c.mu.Lock()
	if err != nil {
		s.err = err
		delete(c.slabs, key)
		close(s.done)
		c.mu.Unlock()
		return nil, err
	}
	s.recs = recs
	s.bytes = int64(len(recs)) * slabRecordBytes
	c.stats.decodes++
	c.stats.bytes += s.bytes
	c.evictLocked()
	close(s.done)
	c.mu.Unlock()
	return s, nil
}

// Release drops one pin on s. When the last pin drops the slab becomes
// evictable (most-recently-used position); it stays resident until
// budget pressure actually reclaims it, so the next holder's Acquire is
// a hit. Kept only for perfbench's probe.
func (c *SlabCache) Release(s *Slab) {
	if s == nil {
		return
	}
	c.mu.Lock()
	s.refs--
	if s.refs == 0 && s.err == nil && c.slabs[s.key] == s {
		c.lruPush(s)
		c.evictLocked()
	}
	c.mu.Unlock()
}
