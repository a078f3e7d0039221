// Package core implements the paper's primary contribution and its design
// space: the dependence-based instruction scheduler of Section 5 (chains of
// dependent instructions steered into in-order FIFOs), the conventional
// central issue window it is compared against, and the Section 5.6
// alternatives (window-per-cluster dispatch steering, execution-driven
// steering, random steering).
//
// A Scheduler owns the buffering between dispatch and issue and decides
// candidate order; the timing pipeline (package pipeline) owns operand
// readiness, functional units and ports, and calls back into the scheduler
// each cycle to select instructions.
//
// Everything here is bit-for-bit deterministic: the "random" steering and
// selection policies draw from fixed-seed LCG streams, never the host.
//
//ce:deterministic
package core

import (
	"repro/internal/emu"
	"repro/internal/isa"
)

// Uop is one in-flight instruction. The scheduler reads the identity and
// dependence fields; the timing fields are owned by the pipeline.
type Uop struct {
	// Seq is the global program-order sequence number.
	Seq uint64
	// Rec is the dynamic instruction (with resolved outcome) being timed.
	Rec emu.Record
	// Class caches isa.ClassOf(Rec.Inst.Op).
	Class isa.Class

	// PhysSrcs and PhysDest are the renamed operands (rename.None if
	// absent). OldDest is freed when the uop commits.
	PhysSrcs []int16
	PhysDest int16
	OldDest  int16

	// Cluster is the execution cluster, assigned at dispatch for
	// dispatch-driven steering or left as -1 for execution-driven
	// steering (the pipeline assigns it at issue).
	Cluster int
	// FIFO is the index of the FIFO holding the uop, or -1.
	FIFO int

	// Timing state, owned by the pipeline.
	FetchCycle    int64
	DispatchCycle int64
	IssueCycle    int64
	CompleteCycle int64
	Issued        bool
	Completed     bool
	// Mispredicted marks a conditional branch whose predicted direction
	// was wrong; fetch stalls (or speculates down the wrong path) until
	// it resolves.
	Mispredicted bool
	// Speculative marks a wrong-path instruction fetched past an
	// unresolved misprediction; it is squashed at resolution and never
	// commits.
	Speculative bool
	// UsedInterClusterBypass marks that at least one operand arrived over
	// an inter-cluster bypass path (Figure 17, bottom).
	UsedInterClusterBypass bool

	// Event-driven wakeup bookkeeping (see wakeboard.go), written by the
	// pipeline at dispatch and maintained by the scheduler: WakePending
	// counts sources whose producer has not issued yet, WakeMask marks
	// their indices in PhysSrcs, and WakeCycle is a lower bound on the
	// first cycle every operand could be consumable in some cluster.
	WakePending int8
	WakeMask    uint8
	WakeCycle   int64
}

// Scheduler buffers renamed instructions until they issue.
//
// The pipeline calls Dispatch in program order; false means a structural
// stall (window full, no free FIFO, FIFO full) and the pipeline retries
// next cycle. Each cycle the pipeline calls Select with the current cycle
// and a tryIssue callback; the scheduler offers candidates in
// selection-priority order (the paper's position/age-based policy) and
// removes a candidate when tryIssue accepts it. tryIssue is only called
// for uops the scheduler is prepared to issue, and a true return means
// the uop has issued.
//
// Wakeup and NextWake support the event-driven issue loop: the pipeline
// reports each issued producer via Wakeup, and NextWake lets it skip
// cycles on which Select provably cannot offer a candidate.
type Scheduler interface {
	Name() string
	// Clusters reports how many execution clusters the scheduler feeds.
	Clusters() int
	Dispatch(u *Uop) bool
	Select(now int64, tryIssue func(u *Uop) bool)
	// Wakeup notes that the producer of physical register p has issued
	// and its result becomes consumable — in the nearest cluster — at
	// readyCycle. The pipeline calls it once per issued uop with a
	// destination, before that uop's consumers can issue.
	Wakeup(p int16, readyCycle int64)
	// NextWake returns a lower bound on the next cycle Select may offer a
	// candidate: WakeNow when a candidate is already awake, the earliest
	// pending wake cycle otherwise, and NeverWake when empty.
	NextWake() int64
	// Squash removes every buffered uop with Seq > afterSeq (wrong-path
	// instructions being flushed at branch resolution).
	Squash(afterSeq uint64)
	// Len reports current occupancy.
	Len() int
	// Capacity reports total buffering capacity.
	Capacity() int
}

// CentralWindow is the conventional flexible issue window: any entry whose
// operands are ready may issue, selected oldest first. With AssignAtIssue
// it models the Section 5.6.1 organization: a single window feeding
// multiple clusters, with the cluster chosen when execution begins.
type CentralWindow struct {
	size          int
	clusters      int
	assignAtIssue bool
	randomSelect  bool
	rng           int32
	occupancy     int

	// board drives event-driven wakeup for the age-ordered selection
	// policies. Random selection must visit every entry each cycle anyway
	// (its rng stream advances per buffered entry), so it keeps the
	// entries scan.
	board   wakeBoard
	entries []*Uop
	// perm and issued are random selection's per-cycle scratch, reused
	// so its Select allocates nothing in steady state: perm is the
	// shuffled visiting order over entries' indices, issued marks the
	// indices that issued this cycle (all false between cycles).
	perm   []int
	issued []bool
}

// NewCentralWindow builds a single-cluster window of the given size; every
// instruction is assigned to cluster 0 at dispatch.
func NewCentralWindow(size int) *CentralWindow {
	return &CentralWindow{size: size, clusters: 1}
}

// NewExecSteeredWindow builds the Section 5.6.1 organization: one central
// window of the given size feeding `clusters` clusters, with cluster
// assignment made by the pipeline at issue time (execution-driven
// steering).
func NewExecSteeredWindow(size, clusters int) *CentralWindow {
	return &CentralWindow{size: size, clusters: clusters, assignAtIssue: true}
}

// NewRandomSelectWindow builds a single-cluster window whose selection
// policy is *random* rather than position-based. Butler & Patt (cited in
// Section 4.3) found overall performance largely independent of the
// selection policy; this scheduler exists to ablate that claim.
func NewRandomSelectWindow(size int) *CentralWindow {
	return &CentralWindow{size: size, clusters: 1, randomSelect: true, rng: 424243}
}

// Name implements Scheduler.
func (w *CentralWindow) Name() string {
	switch {
	case w.assignAtIssue:
		return "central-window-exec-steer"
	case w.randomSelect:
		return "central-window-random-select"
	default:
		return "central-window"
	}
}

// Clusters implements Scheduler.
func (w *CentralWindow) Clusters() int { return w.clusters }

// Len implements Scheduler.
func (w *CentralWindow) Len() int { return w.occupancy }

// Capacity implements Scheduler.
func (w *CentralWindow) Capacity() int { return w.size }

// Dispatch implements Scheduler.
//
//ce:hot
func (w *CentralWindow) Dispatch(u *Uop) bool {
	if w.occupancy >= w.size {
		return false
	}
	if w.assignAtIssue {
		u.Cluster = -1
	} else {
		u.Cluster = 0
	}
	if w.randomSelect {
		w.entries = append(w.entries, u)
	} else {
		w.board.add(u)
	}
	w.occupancy++
	return true
}

// Select implements Scheduler. Awake candidates are offered in dispatch
// (age) order, which is the paper's position-based selection policy; with
// random selection every entry is a candidate and the order is shuffled
// deterministically each cycle.
//
//ce:hot
func (w *CentralWindow) Select(now int64, tryIssue func(u *Uop) bool) {
	if !w.randomSelect {
		w.board.promote(now)
		ready := w.board.ready
		kept := ready[:0]
		for _, u := range ready {
			if tryIssue(u) {
				w.occupancy--
			} else {
				kept = append(kept, u)
			}
		}
		for i := len(kept); i < len(ready); i++ {
			ready[i] = nil
		}
		w.board.ready = kept
		return
	}
	// Shuffling indices performs the same swaps, and so consumes the same
	// rng stream, as shuffling the entries themselves.
	n := len(w.entries)
	perm := w.perm[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, i) //ce:alloc-ok grows to the window size once, then reused
	}
	w.perm = perm
	for i := n - 1; i > 0; i-- {
		w.rng = w.rng*1103515245 + 12345
		j := int(uint32(w.rng)>>16) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if cap(w.issued) < n {
		w.issued = make([]bool, n) //ce:alloc-ok grows to the window size once, then reused
	}
	issued := w.issued[:n]
	issuedAny := false
	for _, i := range perm {
		if tryIssue(w.entries[i]) {
			issued[i] = true
			issuedAny = true
		}
	}
	if !issuedAny {
		return
	}
	kept := w.entries[:0]
	for i, u := range w.entries {
		if issued[i] {
			issued[i] = false
			continue
		}
		kept = append(kept, u)
	}
	for i := len(kept); i < len(w.entries); i++ {
		w.entries[i] = nil
	}
	w.entries = kept
	w.occupancy = len(kept)
}

// Wakeup implements Scheduler.
//
//ce:hot
func (w *CentralWindow) Wakeup(p int16, readyCycle int64) {
	if !w.randomSelect {
		w.board.wakeup(p, readyCycle)
	}
}

// NextWake implements Scheduler. Random selection reshuffles — and
// advances its rng stream — every cycle the window is occupied, so its
// Select must run every such cycle.
//
//ce:hot
func (w *CentralWindow) NextWake() int64 {
	if w.randomSelect {
		if w.occupancy > 0 {
			return WakeNow
		}
		return NeverWake
	}
	return w.board.nextWake()
}

// Squash implements Scheduler.
func (w *CentralWindow) Squash(afterSeq uint64) {
	if !w.randomSelect {
		w.occupancy -= w.board.squash(afterSeq)
		return
	}
	kept := w.entries[:0]
	for _, u := range w.entries {
		if u.Seq <= afterSeq {
			kept = append(kept, u)
		}
	}
	for i := len(kept); i < len(w.entries); i++ {
		w.entries[i] = nil
	}
	w.entries = kept
	w.occupancy = len(kept)
}

// SteerPolicy selects how a FIFOBank routes instructions.
type SteerPolicy int

const (
	// SteerDependence is the Section 5.1 heuristic: follow the FIFO of an
	// outstanding source operand when the source is the FIFO tail,
	// otherwise take a new FIFO.
	SteerDependence SteerPolicy = iota
	// SteerRandom routes to a random cluster's buffering, falling back to
	// the other cluster if full (Section 5.6.3).
	SteerRandom
)

// fifo is one in-order queue.
type fifo struct {
	cluster int
	q       []*Uop
}

// FIFOBank is the dependence-based scheduler of Section 5 and its
// windowed variants. Instructions are steered into per-cluster FIFOs at
// dispatch. With AnySlot false only FIFO heads are issue candidates (the
// paper's FIFO microarchitecture); with AnySlot true every entry is a
// candidate and the FIFO structure only shapes dispatch (the "window
// modeled as FIFOs" dispatch heuristic of Section 5.6.2).
type FIFOBank struct {
	name     string
	fifos    []fifo
	depth    int
	clusters int
	anySlot  bool
	policy   SteerPolicy

	// freeFIFOs holds indices of empty FIFOs, one pool per cluster; cur
	// is the cluster whose pool currently serves new-FIFO requests
	// (Section 5.5's modified free-list policy).
	freeFIFOs [][]int
	cur       int

	// producer maps a physical register to the uop that writes it while
	// that uop still occupies a FIFO (the SRC_FIFO table of Section 5,
	// kept in terms of physical registers since steering runs after
	// rename). Indexed directly by register number and grown on demand,
	// like wakeBoard.waiters: steering consults it for every source of
	// every dispatched instruction, so it must be a plain load, not a map
	// probe.
	producer []*Uop

	occupancy int
	rng       int32

	// board drives event-driven wakeup; headSnap is the per-FIFO head
	// snapshot Select gates candidates on (reused across cycles).
	board    wakeBoard
	headSnap []*Uop

	// StallNoFIFO counts dispatch stalls due to steering (full target
	// FIFO and no free FIFO).
	StallNoFIFO uint64
}

// FIFOBankConfig sizes a FIFOBank.
type FIFOBankConfig struct {
	Name            string //ce:timing-neutral
	Clusters        int
	FIFOsPerCluster int
	Depth           int
	AnySlot         bool
	Policy          SteerPolicy
}

// NewFIFOBank builds the scheduler. The paper's configurations:
//
//   - Figure 13 dependence-based: 1 cluster × 8 FIFOs × 8 deep, heads only.
//   - Figure 15 clustered: 2 clusters × 4 FIFOs × 8 deep, heads only.
//   - Figure 17 "two windows, dispatch steering": 2 clusters × 8 FIFOs × 4
//     deep, AnySlot (each 32-entry window treated as 8 conceptual FIFOs).
//   - Figure 17 "two windows, random steering": 2 clusters × 1 FIFO × 32
//     deep, AnySlot, SteerRandom.
func NewFIFOBank(cfg FIFOBankConfig) *FIFOBank {
	b := &FIFOBank{
		name:     cfg.Name,
		depth:    cfg.Depth,
		clusters: cfg.Clusters,
		anySlot:  cfg.AnySlot,
		policy:   cfg.Policy,
		rng:      10007,
	}
	b.freeFIFOs = make([][]int, cfg.Clusters)
	for c := 0; c < cfg.Clusters; c++ {
		for i := 0; i < cfg.FIFOsPerCluster; i++ {
			b.fifos = append(b.fifos, fifo{cluster: c})
			b.freeFIFOs[c] = append(b.freeFIFOs[c], len(b.fifos)-1)
		}
	}
	return b
}

// Name implements Scheduler.
func (b *FIFOBank) Name() string { return b.name }

// Clusters implements Scheduler.
func (b *FIFOBank) Clusters() int { return b.clusters }

// Len implements Scheduler.
func (b *FIFOBank) Len() int { return b.occupancy }

// Capacity implements Scheduler.
func (b *FIFOBank) Capacity() int { return len(b.fifos) * b.depth }

// Dispatch implements Scheduler.
//
//ce:hot
func (b *FIFOBank) Dispatch(u *Uop) bool {
	var fi int
	switch b.policy {
	case SteerRandom:
		fi = b.steerRandom()
	default:
		fi = b.steerDependence(u)
	}
	if fi < 0 {
		b.StallNoFIFO++
		return false
	}
	f := &b.fifos[fi]
	u.FIFO = fi
	u.Cluster = f.cluster
	f.q = append(f.q, u)
	b.occupancy++
	if u.PhysDest >= 0 {
		for int(u.PhysDest) >= len(b.producer) {
			b.producer = append(b.producer, nil)
		}
		b.producer[u.PhysDest] = u
	}
	b.board.add(u)
	return true
}

// steerDependence implements the Section 5.1 heuristic, generalized over
// clusters with the Section 5.5 free-list policy.
//
//ce:hot
func (b *FIFOBank) steerDependence(u *Uop) int {
	// Try each outstanding source operand in order: if its producer is
	// the tail of its FIFO and the FIFO has room, follow it.
	for _, ps := range u.PhysSrcs {
		if ps < 0 || int(ps) >= len(b.producer) {
			continue
		}
		p := b.producer[ps]
		if p == nil {
			continue // operand already computed or producer issued
		}
		f := &b.fifos[p.FIFO]
		if len(f.q) > 0 && f.q[len(f.q)-1] == p && len(f.q) < b.depth {
			return p.FIFO
		}
	}
	// Fall back to a new (empty) FIFO from the free pools.
	return b.allocFIFO()
}

// allocFIFO takes an empty FIFO, preferring the current cluster's pool and
// switching the current cluster when its pool is exhausted (Section 5.5).
//
//ce:hot
func (b *FIFOBank) allocFIFO() int {
	for try := 0; try < b.clusters; try++ {
		pool := &b.freeFIFOs[b.cur]
		if len(*pool) > 0 {
			fi := (*pool)[len(*pool)-1]
			*pool = (*pool)[:len(*pool)-1]
			return fi
		}
		b.cur = (b.cur + 1) % b.clusters
	}
	return -1
}

// steerRandom picks a random cluster and falls back to the other(s) when
// its buffering is full (Section 5.6.3).
//
//ce:hot
func (b *FIFOBank) steerRandom() int {
	b.rng = b.rng*1103515245 + 12345
	start := int(uint32(b.rng)>>16) % b.clusters
	for try := 0; try < b.clusters; try++ {
		c := (start + try) % b.clusters
		for i := range b.fifos {
			if b.fifos[i].cluster == c && len(b.fifos[i].q) < b.depth {
				return i
			}
		}
	}
	return -1
}

// Select implements Scheduler: candidates are FIFO heads (or, with
// AnySlot, all entries), offered oldest first. The awake candidates come
// from the wake board in Seq order; without AnySlot they are additionally
// gated on a start-of-cycle head snapshot, so an entry exposed by its
// head issuing this same cycle must wait for the next — exactly the
// head-only semantics of the full-scan implementation.
//
//ce:hot
func (b *FIFOBank) Select(now int64, tryIssue func(u *Uop) bool) {
	b.board.promote(now)
	if len(b.board.ready) == 0 {
		return
	}
	if !b.anySlot {
		for len(b.headSnap) < len(b.fifos) {
			b.headSnap = append(b.headSnap, nil)
		}
		// Snapshot heads before any candidate issues, but only for the
		// FIFOs that actually hold a ready candidate — the gate below never
		// consults any other entry, and ready is usually much smaller than
		// the bank. Duplicate refreshes are harmless (all pre-issue).
		for _, u := range b.board.ready {
			if q := b.fifos[u.FIFO].q; len(q) > 0 {
				b.headSnap[u.FIFO] = q[0]
			} else {
				b.headSnap[u.FIFO] = nil
			}
		}
	}
	ready := b.board.ready
	kept := ready[:0]
	for _, u := range ready {
		if !b.anySlot && b.headSnap[u.FIFO] != u {
			kept = append(kept, u)
			continue
		}
		if tryIssue(u) {
			b.remove(u)
		} else {
			kept = append(kept, u)
		}
	}
	for i := len(kept); i < len(ready); i++ {
		ready[i] = nil
	}
	b.board.ready = kept
}

// Wakeup implements Scheduler.
//
//ce:hot
func (b *FIFOBank) Wakeup(p int16, readyCycle int64) {
	b.board.wakeup(p, readyCycle)
}

// NextWake implements Scheduler. The bound ignores head-only gating (a
// non-head uop may be awake but unofferable); that only makes the bound
// conservative, never late, because a blocked awake uop implies an awake
// head in the same FIFO with an equal-or-earlier wake cycle is still
// unissued — and Select runs while any candidate is awake.
//
//ce:hot
func (b *FIFOBank) NextWake() int64 {
	return b.board.nextWake()
}

// remove deletes an issued uop from its FIFO and recycles empty FIFOs.
//
//ce:hot
func (b *FIFOBank) remove(u *Uop) {
	f := &b.fifos[u.FIFO]
	for i, x := range f.q {
		if x == u {
			copy(f.q[i:], f.q[i+1:])
			f.q[len(f.q)-1] = nil
			f.q = f.q[:len(f.q)-1]
			break
		}
	}
	b.occupancy--
	if u.PhysDest >= 0 && b.producer[u.PhysDest] == u {
		b.producer[u.PhysDest] = nil
	}
	if len(f.q) == 0 && b.policy != SteerRandom {
		b.freeFIFOs[f.cluster] = append(b.freeFIFOs[f.cluster], u.FIFO)
	}
}

// Squash implements Scheduler: wrong-path uops are the youngest, so they
// sit at FIFO tails; they are popped, the producer table entries they
// installed removed, and emptied FIFOs recycled.
func (b *FIFOBank) Squash(afterSeq uint64) {
	for i := range b.fifos {
		f := &b.fifos[i]
		had := len(f.q)
		for len(f.q) > 0 {
			tail := f.q[len(f.q)-1]
			if tail.Seq <= afterSeq {
				break
			}
			f.q[len(f.q)-1] = nil
			f.q = f.q[:len(f.q)-1]
			b.occupancy--
			if tail.PhysDest >= 0 && b.producer[tail.PhysDest] == tail {
				b.producer[tail.PhysDest] = nil
			}
			tail.FIFO = -1
		}
		if had > 0 && len(f.q) == 0 && b.policy != SteerRandom {
			b.freeFIFOs[f.cluster] = append(b.freeFIFOs[f.cluster], i)
		}
	}
	b.board.squash(afterSeq)
}

// FIFOOccupancy returns the per-FIFO queue lengths (diagnostics and the
// steering example program).
func (b *FIFOBank) FIFOOccupancy() []int {
	out := make([]int, len(b.fifos))
	for i := range b.fifos {
		out[i] = len(b.fifos[i].q)
	}
	return out
}

// FIFOContents returns the sequence numbers queued in each FIFO, head
// first (diagnostics and the steering example program).
func (b *FIFOBank) FIFOContents() [][]uint64 {
	out := make([][]uint64, len(b.fifos))
	for i := range b.fifos {
		for _, u := range b.fifos[i].q {
			out[i] = append(out[i], u.Seq)
		}
	}
	return out
}
