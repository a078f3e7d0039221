package trace

// Phase clustering (SimPoint-style): group a trace's segments by the
// similarity of their basic-block vectors, so a sampler can time one
// representative segment per phase and weight it by the phase's share
// of the execution, instead of sampling segments on a blind stride.
// The clustering must be deterministic — same trace, same phases, every
// process, every run — so the run cache stays content-addressed and CI
// byte-compares hold; seeding uses farthest-point selection with
// lowest-index tie-breaking, no randomness anywhere.

// Phase is one cluster of segments with similar execution fingerprints.
type Phase struct {
	// Rep is the representative segment's index (the member closest to
	// the cluster centroid).
	Rep int
	// Members are the segment indices assigned to this phase, ascending.
	Members []int
	// Weight is the phase's share of the total weight (e.g. the fraction
	// of all dynamic instructions its members cover). Weights over all
	// phases sum to 1.
	Weight float64
}

// PhasePartition clusters the vectors (one per segment, typically
// Trace.SegmentBBV output) into at most k phases by weighted k-means.
// weights[i] is segment i's mass — its dynamic instruction count — used
// both for centroid updates and phase weights. Fewer than k distinct
// behaviors yield fewer phases (empty clusters are dropped), never an
// error. The result is deterministic in its inputs.
func PhasePartition(vecs [][]float64, weights []float64, k int) []Phase {
	n := len(vecs)
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	dim := len(vecs[0])
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		total = 1
	}

	// Farthest-point seeding: start from the heaviest segment, then
	// repeatedly add the vector farthest from its nearest center.
	// Deterministic, and a good spread for k-means to refine.
	centers := make([][]float64, 0, k)
	seed := 0
	for i := 1; i < n; i++ {
		if weights[i] > weights[seed] {
			seed = i
		}
	}
	centers = append(centers, append([]float64(nil), vecs[seed]...))
	nearest := make([]float64, n)
	for i := range nearest {
		nearest[i] = sqDist(vecs[i], centers[0])
	}
	for len(centers) < k {
		far, farD := -1, 0.0
		for i := range vecs {
			if nearest[i] > farD {
				far, farD = i, nearest[i]
			}
		}
		if far < 0 || farD == 0 {
			break // fewer distinct vectors than k
		}
		centers = append(centers, append([]float64(nil), vecs[far]...))
		for i := range nearest {
			if d := sqDist(vecs[i], centers[len(centers)-1]); d < nearest[i] {
				nearest[i] = d
			}
		}
	}
	k = len(centers)

	assign := make([]int, n)
	const maxIters = 50
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, sqDist(v, centers[0])
			for c := 1; c < k; c++ {
				if d := sqDist(v, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Weighted centroid update; empty clusters keep their center (and
		// are dropped at the end if still empty).
		for c := range centers {
			var mass float64
			sum := make([]float64, dim)
			for i, v := range vecs {
				if assign[i] != c {
					continue
				}
				w := weights[i]
				if w <= 0 {
					w = 1
				}
				mass += w
				for d := range v {
					sum[d] += w * v[d]
				}
			}
			if mass > 0 {
				for d := range sum {
					sum[d] /= mass
				}
				centers[c] = sum
			}
		}
	}

	phases := make([]Phase, 0, k)
	for c := 0; c < k; c++ {
		var ph Phase
		var mass float64
		rep, repD := -1, 0.0
		for i := range vecs {
			if assign[i] != c {
				continue
			}
			ph.Members = append(ph.Members, i)
			mass += weights[i]
			if d := sqDist(vecs[i], centers[c]); rep < 0 || d < repD {
				rep, repD = i, d
			}
		}
		if rep < 0 {
			continue // empty cluster
		}
		ph.Rep = rep
		ph.Weight = mass / total
		phases = append(phases, ph)
	}
	return phases
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SegmentPhases clusters segs (cut from this trace) into at most k
// phases by their basic-block vectors, weighting each segment by its
// dynamic instruction count. Returns nil if the trace carries no BBV
// profile (every capture with at least one record has one); callers
// then time every segment exactly.
func (t *Trace) SegmentPhases(segs []Segment, k int) []Phase {
	if !t.HasBBV() || len(segs) == 0 {
		return nil
	}
	vecs := make([][]float64, len(segs))
	weights := make([]float64, len(segs))
	for i, s := range segs {
		vecs[i] = t.SegmentBBV(s)
		weights[i] = float64(s.Steps())
	}
	return PhasePartition(vecs, weights, k)
}
