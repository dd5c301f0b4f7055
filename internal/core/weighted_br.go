package core

import (
	"fmt"

	"repro/internal/graph"
)

// Exact best response in the weighted SUM game of Section 6. The folding
// argument needs only single-swap (weak equilibrium) stability, but the
// full best response rounds out the weighted model: it is used by tests
// to confirm that folding cannot create *any* improving deviation on the
// graphs the proofs manipulate, a strictly stronger check than
// WeakDeviation.

// WeightedBestResponse enumerates all C(alive-1, outdeg(u)) strategies of
// u over alive vertices and returns a minimiser with ties broken toward
// the current strategy. maxCandidates guards the enumeration (0 = none).
//
// Candidates are evaluated on the distance-cache deviation engine
// (Deviator.EnsureCache): dist_{G-u} is materialised once and each
// strategy costs one O(n) weighted min-merge over the cached rows —
// folded (weight-0) vertices contribute nothing — instead of a graph
// rebuild plus BFS per candidate. When the cache exceeds
// DefaultCacheBudget the historical rebuild path runs instead; both
// paths are bit-identical (weighted_br_test.go pins the equivalence).
func (wg *WeightedGraph) WeightedBestResponse(u int, maxCandidates int64) (BestResponse, error) {
	if !wg.Alive(u) {
		return BestResponse{}, fmt.Errorf("core: vertex %d is folded away", u)
	}
	b := wg.D.OutDegree(u)
	var targets []int
	for v := 0; v < wg.D.N(); v++ {
		if v != u && wg.Alive(v) {
			targets = append(targets, v)
		}
	}
	space := StrategySpaceSize(len(targets)+1, b)
	if maxCandidates > 0 && space > maxCandidates {
		return BestResponse{}, fmt.Errorf("core: weighted strategy space %d exceeds %d", space, maxCandidates)
	}
	cur := append([]int(nil), wg.D.Out(u)...)
	dv := NewDeviator(GameOf(wg.D, SUM), wg.D, u)
	defer dv.Release()
	cached := dv.EnsureCache(DefaultCacheBudget)

	res := BestResponse{Strategy: cur}
	if cached {
		res.Current = dv.weightedEval(cur, wg.W)
	} else {
		res.Current = wg.Cost(u)
	}
	res.Cost = res.Current

	// Over the cache the enumeration keeps a stack of partial min-vectors
	// over the combination prefix (exactly like the exact responder), so
	// a leaf costs one fused O(n) weighted pass instead of re-merging all
	// b rows.
	n := wg.D.N()
	var vecs [][]int32
	var w0 []int64
	if cached {
		w0 = append([]int64(nil), wg.W...)
		w0[u] = 0 // the source never pays for itself; vec[u] is InfDist
		vecs = make([][]int32, b)
		if b > 0 {
			vecs[0] = dv.inMin
			for k := 1; k < b; k++ {
				vecs[k] = getInt32(n)
				defer putInt32(vecs[k])
			}
		}
	}
	cinf := int64(n) * int64(n)

	comb := make([]int, b)
	trial := make([]int, b)
	var rec func(start, at int)
	rec = func(start, at int) {
		if at == b {
			for i, idx := range comb {
				trial[i] = targets[idx]
			}
			var c int64
			switch {
			case cached && b == 0:
				c = graph.WeightedSumMerge(dv.inMin, nil, w0, cinf)
			case cached:
				last := trial[b-1]
				c = graph.WeightedSumMerge(vecs[b-1], dv.rows[last*n:(last+1)*n], w0, cinf)
			default:
				wg.D.SetOut(u, trial)
				c = wg.Cost(u)
			}
			res.Explored++
			if c < res.Cost {
				res.Cost = c
				res.Strategy = append(res.Strategy[:0:0], trial...)
			}
			return
		}
		for i := start; i <= len(targets)-(b-at); i++ {
			comb[at] = i
			if cached && at < b-1 {
				copy(vecs[at+1], vecs[at])
				v := targets[i]
				graph.MinInto(vecs[at+1], dv.rows[v*n:(v+1)*n])
			}
			rec(i+1, at+1)
		}
	}
	rec(0, 0)
	if !cached {
		wg.D.SetOut(u, cur) // restore
	}
	return res, nil
}

// weightedEval is the weighted-SUM analogue of evalCached: the cost u
// would incur playing strategy s, summed over positive-weight vertices
// with unreachable ones costed at C_inf = n^2 (matching
// WeightedGraph.Cost exactly). Shortest paths from u never revisit u,
// so every distance is 1 + the min over the anchors s ∪ in(u) of the
// cached G-u rows.
func (dv *Deviator) weightedEval(strategy []int, w []int64) int64 {
	n := dv.game.N()
	cinf := int64(n) * int64(n)
	rows, inMin := dv.rows, dv.inMin
	var c int64
	for x := 0; x < n; x++ {
		if x == dv.u || w[x] == 0 {
			continue
		}
		m := inMin[x]
		for _, v := range strategy {
			if r := rows[v*n+x]; r < m {
				m = r
			}
		}
		if m < graph.InfDist {
			c += w[x] * int64(m+1)
		} else {
			c += w[x] * cinf
		}
	}
	return c
}

// WeightedNashDeviation searches all alive vertices for an improving
// full-strategy deviation, returning nil if the weighted graph is a Nash
// equilibrium of the weighted SUM game restricted to alive vertices.
func (wg *WeightedGraph) WeightedNashDeviation(maxCandidates int64) (*Deviation, error) {
	for u := 0; u < wg.D.N(); u++ {
		if !wg.Alive(u) || wg.D.OutDegree(u) == 0 {
			continue
		}
		br, err := wg.WeightedBestResponse(u, maxCandidates)
		if err != nil {
			return nil, err
		}
		if br.Improves() {
			return &Deviation{Vertex: u, NewStrategy: br.Strategy, OldCost: br.Current, NewCost: br.Cost}, nil
		}
	}
	return nil, nil
}

// UnweightedEquivalent checks that with unit weights and no folds, the
// weighted best response of u agrees in cost with the unweighted SUM
// ExactBestResponse — the consistency bridge between the Section 6 model
// and the main game. It returns both costs.
func (wg *WeightedGraph) UnweightedEquivalent(u int, d *graph.Digraph) (weighted, plain int64, err error) {
	br, err := wg.WeightedBestResponse(u, 0)
	if err != nil {
		return 0, 0, err
	}
	g := GameOf(d, SUM)
	pbr, err := g.ExactBestResponse(d, u, 0)
	if err != nil {
		return 0, 0, err
	}
	return br.Cost, pbr.Cost, nil
}
