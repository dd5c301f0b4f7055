package core

import "repro/internal/graph"

// Weighted cache mode of the deviation engine. A Deviator built by
// NewWeightedDeviator evaluates arc-weighted (graph.Weights) deviation
// costs; EnsureCache then fills the rows with offset-adjusted weighted
// distances (graph/weighted.go) so every unweighted kernel — the fused
// min-merge evaluation, the greedy/swap/exact scans, colMin and the
// suffix bounds — runs on them unchanged. This file holds the pieces
// the unweighted engine has no counterpart for: the weights-generation
// resync (weight mutations are a second mutation stream beside the edge
// journal), the edge-delta weight lookup, and the Dijkstra fallback for
// instances whose weighted distances don't fit the int32 cache.

// syncWeights brings the cached rows from the weights generation they
// were filled at to the live one, before any edge delta is applied (the
// weighted row repair reads weights at current values, so weight deltas
// must land first, against the topology the rows still describe).
// Per netted weight change:
//
//   - a u-incident pair {u,x} only moves row x's offset: every finite
//     entry shifts by the weight delta (ShiftRow) and woff[x] follows.
//   - a pair that is an edge of G-u reweights an arc: expressed as
//     removed(old weight) + added(new weight) through the weighted row
//     repair, exactly like a topology change.
//   - any other pair is latent — no cached distance depends on it.
//
// A generation gap beyond the weights change log forces a full weighted
// refill. Either way the result is bit-identical to refilling at the
// live generation, which the property suite pins.
func (dv *Deviator) syncWeights() {
	if dv.wts == nil || dv.rows == nil || dv.wgen == dv.wts.Gen() {
		return
	}
	changes, ok := dv.wts.ChangesSince(dv.wgen)
	dv.wgen = dv.wts.Gen()
	if !ok {
		dv.refillWeighted()
		return
	}
	if len(changes) == 0 {
		return
	}
	n := dv.game.N()
	var st graph.RepairStats
	var removed, added []graph.WEdge
	for _, ch := range changes {
		a, b := int(ch.U), int(ch.V)
		if a == dv.u || b == dv.u {
			// Offset-only change: anchors never route through u, so row x's
			// underlying G-u distances are untouched and the whole row moves
			// by the constant offset delta.
			x := a + b - dv.u
			graph.ShiftRow(dv.rows[x*n:(x+1)*n], ch.New-ch.Old)
			dv.woff[x] = ch.New - 1
			st.Changed = append(st.Changed, int32(x))
			continue
		}
		if dv.base.HasEdge(a, b) {
			removed = append(removed, graph.WEdge{A: ch.U, B: ch.V, W: ch.Old})
			added = append(added, graph.WEdge{A: ch.U, B: ch.V, W: ch.New})
		}
	}
	if len(removed) > 0 {
		wcsr := graph.NewWCSRExcluding(dv.base, dv.wts, dv.u)
		if dv.wds == nil {
			dv.wds = graph.NewWDeltaScratch(n)
		}
		rst := wcsr.RepairRowsWeighted(dv.rows, dv.woff, removed, added, dv.wds)
		if rst.FullRefill {
			st = rst
		} else {
			st.Changed = append(st.Changed, rst.Changed...)
			st.RowsPatched += rst.RowsPatched
			st.RowsRefilled += rst.RowsRefilled
		}
	}
	if len(st.Changed) == 0 && !st.FullRefill {
		return // only latent pairs moved: no cached value depends on them
	}
	// Shifted rows count as changed for the dependent structures: colMin
	// refolds them (a positive shift only leaves it slack, still a sound
	// lower bound) and the memo drops any scan their costs fed.
	dv.repairColMin(st)
	dv.memoRepair(st, true)
	if st.FullRefill {
		dv.stable = 0
	}
	dv.rebuildInMin()
}

// refillWeighted rebuilds offsets and rows outright at the live weights
// generation — the resync of last resort when the change log no longer
// covers the gap.
func (dv *Deviator) refillWeighted() {
	dv.rebuildWoff()
	wcsr := graph.NewWCSRExcluding(dv.base, dv.wts, dv.u)
	wcsr.DistanceRowsInto(dv.rows, dv.woff)
	st := graph.RepairStats{FullRefill: true}
	dv.repairColMin(st)
	dv.memoRepair(st, true)
	dv.stable = 0
	dv.rebuildInMin()
}

// toWEdges attaches current weights to an undirected edge delta — the
// bridge from the topology journal's [2]int32 pairs to the weighted
// repair's WEdge. Callers must have run syncWeights first so removed
// edges carry the weights the rows were last synced to.
func (dv *Deviator) toWEdges(pairs [][2]int32) []graph.WEdge {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]graph.WEdge, len(pairs))
	for i, e := range pairs {
		out[i] = graph.WEdge{A: e[0], B: e[1], W: dv.wts.Of(int(e[0]), int(e[1]))}
	}
	return out
}

// evalWeightedDijkstra is the weighted Eval fallback: one Dijkstra over
// the fixed adjacency plus virtual strategy arcs, used when no weighted
// cache is active. Bit-identical to the cached evaluation wherever both
// are defined (the cache refuses only instances it cannot encode).
func (dv *Deviator) evalWeightedDijkstra(strategy []int) int64 {
	n := dv.game.N()
	if dv.wes == nil {
		dv.wes = &graph.WEvalScratch{}
	}
	agg := dv.wes.DeviationDijkstra(dv.base, dv.wts, dv.u, strategy)
	kappa := 1
	if agg.Reached != n {
		touched := graph.CountComponentsTouched(dv.label, dv.seen, dv.u, strategy, dv.in)
		kappa = dv.comps - touched + 1
	}
	return costFromAgg(n, dv.cinf, dv.game.Version, agg.Ecc, agg.Sum, agg.Reached, kappa)
}

// WeightedGreedyResponder is GreedyResponder under arc weights wts: the
// marginal-cost greedy evaluated on weighted shortest-path distances.
// (Distinct from the Section-6 WeightedGraph machinery, which weights
// vertices, not arcs.)
func WeightedGreedyResponder(wts *graph.Weights) Responder {
	return func(g *Game, d *graph.Digraph, u int) BestResponse {
		dv := NewWeightedDeviator(g, d, u, wts)
		defer dv.release()
		dv.EnsureCache(DefaultCacheBudget)
		return g.greedyOn(dv, d)
	}
}

// WeightedAllCosts returns every player's cost in realization d under
// arc weights wts: one weighted SSSP per source over the underlying
// graph, with the disconnection penalty scaled to n²·MaxW. At unit
// weights it equals AllCosts.
func (g *Game) WeightedAllCosts(d *graph.Digraph, wts *graph.Weights) []int64 {
	n := d.N()
	a := d.Underlying()
	_, kappa := graph.Components(a)
	cinf := int64(n) * int64(n) * int64(wts.MaxW())
	costs := make([]int64, n)
	var ws graph.WEvalScratch
	for u := 0; u < n; u++ {
		agg := ws.DeviationDijkstra(a, wts, u, nil)
		costs[u] = costFromAgg(n, cinf, g.Version, agg.Ecc, agg.Sum, agg.Reached, kappa)
	}
	return costs
}

// WeightedSocialCost returns the weighted diameter of the realization,
// or the n²·MaxW disconnection penalty when it is not connected — the
// arc-weighted analogue of SocialCost.
func (g *Game) WeightedSocialCost(d *graph.Digraph, wts *graph.Weights) int64 {
	n := d.N()
	a := d.Underlying()
	var ws graph.WEvalScratch
	var diam int64
	for u := 0; u < n; u++ {
		agg := ws.DeviationDijkstra(a, wts, u, nil)
		if agg.Reached != n {
			return int64(n) * int64(n) * int64(wts.MaxW())
		}
		if agg.Ecc > diam {
			diam = agg.Ecc
		}
	}
	return diam
}
