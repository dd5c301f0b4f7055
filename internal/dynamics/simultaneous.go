package dynamics

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// Simultaneous-move dynamics: in each round every player computes a
// response against the *current* profile and all updates apply at once.
// Unlike the sequential engine, simultaneous moves are the classic
// source of oscillation in network formation (two players chasing the
// same position can swap forever), which makes this variant a sharper
// probe of the Section 8 convergence question: sequential dynamics
// converged in every experiment, while simultaneous dynamics visibly
// loop on small instances.

// RunSimultaneous executes simultaneous response dynamics. Loop
// detection is always on (simultaneous runs that do not converge
// almost always cycle).
func RunSimultaneous(g *core.Game, start *graph.Digraph, opts Options) (Result, error) {
	if err := opts.prologue(g, start); err != nil {
		return Result{}, err
	}
	d := start.Clone()
	n := g.N()
	res := Result{}
	pool, respond, respondAll, done := opts.runState(g, d)
	defer done()
	seen := make(map[uint64][]seenProfile)
	recordProfile(seen, core.ProfileOf(d), 0)
	next := make([][]int, n)
	var players []int
	if opts.Parallel {
		players = make([]int, n)
		for u := range players {
			players[u] = u
		}
	}
	for round := 1; round <= opts.MaxRounds; round++ {
		changed := false
		if opts.Parallel {
			// Every response is computed against the same fixed profile,
			// so the simultaneous round is embarrassingly parallel.
			for u, br := range respondAll(d, players) {
				next[u] = nil
				if g.Budgets[u] != 0 && br.Improves() {
					next[u] = br.Strategy
				}
			}
		} else {
			for u := 0; u < n; u++ {
				next[u] = nil
				if g.Budgets[u] == 0 {
					continue
				}
				br := respond(d, u, -1)
				if br.Improves() {
					next[u] = br.Strategy
				}
			}
		}
		for u, s := range next {
			if s != nil {
				d.SetOut(u, s)
				pool.Invalidate()
				res.Moves++
				changed = true
			}
		}
		res.Rounds = round
		if opts.RecordTrajectory {
			res.Trajectory = append(res.Trajectory, opts.socialCost(g, d))
		}
		if !changed {
			res.Converged = true
			break
		}
		p := core.ProfileOf(d)
		if prev, ok := lookupProfile(seen, p); ok {
			res.Loop = true
			res.LoopLength = round - prev
			break
		}
		recordProfile(seen, p, round)
	}
	res.Final = d
	return res, nil
}
