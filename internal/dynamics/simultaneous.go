package dynamics

import (
	"fmt"

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
	if err := g.CheckRealization(start); err != nil {
		return Result{}, err
	}
	if opts.Responder == nil {
		return Result{}, fmt.Errorf("dynamics: Options.Responder is required")
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 1000
	}
	d := start.Clone()
	n := g.N()
	res := Result{}
	pool, respond, done := opts.runState(g, d)
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
			var brs []core.BestResponse
			if pool != nil {
				brs = pooledResponsesAgainst(g, d, players, pool, opts.Cached)
			} else {
				brs = responsesAgainst(g, d, players, opts.Responder)
			}
			for u, br := range brs {
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

// WelfareTrace records the total player cost (the utilitarian welfare
// measure, distinct from the paper's diameter social cost) after each
// round of sequential dynamics. Its non-monotonicity is evidence that
// the game admits no obvious exact potential — context for why Section 8
// leaves convergence open.
func WelfareTrace(g *core.Game, start *graph.Digraph, opts Options) ([]int64, Result, error) {
	if err := g.CheckRealization(start); err != nil {
		return nil, Result{}, err
	}
	if opts.Responder == nil {
		return nil, Result{}, fmt.Errorf("dynamics: Options.Responder is required")
	}
	if opts.Scheduler == nil {
		opts.Scheduler = RoundRobin{}
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 200
	}
	d := start.Clone()
	n := g.N()
	order := make([]int, n)
	pool, respond, done := opts.runState(g, d)
	defer done()
	welfare := func() int64 {
		var total int64
		for _, c := range g.AllCosts(d) {
			total += c
		}
		return total
	}
	trace := []int64{welfare()}
	res := Result{}
	for round := 1; round <= opts.MaxRounds; round++ {
		opts.Scheduler.Order(order, round)
		changed := false
		for _, u := range order {
			if g.Budgets[u] == 0 {
				continue
			}
			br := respond(d, u, -1)
			if br.Improves() {
				d.SetOut(u, br.Strategy)
				pool.Invalidate()
				res.Moves++
				changed = true
			}
		}
		res.Rounds = round
		trace = append(trace, welfare())
		if !changed {
			res.Converged = true
			break
		}
	}
	res.Final = d
	return trace, res, nil
}
