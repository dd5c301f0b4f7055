package bbncg

import (
	"fmt"
	"math/rand"

	"repro/internal/dynamics"
)

// DynamicsResult summarises a response-dynamics run.
type DynamicsResult = dynamics.Result

// DynamicsOptions is the wire-friendly form of a dynamics run: the
// responder by name, a round budget, and the engine knobs that matter
// to embedders. Zero values pick the engine defaults.
type DynamicsOptions struct {
	// Responder names the per-player responder: greedy (default), swap
	// or exact. ExactCap bounds exact enumeration (0 = DefaultExactCap).
	Responder string `json:"responder,omitempty"`
	ExactCap  int64  `json:"exactCap,omitempty"`
	// MaxRounds bounds the run (0 = engine default, 1000).
	MaxRounds int `json:"maxRounds,omitempty"`
	// ShuffleSeed, when non-zero, moves players in a fresh random order
	// each round instead of round-robin.
	ShuffleSeed int64 `json:"shuffleSeed,omitempty"`
	// DetectLoops stops on an exactly-recurring profile.
	DetectLoops bool `json:"detectLoops,omitempty"`
	// RecordTrajectory stores the social cost after every round.
	RecordTrajectory bool `json:"recordTrajectory,omitempty"`
	// Parallel fans responders out over the worker pool.
	Parallel bool `json:"parallel,omitempty"`
	// Pool supplies an external warm-cache pool surviving across runs;
	// the caller owns its lifetime.
	Pool *CachePool `json:"-"`
	// Weights makes the run arc-weighted: responders optimise weighted
	// costs, trajectories record the weighted social cost, and a run-owned
	// pool becomes a weighted pool. An external Pool must then be a
	// NewWeightedCachePool over the same Weights.
	Weights *Weights `json:"-"`
}

// engineOptions lowers the wire form onto the dynamics engine,
// resolving the pooled responder and validating exact spaces up front
// so the engine cannot panic on wire input.
func (o DynamicsOptions) engineOptions(g *Game) (dynamics.Options, error) {
	rc, err := ResponderByName(o.Responder, o.ExactCap)
	if err != nil {
		return dynamics.Options{}, err
	}
	if rc.Exact {
		for u := range g.Budgets {
			if err := CheckExactSpace(g, u, rc.Cap); err != nil {
				return dynamics.Options{}, err
			}
		}
	}
	opts := dynamics.Options{
		Cached:           rc.Cached,
		MaxRounds:        o.MaxRounds,
		DetectLoops:      o.DetectLoops,
		RecordTrajectory: o.RecordTrajectory,
		Parallel:         o.Parallel,
		Pool:             o.Pool,
		Weights:          o.Weights,
	}
	if o.ShuffleSeed != 0 {
		opts.Scheduler = dynamics.RandomOrder{Rng: rand.New(rand.NewSource(o.ShuffleSeed))}
	}
	return opts, nil
}

// RunDynamics executes response dynamics for g from start (which is not
// modified) until convergence, a loop, or the round budget.
func RunDynamics(g *Game, start *Digraph, o DynamicsOptions) (DynamicsResult, error) {
	opts, err := o.engineOptions(g)
	if err != nil {
		return DynamicsResult{}, err
	}
	return dynamics.Run(g, start, opts)
}

// RunSimultaneousDynamics is RunDynamics with all players moving at
// once each round (the Section 8 simultaneous variant).
func RunSimultaneousDynamics(g *Game, start *Digraph, o DynamicsOptions) (DynamicsResult, error) {
	opts, err := o.engineOptions(g)
	if err != nil {
		return DynamicsResult{}, err
	}
	return dynamics.RunSimultaneous(g, start, opts)
}

// RandomRealization draws a uniformly random valid profile of g.
func RandomRealization(g *Game, seed int64) *Digraph {
	return dynamics.RandomProfile(g, rand.New(rand.NewSource(seed)))
}

// VerifyNash checks d against every player's exact best response,
// returning a witness deviation when d is not a Nash equilibrium.
// exactCap bounds each player's enumeration (<= 0 = DefaultExactCap).
func VerifyNash(g *Game, d *Digraph, exactCap int64) (*Deviation, error) {
	if exactCap <= 0 {
		exactCap = DefaultExactCap
	}
	for u := range g.Budgets {
		if err := CheckExactSpace(g, u, exactCap); err != nil {
			return nil, fmt.Errorf("bbncg: VerifyNash: %w", err)
		}
	}
	return g.VerifyNash(d, exactCap)
}
