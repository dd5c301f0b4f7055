package dynamics

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// A pooled weighted run (weighted cache tier, Δ-stepping fill and
// repair, stamps ladder, SUM kernel) must reproduce the plain per-call
// weighted responder and the uncached oracle, which evaluates every
// candidate by Dijkstra: the engine selects implementations, never
// trajectories.
func TestRunWeightedMatchesOracle(t *testing.T) {
	g := core.UniformGame(20, 2, core.SUM)
	wts := graph.NewWeights(20, 11, 16)
	start := RandomProfile(g, rand.New(rand.NewSource(3)))

	run := func(pooled bool) Result {
		opts := Options{
			Responder:        core.WeightedGreedyResponder(wts),
			Weights:          wts,
			MaxRounds:        40,
			RecordTrajectory: true,
		}
		if pooled {
			opts.Cached = core.GreedyDeviatorResponder
		}
		res, err := Run(g, start, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(a, b Result, label string) {
		t.Helper()
		if a.Moves != b.Moves || a.Rounds != b.Rounds || a.Converged != b.Converged ||
			!a.Final.Equal(b.Final) || fmt.Sprint(a.Trajectory) != fmt.Sprint(b.Trajectory) {
			t.Fatalf("%s diverged:\nref %+v\ngot %+v", label, a, b)
		}
	}

	ref := run(true)
	if !ref.Converged {
		t.Fatalf("weighted dynamics did not converge: %+v", ref)
	}
	same(ref, run(false), "plain responder")
	// A zero cache budget keeps every plain responder off the distance
	// cache: per-candidate Dijkstra, the oracle.
	old := core.DefaultCacheBudget
	core.DefaultCacheBudget = 0
	defer func() { core.DefaultCacheBudget = old }()
	same(ref, run(false), "uncached oracle")
}

// An externally supplied weighted pool must survive across runs the way
// run-owned pools survive across rounds, and the simultaneous engine
// must record the weighted trajectory metric.
func TestRunWeightedExternalPoolAndSimultaneous(t *testing.T) {
	g := core.UniformGame(16, 2, core.SUM)
	wts := graph.NewWeights(16, 4, 5)
	start := RandomProfile(g, rand.New(rand.NewSource(6)))
	pool := core.NewWeightedCachePool(g, 0, wts)
	defer pool.Close()
	opts := Options{
		Responder: core.WeightedGreedyResponder(wts),
		Cached:    core.GreedyDeviatorResponder,
		Weights:   wts,
		Pool:      pool,
		MaxRounds: 40,
	}
	var first Result
	for i := 0; i < 3; i++ {
		res, err := Run(g, start, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if res.Moves != first.Moves || !res.Final.Equal(first.Final) {
			t.Fatalf("pooled weighted run %d diverged: %+v vs %+v", i, res, first)
		}
	}
	if st := pool.Stats(); st.Fills != int64(g.N()) {
		t.Fatalf("external weighted pool refilled across runs: %+v", st)
	}

	sOpts := opts
	sOpts.Pool = nil
	sOpts.RecordTrajectory = true
	sOpts.MaxRounds = 5
	res, err := RunSimultaneous(g, start, sOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) == 0 {
		t.Fatal("no weighted trajectory recorded")
	}
	if res.Trajectory[0] != g.WeightedSocialCost(res.Final, wts) && !res.Loop {
		// The last trajectory entry is the final profile's weighted
		// diameter unless the run broke on a loop.
		if res.Trajectory[len(res.Trajectory)-1] != g.WeightedSocialCost(res.Final, wts) {
			t.Fatalf("trajectory %v does not end at the weighted social cost of the final profile", res.Trajectory)
		}
	}
}
