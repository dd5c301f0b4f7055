package dynamics

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func exactOpts() Options {
	return Options{Responder: core.ExactResponder(0), DetectLoops: true}
}

func TestRunConvergesOnStar(t *testing.T) {
	// A star is already an equilibrium: one quiet round, zero moves.
	d := graph.StarGraph(5)
	g := core.GameOf(d, core.SUM)
	res, err := Run(g, d, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Moves != 0 || res.Rounds != 1 {
		t.Fatalf("star run = %+v, want immediate convergence", res)
	}
	if !res.Final.Equal(d) {
		t.Fatal("final graph should equal the start")
	}
}

func TestRunDoesNotMutateStart(t *testing.T) {
	d := graph.PathGraph(6)
	snapshot := d.Clone()
	g := core.GameOf(d, core.SUM)
	if _, err := Run(g, d, exactOpts()); err != nil {
		t.Fatal(err)
	}
	if !d.Equal(snapshot) {
		t.Fatal("Run mutated the start graph")
	}
}

func TestRunReachesNashFromPath(t *testing.T) {
	d := graph.PathGraph(7)
	for _, ver := range []core.Version{core.SUM, core.MAX} {
		g := core.GameOf(d, ver)
		res, err := Run(g, d, exactOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%v: dynamics did not converge: %+v", ver, res)
		}
		dev, err := g.VerifyNash(res.Final, 0)
		if err != nil {
			t.Fatal(err)
		}
		if dev != nil {
			t.Fatalf("%v: converged profile is not Nash: %v", ver, dev)
		}
	}
}

func TestRunFromRandomUnitBudgets(t *testing.T) {
	// Unit-budget games: dynamics should reach equilibria whose diameter
	// is O(1) (Section 4). Verify Nash for every converged run.
	rng := rand.New(rand.NewSource(5))
	for _, ver := range []core.Version{core.SUM, core.MAX} {
		g := core.UniformGame(8, 1, ver)
		for trial := 0; trial < 10; trial++ {
			res, err := RunFromRandom(g, rng, exactOpts())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				continue // loops are legitimate outcomes; statistics in analysis
			}
			dev, err := g.VerifyNash(res.Final, 0)
			if err != nil {
				t.Fatal(err)
			}
			if dev != nil {
				t.Fatalf("%v trial %d: non-Nash fixed point: %v", ver, trial, dev)
			}
		}
	}
}

func TestSchedulers(t *testing.T) {
	var rr RoundRobin
	dst := make([]int, 5)
	rr.Order(dst, 3)
	for i, v := range dst {
		if v != i {
			t.Fatalf("round robin order = %v", dst)
		}
	}
	if rr.Name() == "" {
		t.Fatal("empty scheduler name")
	}
	ro := RandomOrder{Rng: rand.New(rand.NewSource(1))}
	ro.Order(dst, 1)
	seen := make(map[int]bool)
	for _, v := range dst {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("random order not a permutation: %v", dst)
	}
	if ro.Name() == "" {
		t.Fatal("empty scheduler name")
	}
}

func TestRandomOrderDynamicsStillReachNash(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := core.UniformGame(7, 1, core.SUM)
	opts := Options{
		Responder:   core.ExactResponder(0),
		Scheduler:   RandomOrder{Rng: rng},
		DetectLoops: true,
		MaxRounds:   200,
	}
	res, err := RunFromRandom(g, rng, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		dev, err := g.VerifyNash(res.Final, 0)
		if err != nil {
			t.Fatal(err)
		}
		if dev != nil {
			t.Fatalf("converged but not Nash: %v", dev)
		}
	}
}

func TestTrajectoryRecording(t *testing.T) {
	d := graph.PathGraph(8)
	g := core.GameOf(d, core.SUM)
	opts := exactOpts()
	opts.RecordTrajectory = true
	res, err := Run(g, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != res.Rounds {
		t.Fatalf("trajectory has %d entries for %d rounds", len(res.Trajectory), res.Rounds)
	}
	final := g.SocialCost(res.Final)
	if res.Trajectory[len(res.Trajectory)-1] != final {
		t.Fatal("last trajectory entry disagrees with final social cost")
	}
}

func TestMaxRoundsStopsRun(t *testing.T) {
	d := graph.PathGraph(10)
	g := core.GameOf(d, core.SUM)
	opts := Options{Responder: core.ExactResponder(0), MaxRounds: 1}
	res, err := Run(g, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestRunValidation(t *testing.T) {
	d := graph.PathGraph(4)
	g := core.GameOf(d, core.SUM)
	if _, err := Run(g, d, Options{}); err == nil {
		t.Fatal("missing responder accepted")
	}
	wrong := core.MustGame([]int{2, 1, 1, 0}, core.SUM)
	if _, err := Run(wrong, d, exactOpts()); err == nil {
		t.Fatal("realization mismatch accepted")
	}
	assertCachedOnlyMatchesPlain(t, Run)
}

// assertCachedOnlyMatchesPlain runs engine from a path once with only a
// Cached responder and once with only its plain counterpart: a pooled
// run needs no Responder, and both runs must agree move for move.
func assertCachedOnlyMatchesPlain(t *testing.T, engine func(*core.Game, *graph.Digraph, Options) (Result, error)) {
	t.Helper()
	d := graph.PathGraph(9)
	g := core.GameOf(d, core.SUM)
	want, err := engine(g, d, Options{Responder: core.GreedyResponder, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine(g, d, Options{Cached: core.GreedyDeviatorResponder, MaxRounds: 50})
	if err != nil {
		t.Fatalf("Cached-only options rejected: %v", err)
	}
	if want.Moves == 0 {
		t.Fatal("reference run made no moves; the comparison is vacuous")
	}
	assertSameResult(t, "Cached-only vs plain", got, want)
}

func TestSwapResponderDynamics(t *testing.T) {
	// Swap dynamics converge to swap-stable profiles (weak equilibria).
	d := graph.PathGraph(9)
	g := core.GameOf(d, core.SUM)
	opts := Options{Responder: core.SwapResponder, DetectLoops: true}
	res, err := Run(g, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("swap dynamics did not converge: %+v", res)
	}
	dev, err := g.VerifySwapStable(res.Final)
	if err != nil {
		t.Fatal(err)
	}
	if dev != nil {
		t.Fatalf("fixed point not swap-stable: %v", dev)
	}
}

func TestGreedyResponderDynamics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := core.UniformGame(10, 2, core.SUM)
	opts := Options{Responder: core.GreedyResponder, DetectLoops: true, MaxRounds: 300}
	res, err := RunFromRandom(g, rng, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged && !res.Loop && res.Rounds < 300 {
		t.Fatalf("greedy dynamics stopped without verdict: %+v", res)
	}
}

func TestLoopDetectionOnForcedCycle(t *testing.T) {
	// A responder that deterministically alternates vertex 0's strategy
	// between {1} and {2} forces a 2-cycle of profiles; the engine must
	// detect it exactly.
	d := graph.NewDigraph(3)
	d.AddArc(0, 1)
	g := core.MustGame([]int{1, 0, 0}, core.SUM)
	flip := func(_ *core.Game, cur *graph.Digraph, u int) core.BestResponse {
		if u != 0 {
			return core.BestResponse{Strategy: cur.Out(u), Cost: 0, Current: 0}
		}
		next := []int{1}
		if cur.HasArc(0, 1) {
			next = []int{2}
		}
		// Claim an improvement so the move is always applied.
		return core.BestResponse{Strategy: next, Cost: 0, Current: 1}
	}
	res, err := Run(g, d, Options{Responder: flip, DetectLoops: true, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Loop {
		t.Fatalf("loop not detected: %+v", res)
	}
	if res.LoopLength != 2 {
		t.Fatalf("loop length = %d, want 2", res.LoopLength)
	}
}
