package dynamics

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
)

// Incremental (pooled, repair-per-move) dynamics must reproduce the
// plain per-call Responder exactly: same moves, same rounds, same final
// profile, for both engines, both versions, and every built-in
// responder pair.
func TestIncrementalDynamicsMatchesRefill(t *testing.T) {
	pairs := []struct {
		name   string
		plain  core.Responder
		cached core.DeviatorResponder
	}{
		{"exact", core.ExactResponder(0), core.ExactDeviatorResponder(0)},
		{"greedy", core.GreedyResponder, core.GreedyDeviatorResponder},
		{"swap", core.SwapResponder, core.SwapDeviatorResponder},
	}
	for _, ver := range []core.Version{core.SUM, core.MAX} {
		for _, p := range pairs {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("%v/%s/seed=%d", ver, p.name, seed), func(t *testing.T) {
					g := core.UniformGame(10, 1, ver)
					start := RandomProfile(g, rand.New(rand.NewSource(seed)))
					base := Options{Responder: p.plain, DetectLoops: true, MaxRounds: 200}
					inc := base
					inc.Cached = p.cached
					want, err := Run(g, start, base)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Run(g, start, inc)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, "Run", got, want)

					wantSim, err := RunSimultaneous(g, start, base)
					if err != nil {
						t.Fatal(err)
					}
					gotSim, err := RunSimultaneous(g, start, inc)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, "RunSimultaneous", gotSim, wantSim)
				})
			}
		}
	}
}

// The race test of the pooled speculative path: many parallel rounds
// over a pool too small to hold every player, so acquisitions, repairs,
// pins and evictions interleave with concurrent responder execution.
// Under -race this proves round-scoped matrices are never recycled while
// a worker still reads them (the Deviator.Release-into-pool fix); the
// result must also match the sequential refill path exactly.
func TestIncrementalParallelRace(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		runtime.GOMAXPROCS(4)
	}
	n := 16
	g := core.UniformGame(n, 2, core.MAX)
	start := RandomProfile(g, rand.New(rand.NewSource(11)))
	// Room for only 5 of 16 matrices: constant eviction pressure.
	pool := core.NewCachePool(g, 5*4*int64(n)*int64(n+1))
	defer pool.Close()
	inc := Options{
		Cached:   core.GreedyDeviatorResponder,
		Parallel: true, Pool: pool, MaxRounds: 60, DetectLoops: true,
	}
	got, err := Run(g, start, inc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, start, Options{Responder: core.GreedyResponder, MaxRounds: 60, DetectLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "Run(parallel,pooled)", got, want)

	gotSim, err := RunSimultaneous(g, start, inc)
	if err != nil {
		t.Fatal(err)
	}
	wantSim, err := RunSimultaneous(g, start, Options{Responder: core.GreedyResponder, MaxRounds: 60})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "RunSimultaneous(parallel,pooled)", gotSim, wantSim)
}
