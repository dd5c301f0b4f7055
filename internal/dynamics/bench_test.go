package dynamics

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// The BenchmarkDynamicsRound* family times one full greedy dynamics
// round over a settled profile on the production engine: a run-shared
// cache pool, delta-BFS repair, the SUM pruning kernel and the bitset
// MAX kernel, generation stamps with journal delta repair and the round
// memo. The measured pool is shared across timed rounds the way one
// long Run shares it across its rounds; untimed warm-up rounds fill the
// matrices and pass the stability hysteresis that gates the kernels.
// Each n=128 case doubles as a CI regression guard: before timing it
// asserts that pooled runs reproduce the plain per-call Responder
// (assertPooledMatches), plus, where noted, the settled-round counter
// invariants.

// BenchmarkDynamicsRoundIncremental is the pool-ladder headline: the
// profile is settled by a few rounds of dynamics, the regime that
// dominates converging runs, where every player is served from its
// repaired pool entry instead of a from-scratch dist_{G-u} fill.
func BenchmarkDynamicsRoundIncremental(b *testing.B) {
	for _, cfg := range []struct {
		n    int
		ver  core.Version
		pool int64 // pool budget bytes; 0 = DefaultPoolBudget
		tag  string
	}{
		{128, core.MAX, 0, ""},
		{512, core.MAX, 0, ""},
		{512, core.SUM, 0, ""},
		// At n=1024 the default 1 GiB budget pools ~244 of 1024 players;
		// the fullpool variant (-poolmb 5120 equivalent) pools everyone —
		// ~4.3 GiB resident, so it only runs when explicitly requested
		// (BENCH_FULLPOOL=1), keeping the CI bench smoke small-memory.
		{1024, core.MAX, 0, ""},
		{1024, core.MAX, 5 << 30, "-fullpool"},
	} {
		cfg := cfg
		// One nested level per config, so -bench filters (e.g. the CI
		// n=128 gate) prune the expensive settle runs of the other sizes.
		b.Run(fmt.Sprintf("n=%d/%v%s", cfg.n, cfg.ver, cfg.tag), func(b *testing.B) {
			if cfg.pool > 0 && os.Getenv("BENCH_FULLPOOL") == "" {
				b.Skip("set BENCH_FULLPOOL=1 to run the 4.3 GiB full-pool variant")
			}
			skipLarge(b, cfg.n)
			g := core.UniformGame(cfg.n, 2, cfg.ver)
			opts := Options{Responder: core.GreedyResponder, Cached: core.GreedyDeviatorResponder}
			settled := settle(b, g, opts, false)
			if cfg.n == 128 {
				assertPooledMatches(b, g, settled, opts, plainRound(b, g, settled, opts))
			}
			pool := core.NewCachePool(g, cfg.pool)
			defer pool.Close()
			timeRounds(b, g, settled, opts, pool)
		})
	}
}

// BenchmarkDynamicsRoundSUM is the SUM evaluation kernel headline: on
// a settled SUM profile the pool has already removed the matrix
// refills, so the O(n) min-merge per candidate is what dominates —
// exactly the cost the pruning bounds and the candidate memo cut.
func BenchmarkDynamicsRoundSUM(b *testing.B) {
	for _, n := range []int{128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			g := core.UniformGame(n, 2, core.SUM)
			opts := Options{Responder: core.GreedyResponder, Cached: core.GreedyDeviatorResponder}
			settled := settle(b, g, opts, false)
			if n == 128 {
				assertPooledMatches(b, g, settled, opts, plainRound(b, g, settled, opts))
			}
			pool := core.NewCachePool(g, 0)
			defer pool.Close()
			timeRounds(b, g, settled, opts, pool)
		})
	}
}

// BenchmarkDynamicsRoundStamps is the settled-round ladder headline:
// over a *converged* profile nothing moves, so every acquisition is a
// stamp comparison and every scan a memo hit — the round is O(movers) =
// O(1). The n=128 gate also asserts that a warm settled round runs zero
// resyncs and zero delta repairs for untouched players.
func BenchmarkDynamicsRoundStamps(b *testing.B) {
	for _, n := range []int{128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			g := core.UniformGame(n, 2, core.SUM)
			opts := Options{Responder: core.GreedyResponder, Cached: core.GreedyDeviatorResponder}
			// Settle to full convergence — the measured round must contain
			// no movers, or the zero-resync invariant would be vacuous.
			settled := settle(b, g, opts, true)
			pool := core.NewCachePool(g, 0)
			defer pool.Close()
			if n == 128 {
				assertPooledMatches(b, g, settled, opts, plainRound(b, g, settled, opts))
				assertSettledFree(b, g, settled, opts, pool, func(before, after core.PoolStats) {
					if d := after.DeltaRepairs - before.DeltaRepairs; d != 0 {
						b.Fatalf("settled round ran %d delta repairs, want 0", d)
					}
					if after.StampSkips+after.MemoHits <= before.StampSkips+before.MemoHits {
						b.Fatalf("settled round exercised no stamp fast path (stats %+v)", after)
					}
				})
			}
			timeRounds(b, g, settled, opts, pool)
		})
	}
}

// BenchmarkDynamicsRoundWeighted is the weighted cache tier headline:
// one round over a settled *arc-weighted* SUM profile (Δ-stepping fill,
// incremental weighted repair, stamps, SUM kernel). Its n=128 gate
// pins pooled runs against the uncached oracle — per-candidate Dijkstra
// — so Δ-stepping ≡ Dijkstra holds end to end, and asserts that a warm
// settled weighted round runs zero resyncs and zero repairs: weight
// staleness rides the generation counter, never the topology ladder.
func BenchmarkDynamicsRoundWeighted(b *testing.B) {
	for _, n := range []int{128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			g := core.UniformGame(n, 2, core.SUM)
			wts := graph.NewWeights(n, 9, 8)
			opts := Options{
				Responder: core.WeightedGreedyResponder(wts),
				Cached:    core.GreedyDeviatorResponder,
				Weights:   wts,
			}
			settled := settle(b, g, opts, true)
			pool := core.NewWeightedCachePool(g, 0, wts)
			defer pool.Close()
			if n == 128 {
				// A zero cache budget keeps the plain responder off the
				// distance cache: the per-candidate Dijkstra oracle.
				oracle := func() Result {
					old := core.DefaultCacheBudget
					core.DefaultCacheBudget = 0
					defer func() { core.DefaultCacheBudget = old }()
					return plainRound(b, g, settled, opts)
				}()
				assertPooledMatches(b, g, settled, opts, oracle)
				assertSettledFree(b, g, settled, opts, pool, func(before, after core.PoolStats) {
					if d := after.Repairs - before.Repairs; d != 0 {
						b.Fatalf("settled weighted round ran %d weight repairs, want 0", d)
					}
				})
			}
			timeRounds(b, g, settled, opts, pool)
		})
	}
}

// skipLarge keeps the generic `-bench . -benchtime=1x` CI smoke a
// smoke: the n>=512 configs cost tens of seconds of settle and warm-up
// and a multi-hundred-MB pool per run.
func skipLarge(b *testing.B, n int) {
	if n >= 512 && os.Getenv("BENCH_LARGE") == "" {
		b.Skip("set BENCH_LARGE=1 to run the n>=512 configs")
	}
}

// settle runs pooled dynamics from a seeded random profile and returns
// the profile reached: the bench input. It stops after 4 rounds, the
// converging regime, or with converge set runs to convergence (within
// 600 rounds).
func settle(b *testing.B, g *core.Game, opts Options, converge bool) *graph.Digraph {
	b.Helper()
	opts.MaxRounds = 4
	if converge {
		opts.MaxRounds = 600
	}
	pre, err := Run(g, RandomProfile(g, rand.New(rand.NewSource(9))), opts)
	if err != nil {
		b.Fatal(err)
	}
	if converge && !pre.Converged {
		b.Fatal("dynamics did not converge within the settle budget")
	}
	return pre.Final
}

// round runs one round of dynamics from start.
func round(b *testing.B, g *core.Game, start *graph.Digraph, opts Options) Result {
	b.Helper()
	opts.MaxRounds = 1
	res, err := Run(g, start, opts)
	if err != nil {
		b.Fatal(err)
	}
	if res.Rounds == 0 {
		b.Fatal("no rounds executed")
	}
	return res
}

// plainRound runs one round from start on the plain per-call Responder,
// without any pool: the reference every pooled run must reproduce.
func plainRound(b *testing.B, g *core.Game, start *graph.Digraph, opts Options) Result {
	b.Helper()
	opts.Cached, opts.Pool = nil, nil
	return round(b, g, start, opts)
}

// assertPooledMatches fails the benchmark unless four consecutive
// one-round runs over one shared pool each reproduce want. The sequence
// covers the cold (fill), warming (bounds built, hysteresis passed) and
// warm (stamp-skipped, memo-served) rounds, exactly like the timed
// loops: the pruning machinery only engages for pool-owned Deviators
// past the stability hysteresis, so a single cold run would assert
// nothing about the bounds, the stamps or the memo.
func assertPooledMatches(b *testing.B, g *core.Game, start *graph.Digraph, opts Options, want Result) {
	b.Helper()
	opts.Pool = core.NewWeightedCachePool(g, 0, opts.Weights)
	defer opts.Pool.Close()
	for i := 0; i < 4; i++ {
		got := round(b, g, start, opts)
		if got.Moves != want.Moves || got.Rounds != want.Rounds || !got.Final.Equal(want.Final) {
			b.Fatalf("pooled dynamics diverge from the plain responder on run %d:\npooled %+v\nplain  %+v",
				i, got, want)
		}
	}
}

// assertSettledFree warms pool with three rounds over the converged
// profile settled, then runs one more and fails the benchmark if it
// resynced any player; check asserts the bench's further invariants on
// the stats before and after that round.
func assertSettledFree(b *testing.B, g *core.Game, settled *graph.Digraph, opts Options, pool *core.CachePool, check func(before, after core.PoolStats)) {
	b.Helper()
	opts.Pool = pool
	for i := 0; i < 3; i++ {
		round(b, g, settled, opts)
	}
	before := pool.Stats()
	round(b, g, settled, opts)
	after := pool.Stats()
	if d := after.Resyncs - before.Resyncs; d != 0 {
		b.Fatalf("settled round ran %d resyncs, want 0 (stats %+v)", d, after)
	}
	check(before, after)
}

// timeRounds times one-round runs from start over pool, after three
// untimed warm-up rounds.
func timeRounds(b *testing.B, g *core.Game, start *graph.Digraph, opts Options, pool *core.CachePool) {
	b.Helper()
	opts.Pool = pool
	for i := 0; i < 3; i++ {
		round(b, g, start, opts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(b, g, start, opts)
	}
}

// BenchmarkDynamicsRunIncremental measures whole bounded runs from a
// random profile — the adversarial mix for the pool: the early rounds
// carry heavy move traffic (repairs degrade to refills plus bookkeeping)
// before the converging tail starts paying. Kept honest alongside the
// settled-round headline.
func BenchmarkDynamicsRunIncremental(b *testing.B) {
	g := core.UniformGame(256, 2, core.MAX)
	start := RandomProfile(g, rand.New(rand.NewSource(9)))
	opts := Options{
		Responder: core.GreedyResponder,
		Cached:    core.GreedyDeviatorResponder,
		MaxRounds: 6,
	}
	b.Run("n=256/MAX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, start, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRunUnitExact(b *testing.B) {
	g := core.UniformGame(32, 1, core.SUM)
	rng := rand.New(rand.NewSource(1))
	start := RandomProfile(g, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, start, Options{
			Responder: core.ExactResponder(0), DetectLoops: true, MaxRounds: 100,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunGreedyBudget3(b *testing.B) {
	g := core.UniformGame(48, 3, core.SUM)
	rng := rand.New(rand.NewSource(1))
	start := RandomProfile(g, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, start, Options{
			Responder: core.GreedyResponder, DetectLoops: true, MaxRounds: 50,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSimultaneous(b *testing.B) {
	g := core.UniformGame(16, 1, core.MAX)
	rng := rand.New(rand.NewSource(1))
	start := RandomProfile(g, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSimultaneous(g, start, Options{
			Responder: core.ExactResponder(0), MaxRounds: 100,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWelfareTrace(b *testing.B) {
	g := core.UniformGame(24, 1, core.SUM)
	rng := rand.New(rand.NewSource(1))
	start := RandomProfile(g, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := WelfareTrace(g, start, Options{
			Responder: core.ExactResponder(0), MaxRounds: 50,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
