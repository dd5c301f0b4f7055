package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// Closed pools must be inert: Invalidate/Acquire/Stats after Close, and
// a second Close, are defined no-ops that never touch the recycled
// matrices (Acquire degrades to plain Deviators).
func TestPoolLifecycleAfterClose(t *testing.T) {
	g := UniformGame(10, 1, SUM)
	rng := rand.New(rand.NewSource(9001))
	d := graph.RandomOutDigraph(g.Budgets, rng)
	pool := NewCachePool(g, 0)
	a := pool.Acquire(d, 0)
	a.Release()
	pool.NoteResponse(d, 0, false)
	if !pool.SkipResponse(d, 0) {
		t.Fatal("memo miss before close")
	}
	pool.Close()
	if a.HasCache() {
		t.Fatal("Close did not recycle the pooled matrix")
	}
	pool.Close() // double Close: no-op, must not double-recycle
	pool.Invalidate()
	b := pool.Acquire(d, 0)
	if b == a {
		t.Fatal("Acquire after Close resurrected a recycled entry")
	}
	if b.HasCache() {
		t.Fatal("Acquire after Close pooled a matrix")
	}
	plain := NewDeviator(g, d, 0)
	s := randomStrategy(10, 0, 1, rng)
	if b.Eval(s) != plain.Eval(s) {
		t.Fatal("post-Close Deviator evaluates wrong")
	}
	b.Release()
	if pool.SkipResponse(d, 0) {
		t.Fatal("response memo survived Close")
	}
	pool.NoteResponse(d, 0, false) // must not re-grow state on a closed pool
	if pool.SkipResponse(d, 0) {
		t.Fatal("NoteResponse after Close recorded a memo")
	}
	if w := pool.Prefetch(d, 0); w != nil {
		t.Fatal("Prefetch after Close returned a handle")
	}
	st := pool.Stats()
	if st.Acquires != 2 || st.Fills != 1 || st.Unpooled != 1 {
		t.Fatalf("stats after close = %+v, want 2 acquires, 1 fill, 1 unpooled", st)
	}
	// Nil pool: every method is a no-op.
	var nilPool *CachePool
	nilPool.Invalidate()
	nilPool.Close()
	nilPool.ResetResponseMemo()
	if nilPool.SkipResponse(d, 0) || nilPool.Prefetch(d, 0) != nil {
		t.Fatal("nil pool not inert")
	}
	_ = nilPool.Stats()
}

// Stamp-skip and journal-delta acquisition must leave a pooled
// Deviator bit-identical to a fresh fill — distance rows, inMin fold,
// base adjacency, best responses — with a colMin floor no higher than
// the fresh one, across all 8 generator families under random rewire /
// no-op / over-invalidation interleavings.
func TestPropertyStampSkipMatchesForcedDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(9002))
	for _, inst := range generatorCorpus(rng) {
		for _, version := range []Version{SUM, MAX} {
			g := GameOf(inst.d, version)
			n := g.N()
			d := inst.d.Clone()
			d.StartJournal(0) // unbounded: every delta is journal-covered
			pool := NewCachePool(g, 0)
			for step := 0; step < 10; step++ {
				switch rng.Intn(4) {
				case 0: // settled round: nothing moves
				case 1: // no-op rewire: SetOut to the identical set
					u := rng.Intn(n)
					d.SetOut(u, d.Out(u))
				default:
					for i := 0; i <= rng.Intn(2); i++ {
						mutateRandomPlayer(g, d, rng)
					}
				}
				// Over-invalidation: the pool goes stale even on no-op steps.
				pool.Invalidate()
				for k := 0; k < 3; k++ {
					u := rng.Intn(n)
					ds := pool.Acquire(d, u)
					fresh := NewDeviator(g, d, u)
					if !fresh.EnsureCache(DefaultCacheBudget) {
						t.Fatal("cache refused")
					}
					var brS, brF BestResponse
					if g.Budgets[u] > 0 {
						brS = GreedyDeviatorResponder(g, d, ds)
						brF = GreedyDeviatorResponder(g, d, fresh)
					}
					ds.Release()
					if brS.Cost != brF.Cost || brS.Current != brF.Current ||
						brS.Explored != brF.Explored || !equalInts(brS.Strategy, brF.Strategy) {
						t.Fatalf("%s %v u=%d step=%d: pooled %+v, fresh %+v",
							inst.name, version, u, step, brS, brF)
					}
					if !reflect.DeepEqual(ds.rows, fresh.rows) {
						t.Fatalf("%s %v u=%d step=%d: rows diverged", inst.name, version, u, step)
					}
					if !reflect.DeepEqual(ds.inMin, fresh.inMin) {
						t.Fatalf("%s %v u=%d step=%d: inMin diverged", inst.name, version, u, step)
					}
					if ds.colMin != nil {
						// Repairs fold rows into colMin, so it may be slack
						// but never above the exact floor of a fresh fill.
						fresh.ensureColMin()
						for w, c := range ds.colMin {
							if c > fresh.colMin[w] {
								t.Fatalf("%s %v u=%d step=%d: colMin[%d]=%d above the fresh floor %d",
									inst.name, version, u, step, w, c, fresh.colMin[w])
							}
						}
					}
					if rem, add := graph.DiffUnd(ds.base, fresh.base, -1); len(rem)+len(add) != 0 {
						t.Fatalf("%s %v u=%d step=%d: base adjacency diverged (-%v +%v)",
							inst.name, version, u, step, rem, add)
					}
					fresh.Release()
				}
			}
			// The pool must actually have exercised the fast paths.
			if st := pool.Stats(); st.StampSkips == 0 {
				t.Fatalf("%s %v: pool never stamp-skipped (stats %+v)", inst.name, version, st)
			}
			pool.Close()
		}
	}
}
