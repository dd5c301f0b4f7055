package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
)

// dynInstance is one game shape of the dyn workload. Every player has
// budget 2; maxW > 0 adds arc weights in [1, maxW] (graph.NewWeights).
type dynInstance struct {
	name    string
	n       int
	version core.Version
	maxW    int32
}

// The three shapes: SUM and MAX at n=384 run the unweighted BFS fill and
// repair kernels; weighted SUM at n=192 runs the Δ-stepping ones.
var dynInstances = []dynInstance{
	{"sum384", 384, core.SUM, 0},
	{"max384", 384, core.MAX, 0},
	{"wsum192", 192, core.SUM, 8},
}

// dynConfig sizes the dyn workload.
type dynConfig struct {
	instances []dynInstance
	// sets is the number of distinct instance sets drawn per untraced
	// run, each repeated while time remains. Convergence time depends
	// strongly on the random start: the weighted instance takes from 6
	// to 22 rounds, so a set's wall is skewed to the right. The reported
	// wall is therefore the mean over many sets of each set's median
	// repeat, which varies less from seed to seed than their median.
	sets int
	// settled is the number of rounds run on the warm pool after
	// convergence; the first ones still promote entries to their stable
	// form, so settled_ms is their median.
	settled int
	// sampled players per instance are re-checked with the plain,
	// uncached responder.
	sampled int
	// setups is the number of set-up repetitions per pass behind
	// setup_s (one set-up is well under a millisecond).
	setups int
}

var dynDefault = dynConfig{instances: dynInstances, sets: 10, settled: 6, sampled: 16, setups: 20}

const dynBudget = 2

// dynInput is one instance as the benchmark generates it from the seed:
// only the out-lists and the weight seed reach the program.
type dynInput struct {
	inst   dynInstance
	outs   [][]int
	wseed  int64
	sample []int
}

func dynInputs(cfg dynConfig, seed int64, set int) []dynInput {
	rng := rand.New(rand.NewSource(seed*7919 + int64(set)))
	ins := make([]dynInput, len(cfg.instances))
	for k, inst := range cfg.instances {
		outs := make([][]int, inst.n)
		for u := range outs {
			outs[u] = distinctTargets(rng, inst.n, u, dynBudget)
		}
		ins[k] = dynInput{inst: inst, outs: outs, wseed: rng.Int63(), sample: rng.Perm(inst.n)[:min(cfg.sampled, inst.n)]}
	}
	return ins
}

// distinctTargets draws b distinct vertices of [0,n) other than u.
func distinctTargets(rng *rand.Rand, n, u, b int) []int {
	seen := map[int]bool{u: true}
	out := make([]int, 0, b)
	for len(out) < b {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// dynProblem is the program-side set-up of one input.
type dynProblem struct {
	in    dynInput
	game  *core.Game
	start *graph.Digraph
	wts   *graph.Weights
	plain core.Responder
}

func setUpDyn(in dynInput) dynProblem {
	n := in.inst.n
	p := dynProblem{in: in, game: core.UniformGame(n, dynBudget, in.inst.version), start: graph.NewDigraph(n), plain: core.GreedyResponder}
	for u, s := range in.outs {
		p.start.SetOut(u, s)
	}
	if in.inst.maxW > 0 {
		p.wts = graph.NewWeights(n, in.wseed, in.inst.maxW)
		p.plain = core.WeightedGreedyResponder(p.wts)
	}
	return p
}

func (p dynProblem) options(pool *core.CachePool, cached core.DeviatorResponder) dynamics.Options {
	return dynamics.Options{Responder: p.plain, Cached: cached, Weights: p.wts, Pool: pool}
}

// dynRun is one instance's converge run plus its settled rounds.
type dynRun struct {
	res          dynamics.Result
	converge     time.Duration
	settled      []time.Duration
	turns        []float64 // ms between consecutive responder scans while converging
	settledMoves int
	converged    bool
	before       core.PoolStats // after convergence
	after        core.PoolStats // after the settled rounds
	layer        *dynLayer      // traced runs only
}

// dynLayer accumulates one instance's traced layer timings.
type dynLayer struct {
	scan       time.Duration
	calls      int64
	rung       map[string]time.Duration
	rungCount  map[string]int64
	badAcquire int // intervals that did not hold exactly one acquisition
	wall       time.Duration
}

// rungOf names the pool rung that served the acquisition between two
// Stats snapshots. Each interval between responder calls holds exactly
// one Acquire; its resync takes exactly one of the stamp, delta and
// full-resync exits, and a first acquisition is a fill.
func rungOf(a, b core.PoolStats) string {
	switch {
	case b.Fills > a.Fills:
		return "fill"
	case b.Resyncs > a.Resyncs:
		return "resync"
	case b.DeltaRepairs > a.DeltaRepairs:
		return "delta"
	case b.StampSkips > a.StampSkips:
		return "stampskip"
	}
	return "hit"
}

// runDynInstance converges p from its random start on an external pool
// (the pool dynamics.Run would build itself, kept so that its counters
// can be read and the settled rounds run warm), then runs the settled
// rounds. With rec set it records a span for every interval at the
// Cached hook boundary: the scan inside the hook, and the non-scan
// interval before it, classified by the pool rung whose counter moved.
func runDynInstance(p dynProblem, settled int, rec *Recorder) dynRun {
	var r dynRun
	var mark time.Time
	var root int64
	var prev core.PoolStats
	var pool *core.CachePool
	converging := true
	cached := core.DeviatorResponder(func(g *core.Game, d *graph.Digraph, dv *core.Deviator) core.BestResponse {
		t0 := time.Now()
		ts := t0 // start of the scan
		if rec != nil {
			st := pool.Stats()
			rung := rungOf(prev, st)
			if st.Acquires-prev.Acquires != 1 {
				r.layer.badAcquire++
			}
			prev = st
			rec.BeginAt("core.pool.acquire."+rung, root, 0, mark).EndAt(t0)
			r.layer.rung[rung] += t0.Sub(mark)
			r.layer.rungCount[rung]++
			ts = time.Now() // this bookkeeping is the root's self time
		}
		br := core.GreedyDeviatorResponder(g, d, dv)
		t1 := time.Now()
		if rec != nil {
			rec.BeginAt("core.responder.scan", root, 0, ts).EndAt(t1)
			r.layer.scan += t1.Sub(ts)
			r.layer.calls++
		}
		if converging {
			r.turns = append(r.turns, ms(t1.Sub(mark)))
		}
		mark = t1
		return br
	})
	if rec != nil {
		r.layer = &dynLayer{rung: map[string]time.Duration{}, rungCount: map[string]int64{}}
	}
	begin := func(name string) *Open {
		mark = time.Now()
		if rec == nil {
			return nil
		}
		o := rec.BeginAt(name, 0, 0, mark)
		root = o.ID()
		return o
	}
	end := func(o *Open) {
		if o != nil {
			r.layer.wall += o.End().Dur()
		}
	}

	// Start every timed run from a collected heap, so the previous
	// instance's garbage is not charged to this one.
	runtime.GC()
	o := begin("dyn.converge." + p.in.inst.name)
	t0 := mark
	pool = core.NewWeightedCachePool(p.game, 0, p.wts)
	res, err := dynamics.Run(p.game, p.start, p.options(pool, cached))
	r.converge = time.Since(t0)
	end(o)
	converging = false
	r.res, r.converged = res, err == nil && res.Converged
	r.before = pool.Stats()
	if r.converged {
		for k := 0; k < settled; k++ {
			o := begin("dyn.settled." + p.in.inst.name)
			t := mark
			sr, err := dynamics.Run(p.game, res.Final, p.options(pool, cached))
			r.settled = append(r.settled, time.Since(t))
			end(o)
			if err != nil || !sr.Converged || sr.Rounds != 1 {
				r.settledMoves++ // counted as a failed settled check
			}
			r.settledMoves += sr.Moves
		}
	}
	r.after = pool.Stats()
	pool.Close()
	return r
}

// dynPass runs every problem of one set in order.
func dynPass(ps []dynProblem, settled int, rec *Recorder) []dynRun {
	runs := make([]dynRun, len(ps))
	for k, p := range ps {
		runs[k] = runDynInstance(p, settled, rec)
	}
	return runs
}

// checkDynRuns applies the output checks of one pass: convergence,
// quiet settled rounds, and (when full) the sampled players' stability
// under the plain uncached responder.
func checkDynRuns(o *outcome, ps []dynProblem, runs []dynRun, full bool) {
	for k, r := range runs {
		name := ps[k].in.inst.name
		o.check(r.converged, "dyn %s did not converge (rounds %d)", name, r.res.Rounds)
		if !r.converged {
			continue
		}
		o.check(r.settledMoves == 0, "dyn %s: settled rounds moved %d times", name, r.settledMoves)
		o.check(r.after.Resyncs == r.before.Resyncs && r.after.DeltaRepairs == r.before.DeltaRepairs,
			"dyn %s: settled rounds ran %d resyncs and %d delta repairs", name,
			r.after.Resyncs-r.before.Resyncs, r.after.DeltaRepairs-r.before.DeltaRepairs)
		if !full {
			continue
		}
		for _, u := range ps[k].in.sample {
			br := ps[k].plain(ps[k].game, r.res.Final, u)
			o.check(!br.Improves(), "dyn %s: player %d has an improving move in the final profile", name, u)
		}
	}
}

// setUpDynAll sets up every input of a set reps times and returns the
// last set-up with the duration of each repetition.
func setUpDynAll(ins []dynInput, reps int) ([]dynProblem, []float64) {
	var ps []dynProblem
	var took []float64
	runtime.GC()
	for k := 0; k < reps; k++ {
		t := time.Now()
		ps = make([]dynProblem, len(ins))
		for i, in := range ins {
			ps[i] = setUpDyn(in)
		}
		took = append(took, secs(time.Since(t)))
	}
	return ps, took
}

func runDyn(o runOpts) (*outcome, error) { return runDynWith(o, dynDefault) }

func runDynWith(o runOpts, cfg dynConfig) (*outcome, error) {
	if o.trace {
		return traceDyn(o, cfg)
	}
	out := newOutcome()
	start := time.Now()
	var setups, turns, heaps []float64
	walls := make([][]float64, cfg.sets)
	settled := make([][]float64, cfg.sets)
	for pass := 0; pass < cfg.sets || time.Since(start) < o.seconds; pass++ {
		set := pass % cfg.sets
		o.passHeap()
		ps, took := setUpDynAll(dynInputs(cfg, o.seed, set), cfg.setups)
		setups = append(setups, median(took))
		runs := dynPass(ps, cfg.settled, nil)
		heaps = append(heaps, o.passHeap())
		checkDynRuns(out, ps, runs, pass < cfg.sets)
		var wall time.Duration
		rounds := make([]float64, cfg.settled)
		for _, r := range runs {
			wall += r.converge
			for k, d := range r.settled {
				rounds[k] += ms(d)
			}
			if pass < cfg.sets {
				turns = append(turns, r.turns...)
			}
		}
		walls[set] = append(walls[set], secs(wall))
		settled[set] = append(settled[set], median(rounds))
	}
	perSet := func(xs [][]float64) []float64 {
		ms := make([]float64, len(xs))
		for i, x := range xs {
			ms[i] = median(x)
		}
		return ms
	}
	out.values["setup_s"] = median(setups)
	out.values["heap_peak_mb"] = median(heaps)
	out.values["wall_s"] = mean(perSet(walls))
	out.values["settled_ms"] = median(perSet(settled))
	out.values["p50_ms"] = quantile(turns, 0.5)
	out.values["p99_ms"] = quantile(turns, 0.99)
	passes := 0
	for _, w := range walls {
		passes += len(w)
	}
	out.note("%d passes over %d instance sets of %d instances; %d turn samples; %d settled rounds per instance",
		passes, cfg.sets, len(cfg.instances), len(turns), cfg.settled)
	return out, nil
}

// traceDyn alternates untraced and traced passes over the first
// instance set. The per-layer metrics come from the traced passes; the
// untraced twin of each pass checks that tracing changed no output.
func traceDyn(o runOpts, cfg dynConfig) (*outcome, error) {
	out := newOutcome()
	rec := NewRecorder()
	out.rec = rec
	ps, _ := setUpDynAll(dynInputs(cfg, o.seed, 0), 1)
	start := time.Now()
	var plainWall, tracedWall time.Duration
	var first []dynRun
	agg := make([]dynLayer, len(ps))
	for pass := 0; pass < 1 || time.Since(start) < o.seconds; pass++ {
		plain := dynPass(ps, cfg.settled, nil)
		traced := dynPass(ps, cfg.settled, rec)
		checkDynRuns(out, ps, traced, pass == 0)
		for k := range ps {
			name := ps[k].in.inst.name
			a, b := plain[k], traced[k]
			out.check(a.res.Rounds == b.res.Rounds && a.res.Moves == b.res.Moves && a.res.Final.Equal(b.res.Final),
				"dyn %s: traced run differs from untraced (rounds %d/%d, moves %d/%d)", name, a.res.Rounds, b.res.Rounds, a.res.Moves, b.res.Moves)
			plainWall += a.converge + sum(a.settled)
			tracedWall += b.converge + sum(b.settled)
			l := b.layer
			st := b.after
			out.check(l.badAcquire == 0 && l.rungCount["fill"] == st.Fills && l.rungCount["resync"] == st.Resyncs &&
				l.rungCount["delta"] == st.DeltaRepairs && l.rungCount["stampskip"] == st.StampSkips &&
				l.rungCount["hit"] == st.Hits-st.Resyncs-st.DeltaRepairs-st.StampSkips,
				"dyn %s: rung counts %v do not match PoolStats %+v", name, l.rungCount, st)
			if first != nil {
				f := first[k]
				out.check(f.after == b.after && f.layer.calls == l.calls, "dyn %s: counters differ between traced passes", name)
			}
			agg[k].scan += l.scan
			agg[k].wall += l.wall
			if agg[k].rung == nil {
				agg[k].rung = map[string]time.Duration{}
			}
			for r, d := range l.rung {
				agg[k].rung[r] += d
			}
		}
		if first == nil {
			first = traced
		}
	}
	var total time.Duration
	for _, a := range agg {
		total += a.wall
	}
	zeroLayers(out)
	for k, p := range ps {
		i := p.in.inst.name
		l, st := first[k].layer, first[k].after
		out.values["core.responder.scan_share."+i] = ratio(float64(agg[k].scan), float64(total))
		out.values["core.responder.calls."+i] = float64(l.calls)
		for _, r := range poolRungs {
			out.values["core.pool.acquire_share."+r+"."+i] = ratio(float64(agg[k].rung[r]), float64(total))
			out.values["core.pool.acquire_count."+r+"."+i] = float64(l.rungCount[r])
		}
		out.values["core.pool.full_refills."+i] = float64(st.FullRefills)
		out.values["core.pool.rows_patched."+i] = float64(st.RowsPatched)
		out.values["core.pool.rows_refilled."+i] = float64(st.RowsRefilled)
		out.values["core.pool.memo_hits."+i] = float64(st.MemoHits)
		out.values["core.pool.repair_useful_ratio."+i] = ratio(float64(st.Repairs-st.FullRefills), float64(st.Repairs))
		out.note("%s: rounds %d, moves %d, scan %.1f ms, acquire fill %.1f / resync %.1f / delta %.1f / stampskip %.1f / hit %.1f ms (%d/%d/%d/%d/%d)",
			i, first[k].res.Rounds, first[k].res.Moves, ms(l.scan),
			ms(l.rung["fill"]), ms(l.rung["resync"]), ms(l.rung["delta"]), ms(l.rung["stampskip"]), ms(l.rung["hit"]),
			l.rungCount["fill"], l.rungCount["resync"], l.rungCount["delta"], l.rungCount["stampskip"], l.rungCount["hit"])
	}
	out.values["bench.trace_overhead"] = ratio(float64(tracedWall), float64(plainWall))
	return out, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
