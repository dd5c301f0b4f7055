// Benchmark harness: one benchmark per evaluation artifact of the paper
// (every Table 1 cell and every figure), plus ablation benchmarks for the
// engine's design choices (responder, incremental cost evaluation, loop
// detection, parallel all-sources BFS). Run with
//
//	go test -bench=. -benchmem
//
// Each Table/Figure benchmark executes the same code path as the
// corresponding `bbncg` subcommand at Quick effort, so benchmark time is
// the cost of regenerating that artifact.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/graph"
)

// --- Table 1 ---------------------------------------------------------

// BenchmarkTable1TreesMAX regenerates the Trees/MAX cell: spider
// construction + exact parallel Nash verification + PoA measurement.
func BenchmarkTable1TreesMAX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1TreesMAX(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1TreesSUM regenerates the Trees/SUM cell: binary-tree
// equilibria + Theorem 3.3 inequality audit.
func BenchmarkTable1TreesSUM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1TreesSUM(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1UnitSUM regenerates the All-Unit/SUM cell: exact
// best-response dynamics to equilibrium plus structure audits.
func BenchmarkTable1UnitSUM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table1Unit(core.SUM, experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1UnitMAX regenerates the All-Unit/MAX cell.
func BenchmarkTable1UnitMAX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table1Unit(core.MAX, experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1PositiveMAX regenerates the All-Positive/MAX cell:
// shift-graph construction, Lemma 5.2 certification and exact Nash checks.
func BenchmarkTable1PositiveMAX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1PositiveMAX(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1GeneralSUM regenerates the General/SUM cell: dynamics
// over random budget vectors against the 2^O(sqrt(log n)) bound.
func BenchmarkTable1GeneralSUM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := experiments.Table1GeneralSUM(experiments.Quick, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1GeneralMAX regenerates the General/MAX cell, whose
// Theta(n) lower bound is witnessed by the same spider family as the
// tree row (the general row's upper bound is trivial).
func BenchmarkTable1GeneralMAX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1TreesMAX(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures ---------------------------------------------------------

// BenchmarkFigure1 rebuilds and fully verifies the printed Figure 1
// equilibrium (n=22, both versions).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 rebuilds and verifies the Figure 2 spider at k=5.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 runs the Figure 3 subtree-weight audit at k=4.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Auxiliary theorem harnesses --------------------------------------

// BenchmarkExistence sweeps Theorem 2.3 constructions with verification.
func BenchmarkExistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Existence(experiments.Quick, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduction cross-checks the Theorem 2.1 reduction.
func BenchmarkReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Reduction(experiments.Quick, 11); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnectivity runs the Theorem 7.2 dichotomy sweep.
func BenchmarkConnectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Connectivity(experiments.Quick, 17); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamics runs the Section 8 convergence statistics sweep.
func BenchmarkDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DynamicsStats(experiments.Quick, 23); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactPoA enumerates the full profile space of the small
// instance battery (exact price of anarchy / stability).
func BenchmarkExactPoA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExactPoA(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniformBudget runs the Section 8 uniform-budget exploration.
func BenchmarkUniformBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.UniformBudget(experiments.Quick, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineContrast runs the basic-game baseline comparison.
func BenchmarkBaselineContrast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BaselineContrast(experiments.Quick, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeakMachinery runs the Section 6 audits.
func BenchmarkWeakMachinery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WeakMachinery(experiments.Quick, 13); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations of the engine's design choices -------------------------

func ablationGame() (*core.Game, *graph.Digraph) {
	g := core.UniformGame(24, 2, core.SUM)
	d := dynamics.RandomProfile(g, rand.New(rand.NewSource(42)))
	return g, d
}

// BenchmarkAblationResponderExact: full C(n-1,b) enumeration per move.
func BenchmarkAblationResponderExact(b *testing.B) {
	g, d := ablationGame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.Run(g, d, dynamics.Options{
			Responder: core.ExactResponder(0), MaxRounds: 5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationResponderGreedy: marginal-cost greedy per move.
func BenchmarkAblationResponderGreedy(b *testing.B) {
	g, d := ablationGame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.Run(g, d, dynamics.Options{
			Responder: core.GreedyResponder, MaxRounds: 5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationResponderSwap: best single-arc swap per move.
func BenchmarkAblationResponderSwap(b *testing.B) {
	g, d := ablationGame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.Run(g, d, dynamics.Options{
			Responder: core.SwapResponder, MaxRounds: 5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCostEvalDeviator: evaluating 100 candidate strategies
// through the incremental Deviator (one BFS each, no graph rebuild).
func BenchmarkAblationCostEvalDeviator(b *testing.B) {
	g, d := ablationGame()
	dv := core.NewDeviator(g, d, 0)
	cands := candidateStrategies(g.N(), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range cands {
			dv.Eval(s)
		}
	}
}

// BenchmarkAblationCostEvalRebuild: the naive alternative — clone the
// graph, rewrite the strategy, recompute the cost from scratch.
func BenchmarkAblationCostEvalRebuild(b *testing.B) {
	g, d := ablationGame()
	cands := candidateStrategies(g.N(), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range cands {
			h := d.Clone()
			h.SetOut(0, s)
			g.Cost(h, 0)
		}
	}
}

func candidateStrategies(n, count int) [][]int {
	rng := rand.New(rand.NewSource(7))
	cands := make([][]int, count)
	for i := range cands {
		a := 1 + rng.Intn(n-1)
		c := 1 + rng.Intn(n-1)
		for c == a {
			c = 1 + rng.Intn(n-1)
		}
		cands[i] = []int{a, c}
	}
	return cands
}

// BenchmarkAblationLoopDetectOn/Off: profile hashing cost in dynamics.
func BenchmarkAblationLoopDetectOn(b *testing.B) {
	g, d := ablationGame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.Run(g, d, dynamics.Options{
			Responder: core.GreedyResponder, MaxRounds: 20, DetectLoops: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLoopDetectOff(b *testing.B) {
	g, d := ablationGame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.Run(g, d, dynamics.Options{
			Responder: core.GreedyResponder, MaxRounds: 20,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAPSPParallel measures the worker-pool all-sources BFS
// (n = 2048 ring-with-chords, large enough to engage the pool).
func BenchmarkAblationAPSPParallel(b *testing.B) {
	a := chordRing(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, connected := graph.Eccentricities(a); !connected {
			b.Fatal("disconnected bench graph")
		}
	}
}

// BenchmarkAblationAPSPSequential is the single-scratch baseline.
func BenchmarkAblationAPSPSequential(b *testing.B) {
	a := chordRing(2048)
	s := graph.NewScratch(len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for src := 0; src < len(a); src++ {
			s.BFS(a, src)
		}
	}
}

func chordRing(n int) graph.Und {
	d := graph.CycleGraph(n)
	for v := 0; v < n; v += 16 {
		d.AddArc(v, (v+n/2)%n)
	}
	return d.Underlying()
}

// BenchmarkGreedyDynamicsRound measures one full greedy-response round
// (every player responds once) across the perf-trajectory sizes:
// "Baseline" is the pre-cache configuration (BFS per candidate,
// sequential round), "Fast" the distance-cache engine with parallel
// within-round evaluation.
func BenchmarkGreedyDynamicsRound(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		g := core.UniformGame(n, 2, core.SUM)
		start := dynamics.RandomProfile(g, rand.New(rand.NewSource(1)))
		round := func(b *testing.B, parallel bool) {
			for i := 0; i < b.N; i++ {
				if _, err := dynamics.Run(g, start, dynamics.Options{
					Responder: core.GreedyResponder, MaxRounds: 1, Parallel: parallel,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("Baseline/n=%d", n), func(b *testing.B) {
			old := core.DefaultCacheBudget
			core.DefaultCacheBudget = 0
			defer func() { core.DefaultCacheBudget = old }()
			round(b, false)
		})
		b.Run(fmt.Sprintf("Fast/n=%d", n), func(b *testing.B) {
			round(b, true)
		})
	}
}

// BenchmarkVerifySpider measures exact parallel Nash verification on a
// single large spider (the dominant cost of the Trees/MAX row at Full
// effort).
func BenchmarkVerifySpider(b *testing.B) {
	d, budgets, err := construct.Spider(10)
	if err != nil {
		b.Fatal(err)
	}
	g := core.MustGame(budgets, core.MAX)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := g.VerifyNash(d, 0)
		if err != nil || dev != nil {
			b.Fatalf("dev=%v err=%v", dev, err)
		}
	}
}

// BenchmarkConnectivityAudit measures the max-flow k-connectivity audit
// used by the Theorem 7.2 sweep.
func BenchmarkConnectivityAudit(b *testing.B) {
	sg, err := construct.NewShiftGraph(4, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.AuditConnectivity(sg.D, 2)
	}
}
