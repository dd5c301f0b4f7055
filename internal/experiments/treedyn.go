package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/sweep"
)

type treedynCell struct {
	ver    core.Version
	n      int
	trials int
}

type treedynRow struct {
	Version    string  `json:"version"`
	N          int     `json:"n"`
	Converged  int     `json:"converged"`
	Trees      int     `json:"trees"`
	IneqOK     int     `json:"ineqOK"`
	Diams      []int64 `json:"diams"`
	WorstRatio float64 `json:"worstRatio"`
}

func treeDynamicsJob(effort Effort, seed int64) runner.Job {
	ns := []int{8, 12}
	trials := 5
	if effort == Full {
		ns = []int{8, 12, 16, 24, 32}
		trials = 12
	}
	var points []runner.Point
	for _, ver := range []core.Version{core.SUM, core.MAX} {
		for _, n := range ns {
			points = append(points, runner.Point{Exp: "treedyn",
				Key:  fmt.Sprintf("ver=%v,n=%d,trials=%d", ver, n, trials),
				Seed: seed, Data: treedynCell{ver: ver, n: n, trials: trials}})
		}
	}
	return runner.Job{Exp: "treedyn", Points: points, Eval: evalTreeDynamics}
}

// evalTreeDynamics drives random Tree-BG instances of one (version, n)
// cell to equilibrium and audits every converged profile.
func evalTreeDynamics(p runner.Point) (any, error) {
	c := p.Data.(treedynCell)
	rng := rand.New(rand.NewSource(p.Seed + int64(c.n)*17 + int64(c.ver)))
	logBound := 2*math.Log2(float64(c.n)) + 2
	r := treedynRow{Version: c.ver.String(), N: c.n}
	for trial := 0; trial < c.trials; trial++ {
		budgets := randomTreeBudgets(c.n, rng)
		g := core.MustGame(budgets, c.ver)
		out, err := dynamics.RunFromRandom(g, rng, dynamics.Options{
			Cached:      core.ExactDeviatorResponder(0),
			DetectLoops: true,
			MaxRounds:   1500,
		})
		if err != nil {
			return nil, err
		}
		if !out.Converged {
			continue
		}
		r.Converged++
		a := out.Final.Underlying()
		diam := graph.Diameter(a)
		r.Diams = append(r.Diams, int64(diam))
		isTree := graph.IsConnected(a) && a.EdgeCount() == c.n-1 && len(out.Final.Braces()) == 0
		if isTree {
			r.Trees++
			audit, err := analysis.AuditTreeSumPath(out.Final)
			if err == nil && audit.InequalityOK {
				r.IneqOK++
			}
		}
		if ratio := float64(diam) / logBound; ratio > r.WorstRatio {
			r.WorstRatio = ratio
		}
	}
	return r, nil
}

func treeDynamicsTable(rows []treedynRow) *sweep.Table {
	t := sweep.NewTable("Tree-BG dynamics: random budget vectors with total n-1",
		"version", "n", "converged", "trees", "ineq(1)-holds", "diameter", "2log2(n)+2", "worst/bound")
	for _, r := range rows {
		t.Addf(r.Version, r.N, r.Converged, r.Trees, r.IneqOK,
			stats.Summarize(r.Diams).MeanStd(), 2*math.Log2(float64(r.N))+2, r.WorstRatio)
	}
	return t
}

// TreeDynamics probes the Trees row of Table 1 beyond the two canonical
// constructions: random Tree-BG budget vectors (total exactly n-1) are
// driven to equilibrium by exact best-response dynamics. Every converged
// SUM profile must be a tree (Lemma 3.1 + edge count), satisfy Theorem
// 3.3's inequality (1) along its longest path, and have diameter within
// the O(log n) regime; MAX equilibria are reported for contrast (they
// may legally be much deeper — the spider shows Theta(n) is possible).
func TreeDynamics(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[treedynRow](treeDynamicsJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return treeDynamicsTable(rows), nil
}

// randomTreeBudgets splits n-1 budget units over n players uniformly at
// random (each unit assigned to a random player, capped at n-1).
func randomTreeBudgets(n int, rng *rand.Rand) []int {
	budgets := make([]int, n)
	for i := 0; i < n-1; i++ {
		for {
			v := rng.Intn(n)
			if budgets[v] < n-1 {
				budgets[v]++
				break
			}
		}
	}
	return budgets
}
