package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/sweep"
)

type robustCell struct {
	family    string
	n, trials int
}

type robustRow struct {
	Family    string  `json:"family"`
	N         int     `json:"n"`
	Trials    int     `json:"trials"`
	Converged int     `json:"converged"`
	Diams     []int64 `json:"diams"`
	Rounds    []int64 `json:"rounds"`
}

// robustFamilies names the initial-overlay generators, in output order.
var robustFamilies = []string{"random", "pref-attach", "small-world", "lattice"}

// makeOverlay draws one starting overlay of the named family.
func makeOverlay(family string, n int, rng *rand.Rand) (*graph.Digraph, error) {
	switch family {
	case "random":
		budgets := make([]int, n)
		for i := range budgets {
			budgets[i] = 2
		}
		return graph.RandomOutDigraph(budgets, rng), nil
	case "pref-attach":
		return graph.PreferentialAttachment(n, 2, rng)
	case "small-world":
		return graph.SmallWorld(n, 4, 0.2, rng)
	case "lattice":
		return graph.SmallWorld(n, 4, 0, rng)
	default:
		return nil, fmt.Errorf("experiments: unknown overlay family %q", family)
	}
}

func robustnessJob(effort Effort, seed int64) runner.Job {
	n := 20
	trials := 4
	if effort == Full {
		n = 32
		trials = 10
	}
	points := make([]runner.Point, len(robustFamilies))
	for i, f := range robustFamilies {
		points[i] = runner.Point{Exp: "robustness",
			Key:  fmt.Sprintf("family=%s,n=%d,trials=%d", f, n, trials),
			Seed: seed, Data: robustCell{family: f, n: n, trials: trials}}
	}
	return runner.Job{Exp: "robustness", Points: points, Eval: evalRobustness}
}

// evalRobustness drives greedy dynamics from one start family's random
// overlays and collects equilibrium quality samples.
func evalRobustness(p runner.Point) (any, error) {
	c := p.Data.(robustCell)
	rng := rand.New(rand.NewSource(p.Seed + int64(len(c.family))))
	r := robustRow{Family: c.family, N: c.n, Trials: c.trials}
	for trial := 0; trial < c.trials; trial++ {
		start, err := makeOverlay(c.family, c.n, rng)
		if err != nil {
			return nil, err
		}
		g := core.MustGame(graph.BudgetsOf(start), core.SUM)
		out, err := dynamics.Run(g, start, dynamics.Options{
			Cached:      core.GreedyDeviatorResponder,
			DetectLoops: true,
			MaxRounds:   300,
		})
		if err != nil {
			return nil, err
		}
		if !out.Converged {
			continue
		}
		r.Converged++
		r.Diams = append(r.Diams, g.SocialCost(out.Final))
		r.Rounds = append(r.Rounds, int64(out.Rounds))
	}
	return r, nil
}

func robustnessTable(rows []robustRow) *sweep.Table {
	n := 0
	if len(rows) > 0 {
		n = rows[0].N
	}
	t := sweep.NewTable(
		fmt.Sprintf("Robustness: greedy dynamics from diverse initial overlays (n=%d, SUM)", n),
		"start-family", "trials", "converged", "eq-diameter", "rounds")
	for _, r := range rows {
		t.Addf(r.Family, r.Trials, r.Converged,
			stats.Summarize(r.Diams).MeanStd(), stats.Summarize(r.Rounds).MeanStd())
	}
	return t
}

// Robustness runs best-response dynamics from structurally diverse
// initial overlays — uniform random, preferential attachment (hub-heavy,
// the shape real P2P bootstrap tends toward), small-world lattices and
// long paths — and reports equilibrium quality per start family. The
// game's predictions (convergence; small equilibrium diameters) should
// not depend on where the dynamics start; this sweep is the evidence.
func Robustness(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[robustRow](robustnessJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return robustnessTable(rows), nil
}
