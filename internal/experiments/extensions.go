package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/basic"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/enumerate"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// ---------------------------------------------------------------------
// Exact PoA/PoS by exhaustive enumeration

type poaInst struct {
	name    string
	budgets []int
	version core.Version
}

func poaInsts(effort Effort) []poaInst {
	insts := []poaInst{
		{"(1,1,1) SUM", []int{1, 1, 1}, core.SUM},
		{"(1,1,1,1) SUM", []int{1, 1, 1, 1}, core.SUM},
		{"(1,1,1,1) MAX", []int{1, 1, 1, 1}, core.MAX},
		{"(2,1,0,0) SUM", []int{2, 1, 0, 0}, core.SUM},
	}
	if effort == Full {
		insts = append(insts,
			poaInst{"(1,1,1,1,1) SUM", []int{1, 1, 1, 1, 1}, core.SUM},
			poaInst{"(1,1,1,1,1) MAX", []int{1, 1, 1, 1, 1}, core.MAX},
			poaInst{"(2,2,1,0,0) SUM", []int{2, 2, 1, 0, 0}, core.SUM},
			poaInst{"(2,2,1,0,0) MAX", []int{2, 2, 1, 0, 0}, core.MAX},
			poaInst{"(2,1,1,1,0) MAX", []int{2, 1, 1, 1, 0}, core.MAX},
		)
	}
	return insts
}

type poaRow struct {
	Name          string `json:"name"`
	Profiles      int64  `json:"profiles"`
	Equilibria    int64  `json:"equilibria"`
	MinDiameter   int64  `json:"minDiameter"`
	MinEqDiameter int64  `json:"minEqDiameter"`
	MaxEqDiameter int64  `json:"maxEqDiameter"`
}

// exactPoAJob enumerates one instance per point; the instance names are
// the point keys (each instance means the same computation at every
// effort, so Quick results are reused by Full runs).
func exactPoAJob(effort Effort) runner.Job {
	insts := poaInsts(effort)
	points := make([]runner.Point, len(insts))
	for i, in := range insts {
		points[i] = runner.Point{Exp: "exact-poa", Key: in.name, Data: in}
	}
	return runner.Job{Exp: "exact-poa", Points: points, Eval: evalExactPoA}
}

func evalExactPoA(p runner.Point) (any, error) {
	in := p.Data.(poaInst)
	g := core.MustGame(in.budgets, in.version)
	res, err := enumerate.All(g, 2_000_000)
	if err != nil {
		return nil, err
	}
	return poaRow{Name: in.name, Profiles: res.Profiles, Equilibria: res.Equilibria,
		MinDiameter: res.MinDiameter, MinEqDiameter: res.MinEqDiameter,
		MaxEqDiameter: res.MaxEqDiameter}, nil
}

func exactPoATable(rows []poaRow) *sweep.Table {
	t := sweep.NewTable("Exact equilibrium landscape (exhaustive profile enumeration)",
		"instance", "profiles", "equilibria", "opt-diam", "best-eq", "worst-eq", "PoS", "PoA")
	for _, r := range rows {
		// The PoA/PoS ratios replay enumerate.All's rule: NaN when the
		// instance has no equilibrium.
		pos, poa := math.NaN(), math.NaN()
		if r.Equilibria > 0 {
			pos = float64(r.MinEqDiameter) / float64(r.MinDiameter)
			poa = float64(r.MaxEqDiameter) / float64(r.MinDiameter)
		}
		t.Addf(r.Name, r.Profiles, r.Equilibria, r.MinDiameter,
			r.MinEqDiameter, r.MaxEqDiameter, pos, poa)
	}
	return t
}

// ExactPoA enumerates the full profile space of small games and reports
// the exact price of anarchy and price of stability — the quantities
// Table 1 bounds asymptotically, here computed with no slack.
func ExactPoA(effort Effort) (*sweep.Table, error) {
	rows, err := runRows[poaRow](exactPoAJob(effort))
	if err != nil {
		return nil, err
	}
	return exactPoATable(rows), nil
}

// ---------------------------------------------------------------------
// Section 8 uniform-budget (B > 1) open problem

type uniformCell struct {
	ver   core.Version
	n, b  int
	exact bool
}

type uniformRow struct {
	Version string `json:"version"`
	N       int    `json:"n"`
	B       int    `json:"b"`
	Exact   bool   `json:"exact"`
	// Exact tier (exhaustive enumeration).
	Equilibria    int64 `json:"equilibria"`
	MinDiameter   int64 `json:"minDiameter"`
	MaxEqDiameter int64 `json:"maxEqDiameter"`
	// Dynamics tier.
	Count int   `json:"count"`
	Opt   int64 `json:"opt"`
	Worst int64 `json:"worst"`
}

// uniformBudgetJob interleaves the exact and dynamics tiers per version,
// matching the historical output order. Exact-tier points are
// seed-independent (exhaustive enumeration), so they carry seed 0 and
// are shared across -seed values.
func uniformBudgetJob(effort Effort, seed int64) runner.Job {
	var points []runner.Point
	add := func(c uniformCell) {
		method, s := "dynamics", seed
		if c.exact {
			method, s = "exact", 0
		}
		points = append(points, runner.Point{Exp: "uniform-budget",
			Key:  fmt.Sprintf("ver=%v,n=%d,B=%d,method=%s", c.ver, c.n, c.b, method),
			Seed: s, Data: c})
	}
	for _, ver := range []core.Version{core.SUM, core.MAX} {
		exactNs := []struct{ n, b int }{{4, 1}, {4, 2}}
		if effort == Full {
			exactNs = append(exactNs, struct{ n, b int }{5, 1}, struct{ n, b int }{5, 2})
		}
		for _, p := range exactNs {
			add(uniformCell{ver: ver, n: p.n, b: p.b, exact: true})
		}
		dynNs := []struct{ n, b int }{{12, 2}}
		if effort == Full {
			dynNs = []struct{ n, b int }{{12, 2}, {16, 2}, {16, 3}, {24, 3}, {24, 4}}
		}
		for _, p := range dynNs {
			add(uniformCell{ver: ver, n: p.n, b: p.b})
		}
	}
	return runner.Job{Exp: "uniform-budget", Points: points, Eval: evalUniformBudget}
}

func evalUniformBudget(p runner.Point) (any, error) {
	c := p.Data.(uniformCell)
	row := uniformRow{Version: c.ver.String(), N: c.n, B: c.b, Exact: c.exact}
	if c.exact {
		rows, err := enumerate.Uniform(c.n, []int{c.b}, c.ver, 5_000_000)
		if err != nil {
			return nil, err
		}
		r := rows[0]
		row.Equilibria, row.MinDiameter, row.MaxEqDiameter = r.Equilibria, r.MinDiameter, r.MaxEqDiameter
		return row, nil
	}
	rng := rand.New(rand.NewSource(p.Seed + int64(c.n*13+c.b)))
	g := core.UniformGame(c.n, c.b, c.ver)
	row.Worst = -1
	pool := core.NewCachePool(g, 0)
	defer pool.Close()
	for trial := 0; trial < 6; trial++ {
		out, err := dynamics.RunFromRandom(g, rng, dynamics.Options{
			Cached:      core.GreedyDeviatorResponder,
			DetectLoops: true,
			MaxRounds:   300,
			Pool:        pool,
		})
		if err != nil {
			return nil, err
		}
		if !out.Converged {
			continue
		}
		row.Count++
		if sc := g.SocialCost(out.Final); sc > row.Worst {
			row.Worst = sc
		}
	}
	opt, err := analysis.OptDiameterUpperBound(g.Budgets)
	if err != nil {
		return nil, err
	}
	row.Opt = opt
	return row, nil
}

func uniformBudgetTable(rows []uniformRow) *sweep.Table {
	t := sweep.NewTable("Section 8 open problem: uniform budgets B > 1 (exact where feasible)",
		"version", "n", "B", "method", "equilibria", "opt-diam", "worst-eq-diam", "PoA")
	for _, r := range rows {
		if r.Exact {
			poa := math.NaN()
			if r.Equilibria > 0 {
				poa = float64(r.MaxEqDiameter) / float64(r.MinDiameter)
			}
			t.Addf(r.Version, r.N, r.B, "exact", r.Equilibria, r.MinDiameter,
				r.MaxEqDiameter, poa)
			continue
		}
		poa := math.NaN()
		if r.Worst >= 0 {
			poa = float64(r.Worst) / float64(r.Opt)
		}
		t.Addf(r.Version, r.N, r.B, fmt.Sprintf("dynamics(%d eq)", r.Count),
			"-", r.Opt, r.Worst, poa)
	}
	return t
}

// UniformBudget explores the Section 8 open problem — equilibria of
// uniform-budget games with B > 1 — exactly where the profile space
// permits, and via dynamics beyond.
func UniformBudget(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[uniformRow](uniformBudgetJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return uniformBudgetTable(rows), nil
}

// ---------------------------------------------------------------------
// Baseline contrast with basic network creation games

type baselineRow struct {
	K          int   `json:"k"`
	N          int   `json:"n"`
	SpiderDiam int32 `json:"spiderDiam"`
	BGNash     bool  `json:"bgNash"`
	BasicEq    bool  `json:"basicEq"`
	DynDiam    int32 `json:"dynDiam"`
}

// baselineJob is a single-point job: the swap-dynamics trials share one
// rng stream across spider sizes (the historical generation order), so
// the whole sweep is one atomic point whose value is the row list.
func baselineJob(effort Effort, seed int64) runner.Job {
	points := []runner.Point{{Exp: "baseline",
		Key:  fmt.Sprintf("effort=%s", effort.name()),
		Seed: seed, Data: effort}}
	return runner.Job{Exp: "baseline", Points: points, Eval: evalBaseline}
}

func evalBaseline(p runner.Point) (any, error) {
	effort := p.Data.(Effort)
	ks := []int{3, 5}
	if effort == Full {
		ks = []int{3, 5, 8, 12}
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var rows []baselineRow
	for _, k := range ks {
		d, budgets, err := construct.Spider(k)
		if err != nil {
			return nil, err
		}
		g := core.MustGame(budgets, core.MAX)
		dev, err := g.VerifyNash(d, 0)
		if err != nil {
			return nil, err
		}
		bg := basic.Game{Version: core.MAX}
		basicEq := bg.IsSwapEquilibrium(d.Underlying()) == nil
		res := bg.SwapDynamics(d.Underlying(), rng, 500)
		rows = append(rows, baselineRow{K: k, N: d.N(),
			SpiderDiam: graph.Diameter(d.Underlying()), BGNash: dev == nil,
			BasicEq: basicEq, DynDiam: graph.Diameter(res.Final)})
	}
	return rows, nil
}

func baselineTable(rows []baselineRow) *sweep.Table {
	t := sweep.NewTable("Baseline: bounded-budget (ownership) vs basic (swap) network creation, MAX version",
		"k", "n", "spider-diam", "BG-nash", "basic-equilibrium", "basic-dyn-diam")
	for _, r := range rows {
		t.Addf(r.K, r.N, r.SpiderDiam, yesNo(r.BGNash), yesNo(r.BasicEq), r.DynDiam)
	}
	return t
}

// BaselineContrast reproduces the Section 1.1 comparison with basic
// network creation games (Alon et al.): the ownership structure of the
// bounded-budget game is what lets the spider survive as a MAX
// equilibrium; without ownership, swap dynamics collapse trees to
// diameter <= 3.
func BaselineContrast(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[[]baselineRow](baselineJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return baselineTable(flatten(rows)), nil
}

// ---------------------------------------------------------------------
// Section 6 machinery audits

type weakRow struct {
	N              int    `json:"n"`
	Source         string `json:"source"`
	Radius         int    `json:"radius"`
	MaxPairDist    int32  `json:"maxPairDist"`
	Folds          int    `json:"folds"`
	DiameterShrink int32  `json:"diameterShrink"`
	WeakPreserved  bool   `json:"weakPreserved"`
}

// weakMachineryJob is a single-point job: the dynamics runs that
// produce the audited equilibria share one rng stream across sizes, so
// the whole audit is one atomic point whose value is the row list.
func weakMachineryJob(effort Effort, seed int64) runner.Job {
	points := []runner.Point{{Exp: "weak-machinery",
		Key:  fmt.Sprintf("effort=%s", effort.name()),
		Seed: seed, Data: effort}}
	return runner.Job{Exp: "weak-machinery", Points: points, Eval: evalWeakMachinery}
}

func evalWeakMachinery(p runner.Point) (any, error) {
	effort := p.Data.(Effort)
	ns := []int{8, 12}
	if effort == Full {
		ns = []int{8, 12, 16, 24, 32}
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var rows []weakRow
	audit := func(label string, d *graph.Digraph, n int) error {
		radius := analysis.MaxTreeBallRadius(d)
		wg := core.NewWeighted(d.Clone())
		leafAudit := analysis.AuditRichLeaves(wg)
		report, err := analysis.FoldExperiment(wg)
		if err != nil {
			return err
		}
		rows = append(rows, weakRow{N: n, Source: label, Radius: radius,
			MaxPairDist: leafAudit.MaxPairDist, Folds: report.Folds,
			DiameterShrink: report.DiameterShrink,
			WeakPreserved:  !report.WeakBefore || report.WeakAfter})
		return nil
	}
	for _, n := range ns {
		g := core.UniformGame(n, 1, core.SUM)
		out, err := dynamics.RunFromRandom(g, rng, dynamics.Options{
			Cached:      core.ExactDeviatorResponder(0),
			DetectLoops: true, MaxRounds: 1000,
		})
		if err != nil {
			return nil, err
		}
		if out.Converged {
			if err := audit("unit-dynamics", out.Final, n); err != nil {
				return nil, err
			}
		}
	}
	// The binary tree, the canonical SUM equilibrium with many poor
	// leaves to fold.
	for _, k := range []int{3, 4} {
		d, _, err := construct.PerfectBinaryTree(k)
		if err != nil {
			return nil, err
		}
		if err := audit(fmt.Sprintf("binary-tree k=%d", k), d, d.N()); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func weakMachineryTable(rows []weakRow) *sweep.Table {
	t := sweep.NewTable("Section 6 machinery on SUM equilibria",
		"n", "source", "tree-ball-radius", "2log2(n)+4", "rich-leaf-dist", "folds", "diam-shrink", "weak-preserved")
	for _, r := range rows {
		t.Addf(r.N, r.Source, r.Radius, 2*int(math.Log2(float64(r.N)))+4,
			r.MaxPairDist, r.Folds, r.DiameterShrink, yesNo(r.WeakPreserved))
	}
	return t
}

// WeakMachinery runs the Section 6 audits on SUM equilibria: tree-ball
// radii (Theorem 6.1), rich-leaf distances (Lemma 6.4) and the folding
// experiment (Corollary 6.3).
func WeakMachinery(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[[]weakRow](weakMachineryJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return weakMachineryTable(flatten(rows)), nil
}
