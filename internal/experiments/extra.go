package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/center"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// ---------------------------------------------------------------------
// Theorem 2.3 existence sweep

type existenceRow struct {
	Budgets  []int `json:"budgets"`
	Sigma    int   `json:"sigma"`
	Diam     int64 `json:"diam"`
	SumOK    bool  `json:"sumOK"`
	MaxOK    bool  `json:"maxOK"`
	ConnCase bool  `json:"connCase"`
}

// existenceJob pre-draws every trial's budget vector from the seed (the
// generation stream is part of the point identity: evaluation itself
// consumes no randomness).
func existenceJob(effort Effort, seed int64) runner.Job {
	trials := 10
	maxN := 8
	if effort == Full {
		trials = 40
		maxN = 12
	}
	rng := rand.New(rand.NewSource(seed))
	points := make([]runner.Point, trials)
	for i := 0; i < trials; i++ {
		n := 3 + rng.Intn(maxN-2)
		budgets := make([]int, n)
		for j := range budgets {
			budgets[j] = rng.Intn(4)
			if budgets[j] >= n {
				budgets[j] = n - 1
			}
		}
		points[i] = runner.Point{Exp: "existence",
			Key:  fmt.Sprintf("effort=%s,trial=%d", effort.name(), i),
			Seed: seed, Data: budgets}
	}
	return runner.Job{Exp: "existence", Points: points, Eval: evalExistence}
}

// evalExistence builds the Theorem 2.3 construction for one budget
// vector and verifies it as a Nash equilibrium of both versions.
func evalExistence(p runner.Point) (any, error) {
	budgets := p.Data.([]int)
	d, err := construct.Existence(budgets)
	if err != nil {
		return nil, err
	}
	r := existenceRow{Budgets: budgets}
	for _, b := range budgets {
		r.Sigma += b
	}
	r.ConnCase = r.Sigma >= len(budgets)-1
	gSum := core.MustGame(budgets, core.SUM)
	gMax := core.MustGame(budgets, core.MAX)
	devS, err := gSum.VerifyNash(d, 0)
	if err != nil {
		return nil, err
	}
	devM, err := gMax.VerifyNash(d, 0)
	if err != nil {
		return nil, err
	}
	r.SumOK = devS == nil
	r.MaxOK = devM == nil
	r.Diam = gSum.SocialCost(d)
	return r, nil
}

func existenceTable(rows []existenceRow) *sweep.Table {
	t := sweep.NewTable("Theorem 2.3: constructed equilibria for random budget vectors (PoS = O(1))",
		"budgets", "sigma", "diameter", "SUM-nash", "MAX-nash")
	for _, r := range rows {
		diam := fmt.Sprintf("%d", r.Diam)
		if !r.ConnCase {
			diam = "n^2 (disconnected)"
		}
		t.Addf(fmt.Sprintf("%v", r.Budgets), r.Sigma, diam, yesNo(r.SumOK), yesNo(r.MaxOK))
	}
	return t
}

// Existence sweeps Theorem 2.3 over random budget vectors: the
// construction must always verify as a Nash equilibrium of both versions,
// with diameter <= 4 whenever the total budget reaches n-1 (the price of
// stability evidence).
func Existence(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[existenceRow](existenceJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return existenceTable(rows), nil
}

// ---------------------------------------------------------------------
// Theorem 2.1 reduction cross-check

type reductionRow struct {
	N       int   `json:"n"`
	K       int   `json:"k"`
	KCenter int64 `json:"kcenter"`
	ViaBRC  int64 `json:"viaBRC"`
	KMedian int64 `json:"kmedian"`
	ViaBRM  int64 `json:"viaBRM"`
	Match   bool  `json:"match"`
}

// reductionInstance is the pre-generated input of one reduction trial.
type reductionInstance struct {
	h *graph.Digraph
	k int
}

// reductionJob pre-draws every trial's host graph and k; the generation
// replays the historical stream exactly (graph first, then extra arcs,
// then k) so stored results stay valid across code motion.
func reductionJob(effort Effort, seed int64) runner.Job {
	trials := 8
	maxN := 8
	if effort == Full {
		trials = 25
		maxN = 11
	}
	rng := rand.New(rand.NewSource(seed))
	points := make([]runner.Point, trials)
	for i := 0; i < trials; i++ {
		n := 4 + rng.Intn(maxN-3)
		h := graph.RandomTree(n, rng)
		for e := 0; e < rng.Intn(3); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !h.Underlying().HasEdge(u, v) {
				h.AddArc(u, v)
			}
		}
		k := 1 + rng.Intn(3)
		if k > n {
			k = n
		}
		points[i] = runner.Point{Exp: "reduction",
			Key:  fmt.Sprintf("effort=%s,trial=%d", effort.name(), i),
			Seed: seed, Data: reductionInstance{h: h, k: k}}
	}
	return runner.Job{Exp: "reduction", Points: points, Eval: evalReduction}
}

// evalReduction checks Theorem 2.1 on one instance: the exact k-center /
// k-median optima must equal the fresh player's best-response values.
func evalReduction(p runner.Point) (any, error) {
	inst := p.Data.(reductionInstance)
	h, k := inst.h, inst.k
	n := h.N()
	dc, err := center.KCenterExact(h.Underlying(), k)
	if err != nil {
		return nil, err
	}
	gc, err := center.KCenterViaBestResponse(h, k, 0)
	if err != nil {
		return nil, err
	}
	dm, err := center.KMedianExact(h.Underlying(), k)
	if err != nil {
		return nil, err
	}
	gm, err := center.KMedianViaBestResponse(h, k, 0)
	if err != nil {
		return nil, err
	}
	return reductionRow{N: n, K: k,
		KCenter: dc.Value, ViaBRC: gc.Value,
		KMedian: dm.Value, ViaBRM: gm.Value,
		Match: dc.Value == gc.Value && dm.Value == gm.Value}, nil
}

func reductionTable(rows []reductionRow) (*sweep.Table, error) {
	t := sweep.NewTable("Theorem 2.1: best response == k-center (MAX) / k-median (SUM)",
		"n", "k", "kcenter", "via-BR", "kmedian", "via-BR", "match")
	for _, r := range rows {
		t.Addf(r.N, r.K, r.KCenter, r.ViaBRC, r.KMedian, r.ViaBRM, yesNo(r.Match))
		if !r.Match {
			return t, fmt.Errorf("reduction mismatch at n=%d k=%d", r.N, r.K)
		}
	}
	return t, nil
}

// Reduction cross-checks Theorem 2.1: optimal k-center / k-median values
// computed directly must equal the fresh player's best-response cost
// (shifted by the reduction's offset) on random connected graphs.
func Reduction(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[reductionRow](reductionJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return reductionTable(rows)
}

// ---------------------------------------------------------------------
// Theorem 7.2 connectivity dichotomy

type connectivityRow struct {
	N         int `json:"n"`
	K         int `json:"k"`
	Converged int `json:"converged"`
	Satisfied int `json:"satisfied"`
	KConn     int `json:"kconn"`
	SmallDiam int `json:"smallDiam"`
}

func connectivityJob(effort Effort, seed int64) runner.Job {
	type point struct{ n, k int }
	points := []point{{6, 2}, {8, 2}, {8, 3}}
	if effort == Full {
		points = []point{{6, 2}, {8, 2}, {10, 2}, {8, 3}, {10, 3}, {12, 3}, {12, 4}}
	}
	rp := make([]runner.Point, len(points))
	for i, p := range points {
		rp[i] = runner.Point{Exp: "connectivity", Key: fmt.Sprintf("n=%d,k=%d", p.n, p.k),
			Seed: seed, Data: [2]int{p.n, p.k}}
	}
	return runner.Job{Exp: "connectivity", Points: rp, Eval: evalConnectivity}
}

// evalConnectivity runs the dynamics trials of one (n, k) cell and
// audits each reached equilibrium against the Theorem 7.2 dichotomy.
func evalConnectivity(p runner.Point) (any, error) {
	const trials = 4
	nk := p.Data.([2]int)
	n, k := nk[0], nk[1]
	rng := rand.New(rand.NewSource(p.Seed + int64(n*31+k)))
	g := core.UniformGame(n, k, core.SUM)
	r := connectivityRow{N: n, K: k}
	pool := core.NewCachePool(g, 0)
	defer pool.Close()
	for trial := 0; trial < trials; trial++ {
		cached := core.DeviatorResponder(core.GreedyDeviatorResponder)
		if core.StrategySpaceSize(n, k) <= 3000 {
			cached = core.ExactDeviatorResponder(0)
		}
		out, err := dynamics.RunFromRandom(g, rng, dynamics.Options{
			Cached:      cached,
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
		// The dichotomy is a theorem about exact equilibria; for
		// greedy fixed points it is measured, not asserted.
		r.Converged++
		audit := analysis.AuditConnectivity(out.Final, k)
		if audit.Satisfied {
			r.Satisfied++
		}
		if audit.KConn {
			r.KConn++
		}
		if audit.Diameter >= 0 && audit.Diameter < 4 {
			r.SmallDiam++
		}
	}
	return r, nil
}

func connectivityTable(rows []connectivityRow) *sweep.Table {
	t := sweep.NewTable("Theorem 7.2: SUM equilibria with budgets >= k are k-connected or have diameter < 4",
		"n", "k", "converged", "dichotomy-holds", "k-connected", "diam<4")
	for _, r := range rows {
		t.Addf(r.N, r.K, r.Converged, r.Satisfied, r.KConn, r.SmallDiam)
	}
	return t
}

// Connectivity checks the Theorem 7.2 dichotomy on SUM equilibria reached
// by dynamics in uniform-budget games: diameter < 4 or k-connected.
func Connectivity(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[connectivityRow](connectivityJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return connectivityTable(rows), nil
}

// ---------------------------------------------------------------------
// Section 8 convergence statistics

type dynStatsRow struct {
	Version     string `json:"version"`
	Scheduler   string `json:"scheduler"`
	N           int    `json:"n"`
	Trials      int    `json:"trials"`
	Converged   int    `json:"converged"`
	Loops       int    `json:"loops"`
	Timeouts    int    `json:"timeouts"`
	TotalRounds int    `json:"totalRounds"`
}

type dynStatsCell struct {
	ver   core.Version
	sched string
	n     int
}

func dynamicsStatsJob(effort Effort, seed int64) runner.Job {
	ns := []int{6, 8}
	trials := 10
	if effort == Full {
		ns = []int{6, 8, 10, 12, 16}
		trials = 30
	}
	var points []runner.Point
	for _, ver := range []core.Version{core.SUM, core.MAX} {
		for _, schedName := range []string{"round-robin", "random-order"} {
			for _, n := range ns {
				points = append(points, runner.Point{Exp: "dynamics-stats",
					Key:  fmt.Sprintf("ver=%v,sched=%s,n=%d,trials=%d", ver, schedName, n, trials),
					Seed: seed, Data: dynStatsCell{ver: ver, sched: schedName, n: n}})
			}
		}
	}
	return runner.Job{Exp: "dynamics-stats", Points: points, Eval: func(p runner.Point) (any, error) {
		return evalDynamicsStats(trials, p)
	}}
}

// evalDynamicsStats measures convergence/loop/timeout rates of one
// (version, scheduler, n) cell.
func evalDynamicsStats(trials int, p runner.Point) (any, error) {
	cell := p.Data.(dynStatsCell)
	rng := rand.New(rand.NewSource(p.Seed + int64(cell.n)))
	g := core.UniformGame(cell.n, 1, cell.ver)
	r := dynStatsRow{Version: cell.ver.String(), Scheduler: cell.sched, N: cell.n, Trials: trials}
	pool := core.NewCachePool(g, 0)
	defer pool.Close()
	for trial := 0; trial < trials; trial++ {
		var sched dynamics.Scheduler = dynamics.RoundRobin{}
		if cell.sched == "random-order" {
			sched = dynamics.RandomOrder{Rng: rng}
		}
		out, err := dynamics.RunFromRandom(g, rng, dynamics.Options{
			Cached:      core.ExactDeviatorResponder(0),
			Scheduler:   sched,
			DetectLoops: true,
			MaxRounds:   1500,
			Pool:        pool,
		})
		if err != nil {
			return nil, err
		}
		r.TotalRounds += out.Rounds
		switch {
		case out.Converged:
			r.Converged++
		case out.Loop:
			r.Loops++
		default:
			r.Timeouts++
		}
	}
	return r, nil
}

func dynamicsStatsTable(rows []dynStatsRow) *sweep.Table {
	t := sweep.NewTable("Section 8: does best-response dynamics converge? (empirical)",
		"version", "scheduler", "n", "trials", "converged", "loops", "timeouts", "avg-rounds")
	for _, r := range rows {
		t.Addf(r.Version, r.Scheduler, r.N, r.Trials, r.Converged, r.Loops, r.Timeouts,
			float64(r.TotalRounds)/float64(r.Trials))
	}
	return t
}

// DynamicsStats addresses the Section 8 open question empirically:
// convergence/loop rates of best-response dynamics across versions and
// schedulers.
func DynamicsStats(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[dynStatsRow](dynamicsStatsJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return dynamicsStatsTable(rows), nil
}
