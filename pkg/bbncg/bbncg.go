// Package bbncg is the public API surface of the bounded budget network
// creation game engine: game construction, realizations, best-response
// computation, equilibrium checks, welfare, response dynamics, and the
// warm distance-cache pool that makes repeated queries against a slowly
// mutating graph cheap (stamp skip → journal delta repair → full
// resync; see internal/core).
//
// The heavy machinery lives in internal packages; this package promotes
// the session-facing types and constructors so that long-running
// embedders — `bbncg serve` first among them — are thin shells over a
// stable surface instead of forks of the CLI. Types are aliased rather
// than wrapped: a bbncg.Game IS a core.Game, so there is no translation
// layer to drift.
package bbncg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Version selects the cost function of the game: SUM (total distance)
// or MAX (local diameter).
type Version = core.Version

// The two cost versions of the paper.
const (
	SUM = core.SUM
	MAX = core.MAX
)

// ParseVersion maps the wire names "SUM" and "MAX" (case-sensitive, as
// rendered by Version.String) to the Version constants.
func ParseVersion(s string) (Version, error) {
	switch s {
	case "SUM", "":
		return SUM, nil
	case "MAX":
		return MAX, nil
	default:
		return SUM, fmt.Errorf("bbncg: unknown version %q (want SUM or MAX)", s)
	}
}

// Game is a (b1,...,bn)-BG instance: a budget vector plus a cost
// version.
type Game = core.Game

// NewGame validates the budget vector and returns the game instance.
func NewGame(budgets []int, v Version) (*Game, error) { return core.NewGame(budgets, v) }

// UniformGame returns the n-player game with every budget equal to b.
func UniformGame(n, b int, v Version) *Game { return core.UniformGame(n, b, v) }

// Digraph is a directed graph on vertices 0..n-1 whose arcs are owned
// by their tails; it carries the generation stamps, content anchor and
// optional mutation journal the cache pool's resync ladder consumes.
type Digraph = graph.Digraph

// NewDigraph returns an empty digraph on n vertices.
func NewDigraph(n int) *Digraph { return graph.NewDigraph(n) }

// FromArcs builds a digraph from an explicit arc list (owner, target).
// Unlike the graph-layer constructors it validates instead of
// panicking, so it is safe on wire input. Duplicate arcs are no-ops.
func FromArcs(n int, arcs [][2]int) (*Digraph, error) {
	if n < 0 {
		return nil, fmt.Errorf("bbncg: negative vertex count %d", n)
	}
	d := graph.NewDigraph(n)
	for _, a := range arcs {
		u, v := a[0], a[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("bbncg: arc (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("bbncg: self-loop arc (%d,%d)", u, v)
		}
		d.AddArc(u, v)
	}
	return d, nil
}

// Arcs flattens a digraph to the (owner, target) list FromArcs accepts,
// sorted by owner then target — the canonical wire form of a profile.
func Arcs(d *Digraph) [][2]int {
	arcs := make([][2]int, 0, d.ArcCount())
	for u := 0; u < d.N(); u++ {
		for _, v := range d.Out(u) {
			arcs = append(arcs, [2]int{u, v})
		}
	}
	return arcs
}

// BudgetsOf derives the budget vector implied by a realization (the
// out-degrees).
func BudgetsOf(d *Digraph) []int { return graph.BudgetsOf(d) }

// ValidateStrategy checks that s is a legal strategy for player u in an
// n-player game with budget b: exactly b distinct targets, all in
// range, none equal to u. It is the wire-input guard in front of
// Digraph.SetOut, which panics on malformed input by design.
func ValidateStrategy(n, u, b int, s []int) error {
	if len(s) != b {
		return fmt.Errorf("bbncg: player %d has budget %d, strategy has %d targets", u, b, len(s))
	}
	seen := make(map[int]bool, len(s))
	for _, v := range s {
		if v < 0 || v >= n {
			return fmt.Errorf("bbncg: target %d out of range [0,%d)", v, n)
		}
		if v == u {
			return fmt.Errorf("bbncg: player %d cannot target itself", u)
		}
		if seen[v] {
			return fmt.Errorf("bbncg: duplicate target %d", v)
		}
		seen[v] = true
	}
	return nil
}

// BestResponse is the outcome of a best-response computation.
type BestResponse = core.BestResponse

// Deviation witnesses that a profile is not stable.
type Deviation = core.Deviation

// DeviatorResponder computes a (possibly heuristic) response for a
// player, evaluating on a Deviator's warm cache.
type (
	DeviatorResponder = core.DeviatorResponder
	Deviator          = core.Deviator
)

// CachePool keeps per-player distance caches warm across the mutations
// of one graph; PoolStats are its lifetime counters (StampSkips,
// DeltaRepairs, Resyncs, MemoHits, ...).
type (
	CachePool = core.CachePool
	PoolStats = core.PoolStats
)

// NewCachePool returns a warm-cache pool for g bounded by budgetBytes
// (<= 0 means core.DefaultPoolBudget).
func NewCachePool(g *Game, budgetBytes int64) *CachePool { return core.NewCachePool(g, budgetBytes) }

// Weights is a symmetric positive arc-weight assignment: a deterministic
// seeded base in [1, max] plus explicit overrides, with the bounded
// change log the weighted cache tier's repair path consumes.
type Weights = graph.Weights

// NewWeights returns the weight assignment for n vertices with base
// weights hashed from seed into [1, max].
func NewWeights(n int, seed int64, max int32) *Weights { return graph.NewWeights(n, seed, max) }

// NewWeightedCachePool is NewCachePool over the arc-weighted game: pool
// entries hold weighted distance rows (Δ-stepping fill, incremental
// weighted repair) and track wts's generation as a second staleness
// stream — weight-only mutations need no Invalidate call.
func NewWeightedCachePool(g *Game, budgetBytes int64, wts *Weights) *CachePool {
	return core.NewWeightedCachePool(g, budgetBytes, wts)
}

// WeightsSpec is the declarative, JSON-encodable recipe for a session's
// arc weights: a deterministic seeded base in [1, Max]. Explicit
// overrides are not part of the spec — persistent embedders replay them
// from their mutation log (each carrying its weight), exactly like
// rewires.
type WeightsSpec struct {
	Seed int64 `json:"seed,omitempty"`
	Max  int32 `json:"max"`
}

// Build materialises the spec for an n-vertex session, refusing weight
// ranges whose adjusted distances the weighted cache tier cannot encode
// (the service would silently lose the warm-row fast path otherwise).
func (s WeightsSpec) Build(n int) (*Weights, error) {
	if s.Max < 1 {
		return nil, fmt.Errorf("bbncg: weights max must be >= 1, got %d", s.Max)
	}
	if !graph.FitsWeightedCache(n, s.Max) {
		return nil, fmt.Errorf("bbncg: weights max %d on %d vertices exceeds the encodable distance range", s.Max, n)
	}
	return NewWeights(n, s.Seed, s.Max), nil
}

// DefaultExactCap bounds exact best-response enumeration on service
// paths: C(n-1,b) above it is refused instead of attempted, since the
// exact solver is exponential in the budget (Theorem 2.1).
const DefaultExactCap int64 = 1 << 20

// ResponderChoice is one named responder in its pooled form.
type ResponderChoice struct {
	Name   string
	Cached DeviatorResponder
	// Exact reports whether the responder enumerates the full strategy
	// space (so a non-improving answer certifies a best response).
	Exact bool
	// Cap is the enumeration bound of an exact responder (0 for the
	// heuristics, which never enumerate).
	Cap int64
}

// ResponderByName resolves the wire names "greedy", "swap" and "exact".
// exactCap bounds exact enumeration (<= 0 means DefaultExactCap).
func ResponderByName(name string, exactCap int64) (ResponderChoice, error) {
	switch name {
	case "greedy", "":
		return ResponderChoice{Name: "greedy", Cached: core.GreedyDeviatorResponder}, nil
	case "swap":
		return ResponderChoice{Name: "swap", Cached: core.SwapDeviatorResponder}, nil
	case "exact":
		if exactCap <= 0 {
			exactCap = DefaultExactCap
		}
		return ResponderChoice{
			Name:   "exact",
			Cached: core.ExactDeviatorResponder(exactCap),
			Exact:  true,
			Cap:    exactCap,
		}, nil
	default:
		return ResponderChoice{}, fmt.Errorf("bbncg: unknown responder %q (want greedy, swap or exact)", name)
	}
}

// CheckExactSpace verifies that player u's strategy space fits the
// exact enumeration cap, returning a descriptive error otherwise — the
// wire-input guard in front of the exact responders, which panic on
// oversized spaces by design.
func CheckExactSpace(g *Game, u int, cap int64) error {
	space := core.StrategySpaceSize(g.N(), g.Budgets[u])
	if cap > 0 && space > cap {
		return fmt.Errorf("bbncg: player %d strategy space C(%d,%d) = %d exceeds exact cap %d",
			u, g.N()-1, g.Budgets[u], space, cap)
	}
	return nil
}

// PooledResponse computes player u's best response against d riding the
// pool's warm-cache ladder: the entry is stamp-checked/repaired by
// Acquire, the scan runs on the cached matrix, and the outcome is
// recorded in the pool's round memo (note=true) so an unchanged graph
// can skip u's next scan entirely. The caller owns the pool's
// single-goroutine discipline. The skip path is the caller's concern
// (CachePool.SkipResponse) because a memo hit cannot reproduce the
// non-zero cost fields.
func PooledResponse(g *Game, d *Digraph, pool *CachePool, u int, r DeviatorResponder, note bool) BestResponse {
	dv := pool.Acquire(d, u)
	br := r(g, d, dv)
	dv.Release()
	if note {
		pool.NoteResponse(d, u, br.Improves())
	}
	return br
}

// Welfare summarises a profile: the social cost and each player's cost,
// computed matrix-free (no distance cache is touched or built).
type Welfare struct {
	Social int64   `json:"social"`
	Costs  []int64 `json:"costs"`
}

// WelfareOf evaluates g's welfare on d.
func WelfareOf(g *Game, d *Digraph) Welfare {
	return Welfare{Social: g.SocialCost(d), Costs: g.AllCosts(d)}
}

// WeightedWelfareOf is WelfareOf on the arc-weighted game: weighted
// eccentricities and distance sums, with unreachable pairs costed at
// n²·maxW.
func WeightedWelfareOf(g *Game, d *Digraph, wts *Weights) Welfare {
	return Welfare{Social: g.WeightedSocialCost(d, wts), Costs: g.WeightedAllCosts(d, wts)}
}
