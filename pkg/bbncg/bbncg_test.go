package bbncg

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseVersion(t *testing.T) {
	for s, want := range map[string]Version{"": SUM, "SUM": SUM, "MAX": MAX} {
		v, err := ParseVersion(s)
		if err != nil || v != want {
			t.Errorf("ParseVersion(%q) = %v, %v", s, v, err)
		}
	}
	for _, s := range []string{"sum", "Max", "AVG"} {
		if _, err := ParseVersion(s); err == nil {
			t.Errorf("ParseVersion(%q) accepted", s)
		}
	}
}

func TestFromArcsRoundTrip(t *testing.T) {
	arcs := [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}}
	d, err := FromArcs(4, arcs)
	if err != nil {
		t.Fatal(err)
	}
	if got := Arcs(d); !reflect.DeepEqual(got, arcs) {
		t.Fatalf("Arcs round trip: %v != %v", got, arcs)
	}
	if got := BudgetsOf(d); !reflect.DeepEqual(got, []int{1, 1, 2, 0}) {
		t.Fatalf("BudgetsOf = %v", got)
	}
	for _, bad := range [][][2]int{
		{{0, 4}},  // target out of range
		{{-1, 0}}, // owner out of range
		{{2, 2}},  // self-loop
	} {
		if _, err := FromArcs(4, bad); err == nil {
			t.Errorf("FromArcs(4, %v) accepted", bad)
		}
	}
}

func TestValidateStrategy(t *testing.T) {
	if err := ValidateStrategy(5, 0, 2, []int{1, 4}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{
		{1},       // under budget
		{1, 2, 3}, // over budget
		{1, 1},    // duplicate
		{0, 1},    // self
		{1, 5},    // range
	} {
		if err := ValidateStrategy(5, 0, 2, bad); err == nil {
			t.Errorf("ValidateStrategy accepted %v", bad)
		}
	}
}

func TestGeneratorSpecKinds(t *testing.T) {
	cases := []struct {
		spec GeneratorSpec
		n    int
	}{
		{GeneratorSpec{Kind: "path", N: 5}, 5},
		{GeneratorSpec{Kind: "cycle", N: 5}, 5},
		{GeneratorSpec{Kind: "star", N: 5}, 5},
		{GeneratorSpec{Kind: "complete", N: 4}, 4},
		{GeneratorSpec{Kind: "grid", Rows: 2, Cols: 3}, 6},
		{GeneratorSpec{Kind: "tree", N: 7, Seed: 3}, 7},
		{GeneratorSpec{Kind: "random", N: 6, B: 2, Seed: 3}, 6},
		{GeneratorSpec{Kind: "random", Budgets: []int{1, 2, 0, 1}}, 4},
		{GeneratorSpec{Kind: "pa", N: 8, M: 2, Seed: 3}, 8},
		{GeneratorSpec{Kind: "smallworld", N: 8, K: 2, P: 0.1, Seed: 3}, 8},
	}
	for _, c := range cases {
		d, err := c.spec.Build()
		if err != nil {
			t.Errorf("%+v: %v", c.spec, err)
			continue
		}
		if d.N() != c.n {
			t.Errorf("%+v: n = %d, want %d", c.spec, d.N(), c.n)
		}
	}
	for _, bad := range []GeneratorSpec{
		{},
		{Kind: "blob", N: 5},
		{Kind: "path", N: 1},
		{Kind: "grid", Rows: 0, Cols: 3},
		{Kind: "random", N: 4, B: 4},
		{Kind: "random", Budgets: []int{5}},
	} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("Build accepted %+v", bad)
		}
	}
	// Determinism: same spec, same profile.
	s := GeneratorSpec{Kind: "random", N: 10, B: 2, Seed: 42}
	d1, _ := s.Build()
	d2, _ := s.Build()
	if !reflect.DeepEqual(Arcs(d1), Arcs(d2)) {
		t.Fatal("seeded build is not deterministic")
	}
}

func TestResponderByNameAndExactGuard(t *testing.T) {
	for _, name := range []string{"", "greedy", "swap", "exact"} {
		rc, err := ResponderByName(name, 0)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if rc.Cached == nil {
			t.Fatalf("%q: nil responder", name)
		}
	}
	if _, err := ResponderByName("best", 0); err == nil {
		t.Fatal("unknown responder accepted")
	}
	rc, _ := ResponderByName("exact", 0)
	if !rc.Exact || rc.Cap != DefaultExactCap {
		t.Fatalf("exact choice: %+v", rc)
	}
	// The guard rejects a space the panicking solver would die on.
	g := UniformGame(40, 15, SUM)
	if err := CheckExactSpace(g, 0, 1000); err == nil {
		t.Fatal("oversized space accepted")
	}
	if err := CheckExactSpace(UniformGame(6, 1, SUM), 0, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestWelfareAndPooledResponse(t *testing.T) {
	g := UniformGame(6, 1, SUM)
	d, err := GeneratorSpec{Kind: "cycle", N: 6}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Social cost is the paper's diameter convention (3 for a 6-cycle);
	// each player's SUM cost is 1+2+3+2+1 = 9.
	wf := WelfareOf(g, d)
	if wf.Social != 3 {
		t.Fatalf("6-cycle social cost = %d, want diameter 3", wf.Social)
	}
	for u, c := range wf.Costs {
		if c != 9 {
			t.Fatalf("cost[%d] = %d, want 9 (%+v)", u, c, wf)
		}
	}

	pool := NewCachePool(g, 0)
	defer pool.Close()
	rc, _ := ResponderByName("greedy", 0)
	d.StartJournal(64)
	br := PooledResponse(g, d, pool, 0, rc.Cached, true)
	plain := g.GreedyBestResponse(d, 0)
	if br.Improves() != plain.Improves() || br.Cost != plain.Cost {
		t.Fatalf("pooled and plain answers differ: %+v vs %+v", br, plain)
	}
	// note=true recorded the outcome; an unchanged graph can skip.
	if br.Improves() {
		if pool.SkipResponse(d, 0) {
			t.Fatal("memo claims skip after an improving answer")
		}
	} else if !pool.SkipResponse(d, 0) {
		t.Fatal("memo does not skip an unchanged graph")
	}
}

func TestRunDynamicsAndVerifyNash(t *testing.T) {
	g := UniformGame(8, 1, SUM)
	start := RandomRealization(g, 5)
	if err := g.CheckRealization(start); err != nil {
		t.Fatal(err)
	}
	res, err := RunDynamics(g, start, DynamicsOptions{MaxRounds: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("greedy dynamics did not converge: %+v", res)
	}
	dev, err := VerifyNash(g, res.Final, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy convergence need not be Nash; but a returned witness must
	// genuinely improve.
	if dev != nil && dev.NewCost >= dev.OldCost {
		t.Fatalf("non-improving witness: %+v", dev)
	}

	// Wire-input guards: bad responder name, oversized exact space.
	if _, err := RunDynamics(g, start, DynamicsOptions{Responder: "nope"}); err == nil {
		t.Fatal("unknown responder accepted")
	}
	big := UniformGame(40, 15, SUM)
	if _, err := RunDynamics(big, RandomRealization(big, 1), DynamicsOptions{Responder: "exact", ExactCap: 100}); err == nil {
		t.Fatal("oversized exact dynamics accepted")
	}
	if _, err := VerifyNash(big, RandomRealization(big, 1), 100); err == nil {
		t.Fatal("oversized VerifyNash accepted")
	}

	// Simultaneous variant stays on the public surface too.
	if _, err := RunSimultaneousDynamics(g, start, DynamicsOptions{MaxRounds: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewGameValidation(t *testing.T) {
	if _, err := NewGame([]int{1, 1, 5}, SUM); err == nil {
		t.Fatal("budget >= n accepted")
	}
	g, err := NewGame([]int{1, 0, 2}, MAX)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.Version != MAX {
		t.Fatalf("game: %+v", g)
	}
	if !strings.Contains(g.Version.String(), "MAX") {
		t.Fatalf("version string: %q", g.Version.String())
	}
}
