package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Small instances keep the self-checks fast; the attribution logic is
// the same as at full size.
var testDyn = dynConfig{
	instances: []dynInstance{{"sum40", 40, core.SUM, 0}, {"max40", 40, core.MAX, 0}, {"wsum24", 24, core.SUM, 8}},
	sets:      2, settled: 3, sampled: 8, setups: 2,
}

var testServe = serveConfig{n: 24, budget: 2, workers: 2, sessions: 2, ops: 80, minPasses: 1, settledReps: 2, setups: 2}

func testOpts(t *testing.T, trace bool) runOpts {
	return runOpts{seed: 3, seconds: time.Nanosecond, trace: trace, dir: t.TempDir()}
}

func requireCorrect(t *testing.T, out *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%d of %d checks failed: %v", out.failed, out.attempted, out.problems)
	}
}

// BENCHMARK.json must declare exactly the metrics the benchmark prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Better string }
	var b struct {
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || (w.better != "" && g.Better != w.better) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %s %s %s", kind, i, g, w.name, w.unit, w.better)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer())
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

// The traced dyn run classifies every non-scan interval by the pool rung
// whose counter moved; the per-rung counts must add up to PoolStats, and
// tracing must not change any output.
func TestDynRungCountsMatchPoolStats(t *testing.T) {
	ps, _ := setUpDynAll(dynInputs(testDyn, 5, 0), 1)
	for _, p := range ps {
		plain := runDynInstance(p, testDyn.settled, nil)
		traced := runDynInstance(p, testDyn.settled, NewRecorder())
		l, st := traced.layer, traced.after
		var total int64
		for _, r := range poolRungs {
			total += l.rungCount[r]
		}
		if l.badAcquire != 0 || total != st.Acquires || total != l.calls {
			t.Errorf("%s: %d intervals, %d responder calls, %d acquisitions, %d bad intervals", p.in.inst.name, total, l.calls, st.Acquires, l.badAcquire)
		}
		want := map[string]int64{"fill": st.Fills, "resync": st.Resyncs, "delta": st.DeltaRepairs, "stampskip": st.StampSkips,
			"hit": st.Hits - st.Resyncs - st.DeltaRepairs - st.StampSkips}
		for r, n := range want {
			if l.rungCount[r] != n {
				t.Errorf("%s: rung %s counted %d intervals, PoolStats says %d", p.in.inst.name, r, l.rungCount[r], n)
			}
		}
		if !plain.converged || plain.res.Moves != traced.res.Moves || plain.res.Rounds != traced.res.Rounds || !plain.res.Final.Equal(traced.res.Final) {
			t.Errorf("%s: traced run differs from untraced", p.in.inst.name)
		}
	}
	out, err := runDynWith(testOpts(t, true), testDyn)
	requireCorrect(t, out, err)
}

// The layer spans plus each root's self time must account for the
// whole traced wall, and every span must lie inside its parent.
func TestSpansCoverTracedWall(t *testing.T) {
	out, err := runDynWith(testOpts(t, true), testDyn)
	requireCorrect(t, out, err)
	spans := out.rec.Spans()
	self := SelfTimes(spans)
	var wall, parts time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.Dur()
			parts += self[s.ID]
		} else {
			parts += s.Dur()
		}
	}
	if d := wall - parts; d < -wall/100 || d > wall/100 {
		t.Errorf("dyn: layers plus self cover %v of a %v traced wall", parts, wall)
	}
	var shares float64
	for _, in := range testDyn.instances {
		shares += out.values["core.responder.scan_share."+in.name]
		for _, r := range poolRungs {
			shares += out.values["core.pool.acquire_share."+r+"."+in.name]
		}
	}
	if shares <= 0.5 || shares > 1.0001 {
		t.Errorf("dyn: layer shares sum to %v", shares)
	}
	if n := nestingErrors(spans, 0); n != 0 {
		t.Errorf("dyn: %d spans outside their parents", n)
	}

	sout, err := runServeWith(testOpts(t, true), testServe)
	requireCorrect(t, sout, err)
	sspans := sout.rec.Spans()
	if n := nestingErrors(sspans, 0); n != 0 {
		t.Errorf("serve: %d handler spans outside their client spans", n)
	}
	handlers := 0
	for _, s := range sspans {
		if strings.HasPrefix(s.Name, "serve.handler.") {
			handlers++
			if s.Req != s.Parent || s.Req == 0 {
				t.Errorf("serve: handler span %+v does not carry its client span's request id", s)
			}
		}
	}
	if handlers != testServe.workers*testServe.ops {
		t.Errorf("serve: %d handler spans for %d scripted requests of one traced pass", handlers, testServe.workers*testServe.ops)
	}
	if ts := sout.values["client.transport_share"]; ts <= 0 || ts >= 1 {
		t.Errorf("serve: transport share %v", ts)
	}

	var specs []experiments.Spec
	for _, name := range []string{"fig1", "table1-trees-max", "exact-poa"} {
		s, _ := experiments.SpecByName(name)
		specs = append(specs, s)
	}
	wout, err := runSweepWith(testOpts(t, true), sweepConfig{specs: specs, effort: experiments.Quick, minPasses: 1, merges: 1, setups: 1})
	requireCorrect(t, wout, err)
	wspans := wout.rec.Spans()
	if n := nestingErrors(wspans, 0); n != 0 {
		t.Errorf("sweep: %d spans outside their parents", n)
	}
	wself := SelfTimes(wspans)
	for _, s := range wspans {
		if wself[s.ID] < 0 || wself[s.ID] > s.Dur() {
			t.Errorf("sweep: span %s has self time %v of %v", s.Name, wself[s.ID], s.Dur())
		}
	}
}

// Counts are properties of the inputs, not of the machine: two runs of
// one seed must report every count metric identically.
func TestCountsRepeat(t *testing.T) {
	counts := func(out *outcome) map[string]float64 {
		m := map[string]float64{}
		for _, d := range perLayer() {
			if d.unit == "count" {
				m[d.name] = out.values[d.name]
			}
		}
		for k, v := range out.values {
			if strings.Contains(k, "_count.") || strings.Contains(k, ".calls.") {
				m[k] = v
			}
		}
		return m
	}
	for _, run := range []func() (*outcome, error){
		func() (*outcome, error) { return runDynWith(testOpts(t, true), testDyn) },
		func() (*outcome, error) { return runServeWith(testOpts(t, true), testServe) },
	} {
		a, err := run()
		requireCorrect(t, a, err)
		b, err := run()
		requireCorrect(t, b, err)
		ca, cb := counts(a), counts(b)
		nonzero := 0
		for k, v := range ca {
			if cb[k] != v {
				t.Errorf("%s: %v then %v", k, v, cb[k])
			}
			if v != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Errorf("no count metric was measured")
		}
	}
}

// The untraced runs measure every end-to-end metric on every workload.
func TestEndToEndMeasured(t *testing.T) {
	var specs []experiments.Spec
	for _, name := range []string{"fig2", "baseline"} {
		s, _ := experiments.SpecByName(name)
		specs = append(specs, s)
	}
	for name, run := range map[string]func() (*outcome, error){
		"dyn":   func() (*outcome, error) { return runDynWith(testOpts(t, false), testDyn) },
		"serve": func() (*outcome, error) { return runServeWith(testOpts(t, false), testServe) },
		"sweep": func() (*outcome, error) {
			return runSweepWith(testOpts(t, false), sweepConfig{specs: specs, effort: experiments.Quick, minPasses: 2, merges: 2, setups: 2})
		},
	} {
		out, err := run()
		requireCorrect(t, out, err)
		for _, d := range endToEnd {
			if v, ok := out.values[d.name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v", name, d.name, v)
			}
		}
	}
}

// TestMain lets holdCPUs start this test binary as its spinning child.
func TestMain(m *testing.M) {
	if cpu, ok := os.LookupEnv(holdEnv); ok {
		os.Exit(holdCPU(cpu))
	}
	os.Exit(m.Run())
}

// holdCPUs starts one SCHED_IDLE child per CPU, and release leaves none
// of them running.
func TestHoldCPUsReleases(t *testing.T) {
	h, err := holdCPUs()
	if err != nil {
		t.Fatal(err)
	}
	pids := make([]int, len(h.kids))
	for i, c := range h.kids {
		pids[i] = c.Process.Pid
	}
	if len(pids) != runtime.NumCPU() {
		t.Errorf("%d children for %d CPUs", len(pids), runtime.NumCPU())
	}
	for _, pid := range pids {
		policy := -1
		for deadline := time.Now().Add(5 * time.Second); policy != schedIdle && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			r, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETSCHEDULER, uintptr(pid), 0, 0)
			if e == 0 {
				policy = int(r)
			}
		}
		if policy != schedIdle {
			t.Errorf("child %d runs with policy %d, want SCHED_IDLE", pid, policy)
		}
	}
	h.release()
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("child %d still exists after release (kill 0: %v)", pid, err)
		}
	}
}
