package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/store"
	"repro/internal/sweep"
)

// sweepConfig sizes the sweep workload.
type sweepConfig struct {
	specs     []experiments.Spec
	effort    experiments.Effort
	minPasses int
	merges    int // settled re-renders per pass
	setups    int // set-ups per pass behind setup_s
}

var sweepDefault = sweepConfig{effort: experiments.Full, minPasses: 3, merges: 10, setups: 5}

// sweepPass is the outcome of one pass: every spec run through
// runner.Run into a fresh store and rendered, then re-rendered from the
// reopened store by runner.Merge.
type sweepPass struct {
	setup, merge []time.Duration
	wall         time.Duration
	points       []float64 // ms per point evaluation
	failed       int
	live, merged []byte
	evals        map[string]time.Duration // traced: evaluation time per spec
	slowest      time.Duration
}

// timedJob wraps job.Eval to time each point; with rec set it also
// records an evaluation span under the spec's runner.Run span.
func timedJob(job runner.Job, rec *Recorder, parent int64, mu *sync.Mutex, pass *sweepPass, spec string) runner.Job {
	inner := job.Eval
	job.Eval = func(p runner.Point) (any, error) {
		var o *Open
		if rec != nil {
			o = rec.Begin("experiments.eval."+spec, parent, 0)
		}
		t := time.Now()
		v, err := inner(p)
		d := time.Since(t)
		if o != nil {
			d = o.End().Dur()
		}
		mu.Lock()
		pass.points = append(pass.points, ms(d))
		pass.evals[spec] += d
		pass.slowest = max(pass.slowest, d)
		mu.Unlock()
		return v, err
	}
	return job
}

// renderTables writes tables the way the bbncg CLI prints them.
func renderTables(w *bytes.Buffer, tables []*sweep.Table) error {
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runSweepPass(cfg sweepConfig, seed int64, dir string, rec *Recorder) (*sweepPass, error) {
	pass := &sweepPass{evals: map[string]time.Duration{}}
	var st *store.Store
	var jobs []runner.Job
	for k := 0; k < cfg.setups; k++ {
		if st != nil {
			if err := closeAndRemove(st); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = store.Open(filepath.Join(dir, strconv.Itoa(k))); err != nil {
			return nil, err
		}
		jobs = make([]runner.Job, len(cfg.specs))
		for i, s := range cfg.specs {
			jobs[i] = s.Job(cfg.effort, seed)
		}
		pass.setup = append(pass.setup, time.Since(t0))
	}
	dir = st.Dir()
	err := sweepLive(cfg, jobs, st, rec, pass)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// The settled step, repeated: `bbncg -out dir merge all`, reopening
	// the store from disk and rendering every table from it.
	for k := 0; k < cfg.merges && pass.failed == 0; k++ {
		t2 := time.Now()
		merged, err := sweepMerge(cfg, jobs, dir)
		if err != nil {
			return nil, fmt.Errorf("merge: %w", err)
		}
		pass.merge = append(pass.merge, time.Since(t2))
		pass.merged = merged
	}
	return pass, os.RemoveAll(filepath.Dir(dir))
}

func closeAndRemove(st *store.Store) error {
	err := st.Close()
	if rerr := os.RemoveAll(st.Dir()); err == nil {
		err = rerr
	}
	return err
}

func sweepMerge(cfg sweepConfig, jobs []runner.Job, dir string) ([]byte, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close() // read only
	var merged bytes.Buffer
	for i, s := range cfg.specs {
		rep, err := runner.Merge(jobs[i], st)
		if err != nil {
			return nil, err
		}
		tables, err := s.Render(rep.Values)
		if err == nil {
			err = renderTables(&merged, tables)
		}
		if err != nil {
			return nil, err
		}
	}
	return merged.Bytes(), nil
}

// sweepLive runs and renders every spec into st: the timed pass.
func sweepLive(cfg sweepConfig, jobs []runner.Job, st *store.Store, rec *Recorder, pass *sweepPass) error {
	var mu sync.Mutex
	var root *Open
	if rec != nil {
		root = rec.Begin("sweep.pass", 0, 0)
	}
	var live bytes.Buffer
	t1 := time.Now()
	for i, s := range cfg.specs {
		var runSpan *Open
		var parent int64
		if rec != nil {
			runSpan = rec.Begin("runner.run."+s.Name, root.ID(), 0)
			parent = runSpan.ID()
		}
		rep, err := runner.Run(timedJob(jobs[i], rec, parent, &mu, pass, s.Name), st, runner.Options{MaxFailures: -1})
		if runSpan != nil {
			runSpan.End()
		}
		if err != nil {
			return fmt.Errorf("sweep %s: %w", s.Name, err)
		}
		if rep.Failed > 0 {
			pass.failed += rep.Failed
			continue // a partial sweep cannot render
		}
		var renderSpan *Open
		if rec != nil {
			renderSpan = rec.Begin("experiments.render."+s.Name, root.ID(), 0)
		}
		tables, err := s.Render(rep.Values)
		if err == nil {
			err = renderTables(&live, tables)
		}
		if renderSpan != nil {
			renderSpan.End()
		}
		if err != nil {
			return fmt.Errorf("sweep %s: rendering: %w", s.Name, err)
		}
	}
	pass.wall = time.Since(t1)
	if root != nil {
		pass.wall = root.End().Dur()
	}
	pass.live = live.Bytes()
	return nil
}

func runSweep(o runOpts) (*outcome, error) {
	cfg := sweepDefault
	cfg.specs = experiments.Specs()
	return runSweepWith(o, cfg)
}

func runSweepWith(o runOpts, cfg sweepConfig) (*outcome, error) {
	if o.trace {
		return traceSweep(o, cfg)
	}
	out := newOutcome()
	var setups, walls, merges, points, heaps []float64
	var first []byte
	start := time.Now()
	// Pass -1 warms up (heap growth, first page faults of the stores) and
	// is checked but not measured.
	for pass := -1; pass < cfg.minPasses || time.Since(start) < o.seconds; pass++ {
		runtime.GC() // every pass starts from a collected heap
		o.passHeap()
		p, err := runSweepPass(cfg, o.seed, filepath.Join(o.dir, fmt.Sprintf("sweep-%d", pass+1)), nil)
		if err != nil {
			return nil, err
		}
		heap := o.passHeap()
		checkSweepPass(out, p, &first)
		if pass < 0 {
			continue
		}
		heaps = append(heaps, heap)
		setups = append(setups, median(durations(p.setup, secs)))
		walls = append(walls, secs(p.wall))
		merges = append(merges, median(durations(p.merge, ms)))
		points = append(points, p.points...)
	}
	out.values["setup_s"] = median(setups)
	out.values["heap_peak_mb"] = median(heaps)
	out.values["wall_s"] = median(walls)
	out.values["settled_ms"] = median(merges)
	out.values["p50_ms"] = quantile(points, 0.5)
	out.values["p99_ms"] = quantile(points, 0.99)
	out.note("%d passes of %d specs at effort %d; %d point samples; %d output bytes per pass",
		len(walls), len(cfg.specs), cfg.effort, len(points), len(first))
	return out, nil
}

// checkSweepPass checks one pass: no failed point, the store re-renders
// byte-identically, and every pass renders the same bytes.
func checkSweepPass(out *outcome, p *sweepPass, first *[]byte) {
	out.attempted += len(p.points)
	out.failed += p.failed
	out.check(bytes.Equal(p.live, p.merged), "sweep: tables merged from the store differ from the live tables")
	if *first == nil {
		*first = p.live
	}
	out.check(bytes.Equal(*first, p.live), "sweep: a later pass rendered different tables")
}

// traceSweep alternates untraced and traced passes; the per-layer
// metrics come from the traced ones.
func traceSweep(o runOpts, cfg sweepConfig) (*outcome, error) {
	out := newOutcome()
	rec := NewRecorder()
	out.rec = rec
	var first []byte
	var plainWall, tracedWall, slowest, render, evalTotal time.Duration
	evals := map[string]time.Duration{}
	start := time.Now()
	for pass := 0; pass < 1 || time.Since(start) < o.seconds; pass++ {
		for _, traced := range []bool{false, true} {
			var r *Recorder
			if traced {
				r = rec
			}
			p, err := runSweepPass(cfg, o.seed, filepath.Join(o.dir, fmt.Sprintf("sweep-%d-%v", pass, traced)), r)
			if err != nil {
				return nil, err
			}
			checkSweepPass(out, p, &first)
			if !traced {
				plainWall += p.wall
				continue
			}
			tracedWall += p.wall
			slowest += p.slowest
			for s, d := range p.evals {
				evals[s] += d
				evalTotal += d
			}
		}
	}
	spans := rec.Spans()
	self := SelfTimes(spans)
	var runSelf time.Duration
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "runner.run."):
			runSelf += self[s.ID]
		case strings.HasPrefix(s.Name, "experiments.render."):
			render += s.Dur()
		}
	}
	out.check(nestingErrors(spans, time.Millisecond) == 0, "sweep: spans outside their parents")
	zeroLayers(out)
	workers := float64(runtime.GOMAXPROCS(0))
	for _, s := range cfg.specs {
		out.values["experiments.eval_share."+s.Name] = ratio(float64(evals[s.Name]), float64(evalTotal))
	}
	out.values["runner.slowest_point_share"] = ratio(float64(slowest), float64(tracedWall))
	out.values["runner.busy_ratio"] = ratio(float64(evalTotal), float64(tracedWall)*workers)
	out.values["runner.self_share"] = ratio(float64(runSelf), float64(tracedWall))
	out.values["experiments.render_share"] = ratio(float64(render), float64(tracedWall))
	out.values["bench.trace_overhead"] = ratio(float64(tracedWall), float64(plainWall))
	out.note("traced wall %.1f ms, eval busy %.1f ms on %d workers, runner self %.1f ms, render %.1f ms, slowest points %.1f ms",
		ms(tracedWall), ms(evalTotal), int(workers), ms(runSelf), ms(render), ms(slowest))
	return out, nil
}
