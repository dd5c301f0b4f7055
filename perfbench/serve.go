package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/pkg/bbncg"
	"repro/pkg/bbncg/api"
	"repro/pkg/bbncg/client"
)

// serveConfig sizes the serve workload: a closed loop of typed-client
// workers (each sends its next request only when the previous reply
// arrived, as every real caller does), each owning its own sessions so
// that each session sees a fixed request order and its counters and
// final profile repeat exactly.
type serveConfig struct {
	n, budget   int
	workers     int
	sessions    int // per worker
	ops         int // requests per worker per pass
	minPasses   int
	settledReps int // settled equilibrium requests per session
	setups      int // server set-ups per pass behind setup_s
}

var serveDefault = serveConfig{n: 128, budget: 2, workers: 2, sessions: 2, ops: 600, minPasses: 3, settledReps: 50, setups: 5}

// serveOp is one scripted request. The script is drawn from the seed up
// front, so it never depends on the replies.
type serveOp struct {
	route    string
	session  int // index into the worker's sessions
	player   int
	strategy []int
	batch    []serveOp
}

// serveInput is everything the benchmark draws from the seed: the
// initial profile of every session and every worker's script.
type serveInput struct {
	creates [][]api.CreateRequest // per worker
	scripts [][]serveOp
}

func serveInputs(cfg serveConfig, seed int64) serveInput {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	var in serveInput
	for w := 0; w < cfg.workers; w++ {
		var cs []api.CreateRequest
		for s := 0; s < cfg.sessions; s++ {
			var arcs [][2]int
			for u := 0; u < cfg.n; u++ {
				for _, v := range distinctTargets(rng, cfg.n, u, cfg.budget) {
					arcs = append(arcs, [2]int{u, v})
				}
			}
			cs = append(cs, api.CreateRequest{ID: fmt.Sprintf("w%d-s%d", w, s), N: cfg.n, Arcs: arcs})
		}
		in.creates = append(in.creates, cs)
		in.scripts = append(in.scripts, serveScript(rng, cfg))
	}
	return in
}

// serveMix is the request mix in twentieths: 50% best response, 20%
// random valid rewire, 10% welfare, 5% equilibrium, 10% one round of
// dynamics and 5% a same-session batch of short reads and a rewire.
var serveMix = []struct {
	route string
	parts int
}{{"bestresponse", 10}, {"rewire", 4}, {"welfare", 2}, {"equilibrium", 1}, {"dynamics", 2}, {"batch", 1}}

// serveScript deals one worker's requests: every route exactly its
// share of the mix (so seeds differ in order and arguments, not in how
// much of each kind of work they ask for), shuffled.
func serveScript(rng *rand.Rand, cfg serveConfig) []serveOp {
	var script []serveOp
	for _, m := range serveMix {
		for k := 0; k < cfg.ops*m.parts/20; k++ {
			script = append(script, drawServeOp(rng, cfg, m.route))
		}
	}
	for len(script) < cfg.ops {
		script = append(script, drawServeOp(rng, cfg, "bestresponse"))
	}
	rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
	return script
}

// drawServeOp draws the arguments of one request on route.
func drawServeOp(rng *rand.Rand, cfg serveConfig, route string) serveOp {
	op := serveOp{route: route, session: rng.Intn(cfg.sessions), player: rng.Intn(cfg.n)}
	switch route {
	case "rewire":
		op.strategy = distinctTargets(rng, cfg.n, op.player, cfg.budget)
	case "batch":
		for _, r := range []string{"bestresponse", "welfare", "rewire", "bestresponse"} {
			b := drawServeOp(rng, cfg, r)
			b.session = op.session
			op.batch = append(op.batch, b)
		}
	}
	return op
}

// spanHeader carries a request's span id from the client's transport to
// the handler wrapper.
const spanHeader = "X-Perfbench-Span"

type reqIDKey struct{}

// spanTransport stamps the request id found in the request's context on
// the wire.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// tracedHandler records a span around Server.ServeHTTP for every
// request that carries a span id, parented to the client's span.
func tracedHandler(h http.Handler, rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		// The last path element names the route class (…/bestresponse, /v1/batch).
		o := rec.Begin("serve.handler."+path.Base(r.URL.Path), id, id)
		h.ServeHTTP(w, r)
		o.End()
	})
}

// servePass is the outcome of one pass.
type servePass struct {
	setup    []time.Duration
	wall     time.Duration
	latency  map[string][]float64 // ms per route class
	settled  []float64            // ms per settled equilibrium request
	failed   int
	requests int
	problems []string
	profiles uint64          // hash of every session's final arcs
	pool     bbncg.PoolStats // summed over sessions after the traffic
}

func (p *servePass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// liveServer is a session server on loopback with its sessions created.
type liveServer struct {
	m      *serve.Manager
	srv    *http.Server
	served chan error
	tr     *http.Transport
	c      *client.Client
	dir    string
}

// startServer is the serve set-up: a manager over a fresh store, the
// server on a loopback listener, and every session created through the
// client.
func startServer(cfg serveConfig, in serveInput, dir string, rec *Recorder) (*liveServer, error) {
	m, err := serve.Open(dir, serve.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	var h http.Handler = serve.NewServer(m, serve.Config{})
	ls := &liveServer{m: m, srv: &http.Server{Handler: h}, served: make(chan error, 1),
		tr: &http.Transport{MaxIdleConnsPerHost: cfg.workers}, dir: dir}
	hc := &http.Client{Transport: ls.tr}
	if rec != nil {
		ls.srv.Handler = tracedHandler(h, rec)
		hc.Transport = spanTransport{ls.tr}
	}
	go func() { ls.served <- ls.srv.Serve(ln) }()
	ls.c = client.New(ln.Addr().String(), client.WithHTTPClient(hc))
	for _, cs := range in.creates {
		for _, cr := range cs {
			if _, err := ls.c.CreateSession(context.Background(), cr); err != nil {
				ls.close()
				return nil, fmt.Errorf("serve: create %s: %w", cr.ID, err)
			}
		}
	}
	return ls, nil
}

// close stops the server, waits for it, and removes its store.
func (ls *liveServer) close() error {
	err := ls.srv.Shutdown(context.Background())
	<-ls.served
	ls.tr.CloseIdleConnections()
	if cerr := ls.m.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(ls.dir); err == nil {
		err = rerr
	}
	return err
}

// runServePass sets the server up cfg.setups times (keeping the last),
// runs every worker's script concurrently, and then converges each
// session and checks it is stable.
func runServePass(cfg serveConfig, in serveInput, dir string, rec *Recorder) (*servePass, error) {
	ctx := context.Background()
	pass := &servePass{latency: map[string][]float64{}}
	var ls *liveServer
	for k := 0; k < cfg.setups; k++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		ls, err = startServer(cfg, in, filepath.Join(dir, strconv.Itoa(k)), rec)
		if err != nil {
			return nil, err
		}
		pass.setup = append(pass.setup, time.Since(t0))
	}
	c := ls.c

	var mu sync.Mutex
	var wg sync.WaitGroup
	t1 := time.Now()
	for w := range in.scripts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]string, len(in.creates[w]))
			for i, cr := range in.creates[w] {
				ids[i] = cr.ID
			}
			for _, op := range in.scripts[w] {
				rctx := ctx
				var o *Open
				if rec != nil {
					o = rec.Begin("client."+op.route, 0, 0)
					rctx = context.WithValue(ctx, reqIDKey{}, o.ID())
				}
				t := time.Now()
				err := doServeOp(rctx, c, ids, op)
				d := time.Since(t)
				if o != nil {
					d = o.End().Dur()
				}
				mu.Lock()
				pass.latency[op.route] = append(pass.latency[op.route], ms(d))
				pass.requests++
				if err != nil {
					pass.fail("%s on %s: %v", op.route, ids[op.session], err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	pass.wall = time.Since(t1)

	stats, err := c.Stats(ctx)
	if err == nil {
		for _, s := range stats.Sessions {
			pass.pool.Resyncs += s.Pool.Resyncs
			pass.pool.DeltaRepairs += s.Pool.DeltaRepairs
			pass.pool.MemoHits += s.Pool.MemoHits
			pass.pool.StampSkips += s.Pool.StampSkips
		}
		closeServePass(ctx, c, cfg, in, pass)
	}
	if cerr := ls.close(); err == nil {
		err = cerr
	}
	return pass, err
}

// closeServePass converges every session, then has every worker ask
// its converged sessions for their equilibrium status concurrently (the
// settled requests, served from the round memo while both workers keep
// the server busy), checks they are stable, and hashes the final
// profiles.
func closeServePass(ctx context.Context, c *client.Client, cfg serveConfig, in serveInput, pass *servePass) {
	for _, cs := range in.creates {
		for _, cr := range cs {
			rep, err := c.Dynamics(ctx, cr.ID, 10_000)
			if err != nil || !rep.Converged {
				pass.fail("%s did not converge: %v", cr.ID, err)
			}
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, cs := range in.creates {
		wg.Add(1)
		go func(cs []api.CreateRequest) {
			defer wg.Done()
			for k := 0; k < cfg.settledReps; k++ {
				for _, cr := range cs {
					t := time.Now()
					eq, err := c.Equilibrium(ctx, cr.ID, "", 0)
					d := time.Since(t)
					mu.Lock()
					pass.settled = append(pass.settled, ms(d))
					if err != nil || !eq.Stable {
						pass.fail("%s not stable after convergence: %v", cr.ID, err)
					}
					mu.Unlock()
				}
			}
		}(cs)
	}
	wg.Wait()
	h := fnv.New64a()
	for _, cs := range in.creates {
		for _, cr := range cs {
			info, err := c.Session(ctx, cr.ID, true)
			if err != nil {
				pass.fail("%s: reading the final profile: %v", cr.ID, err)
				continue
			}
			fmt.Fprintf(h, "%s:%v;", cr.ID, info.Arcs)
		}
	}
	pass.profiles = h.Sum64()
}

func doServeOp(ctx context.Context, c *client.Client, ids []string, op serveOp) error {
	id := ids[op.session]
	var err error
	switch op.route {
	case "bestresponse":
		_, err = c.BestResponse(ctx, id, op.player, "", 0)
	case "rewire":
		_, err = c.Rewire(ctx, id, api.RewireRequest{Player: op.player, Strategy: op.strategy})
	case "welfare":
		_, err = c.Welfare(ctx, id)
	case "equilibrium":
		_, err = c.Equilibrium(ctx, id, "", 0)
	case "dynamics":
		_, err = c.Dynamics(ctx, id, 1)
	case "batch":
		ops := make([]api.BatchOp, len(op.batch))
		for i, b := range op.batch {
			ops[i] = api.BatchOp{Session: id, Op: b.route, Player: b.player}
			if b.route == "rewire" {
				ops[i].Rewire = &api.RewireRequest{Player: b.player, Strategy: b.strategy}
			}
		}
		var res api.BatchResult
		res, err = c.Batch(ctx, ops)
		for _, it := range res.Results {
			if it.Error != nil && err == nil {
				err = it.Error
			}
		}
	default:
		err = errors.New("unknown route " + op.route)
	}
	return err
}

func runServe(o runOpts) (*outcome, error) { return runServeWith(o, serveDefault) }

func runServeWith(o runOpts, cfg serveConfig) (*outcome, error) {
	in := serveInputs(cfg, o.seed)
	if o.trace {
		return traceServe(o, cfg, in)
	}
	out := newOutcome()
	var setups, walls, requests, settled, heaps []float64
	var profiles uint64
	start := time.Now()
	// Pass -1 warms up and is checked but not measured.
	for pass := -1; pass < cfg.minPasses || time.Since(start) < o.seconds; pass++ {
		runtime.GC() // every pass starts from a collected heap
		o.passHeap()
		p, err := runServePass(cfg, in, filepath.Join(o.dir, fmt.Sprintf("serve-%d", pass+1)), nil)
		if err != nil {
			return nil, err
		}
		heap := o.passHeap()
		checkServePass(out, p, pass+1, &profiles)
		if pass < 0 {
			continue
		}
		heaps = append(heaps, heap)
		setups = append(setups, median(durations(p.setup, secs)))
		walls = append(walls, secs(p.wall))
		settled = append(settled, p.settled...)
		for _, l := range p.latency {
			requests = append(requests, l...)
		}
	}
	out.values["setup_s"] = median(setups)
	out.values["heap_peak_mb"] = median(heaps)
	out.values["wall_s"] = median(walls)
	out.values["p50_ms"] = quantile(requests, 0.5)
	out.values["p99_ms"] = quantile(requests, 0.99)
	out.values["settled_ms"] = median(settled)
	out.note("%d passes, %d workers x %d sessions (n=%d, b=%d), %d requests per pass; %d latency samples; %.0f requests/s (median pass)",
		len(walls), cfg.workers, cfg.sessions, cfg.n, cfg.budget, cfg.workers*cfg.ops, len(requests),
		float64(cfg.workers*cfg.ops)/median(walls))
	return out, nil
}

// checkServePass counts every request as attempted and every failed
// request or check as failed; all passes must end in the profiles of the
// first (*profiles is 0 until then).
func checkServePass(out *outcome, p *servePass, pass int, profiles *uint64) {
	out.attempted += p.requests
	out.failed += p.failed
	out.problems = append(out.problems, p.problems...)
	if *profiles == 0 {
		*profiles = p.profiles
	}
	out.check(p.profiles == *profiles, "serve: pass %d ended in different session profiles", pass)
}

// traceServe alternates untraced and traced passes of the same script;
// the per-layer metrics come from the traced ones.
func traceServe(o runOpts, cfg serveConfig, in serveInput) (*outcome, error) {
	out := newOutcome()
	rec := NewRecorder()
	out.rec = rec
	var profiles uint64
	var plainWall, tracedWall time.Duration
	var counters *bbncg.PoolStats
	start := time.Now()
	for pass := 0; pass < 1 || time.Since(start) < o.seconds; pass++ {
		for _, traced := range []bool{false, true} {
			var r *Recorder
			if traced {
				r = rec
			}
			p, err := runServePass(cfg, in, filepath.Join(o.dir, fmt.Sprintf("serve-%d-%v", pass, traced)), r)
			if err != nil {
				return nil, err
			}
			checkServePass(out, p, pass, &profiles)
			if !traced {
				plainWall += p.wall
				continue
			}
			tracedWall += p.wall
			if counters == nil {
				counters = &p.pool
			}
			out.check(p.pool == *counters, "serve: pool counters differ between traced passes")
		}
	}
	client, handler := map[string]time.Duration{}, map[string]time.Duration{}
	samples := map[string][]float64{}
	var clientAll, handlerAll time.Duration
	for _, s := range rec.Spans() {
		route, ok := strings.CutPrefix(s.Name, "client.")
		if ok {
			client[route] += s.Dur()
			clientAll += s.Dur()
			samples[route] = append(samples[route], ms(s.Dur()))
		} else if route, ok = strings.CutPrefix(s.Name, "serve.handler."); ok {
			handler[route] += s.Dur()
			handlerAll += s.Dur()
		}
	}
	zeroLayers(out)
	routes := append([]string(nil), serveRoutes...)
	sort.Strings(routes)
	for _, r := range routes {
		out.values["client.route_share."+r] = ratio(float64(client[r]), float64(clientAll))
		out.values["serve.handler_share."+r] = ratio(float64(handler[r]), float64(client[r]))
		out.note("%-12s %6d requests, client p50 %.3f ms, handler %.1f%% of client time",
			r, len(samples[r]), quantile(samples[r], 0.5), 100*ratio(float64(handler[r]), float64(client[r])))
	}
	out.values["client.transport_share"] = 1 - ratio(float64(handlerAll), float64(clientAll))
	out.values["core.pool.resyncs.serve"] = float64(counters.Resyncs)
	out.values["core.pool.delta_repairs.serve"] = float64(counters.DeltaRepairs)
	out.values["core.pool.memo_hits.serve"] = float64(counters.MemoHits)
	out.values["core.pool.stamp_skips.serve"] = float64(counters.StampSkips)
	out.values["bench.trace_overhead"] = ratio(float64(tracedWall), float64(plainWall))
	return out, nil
}
