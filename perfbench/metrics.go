package main

import "repro/internal/experiments"

// metricDef declares one metric as BENCHMARK.json does, plus what it
// measures on each workload (about) and, for a per-layer metric, the
// end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better string
	about              string
}

// endToEnd are the metrics a user of each workload sees, measured with
// tracing off. Every workload reports all of them, each measured on
// that workload's own unit of work:
//
//	          sweep                        dyn                               serve
//	setup_s   open a store, build the jobs  build games, profiles, weights    start server, create sessions
//	wall_s    one full sweep, rendered      3 instances random→converged      the request script of both workers
//	p50/p99   one point's evaluation        one player's turn (acquire+scan)  one request round trip
//	settled   re-render from the store      one settled round, summed         equilibrium on a converged session
//
// wall_s, setup_s, heap_peak_mb and (sweep, dyn) settled_ms are the
// median over the run's passes (dyn: over its instance sets; dyn's wall_s
// is their mean, see dynConfig.sets) of that pass's figure, so one pass
// that meets a slow spell of a shared machine does not set them. p50_ms, p99_ms and serve's settled_ms are quantiles
// of every sample of the run pooled (dyn: every turn of each instance
// set's first pass), so that the tail has enough samples beyond it: a
// sweep pass has only about 230 points.
//
// Workload-specific names map onto them: sweep_wall_s is wall_s on sweep,
// dyn_converge_s is wall_s on dyn, dyn_settled_round_ms is settled_ms on
// dyn, serve_p50_ms and serve_p99_ms are p50_ms and p99_ms on serve, and
// serve_ops_per_s is the script's request count over wall_s on serve
// (printed with the run). The error ratio is the result's failed over
// attempted; it is not a metric, because it is zero on a good run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median set-up: store+jobs | games+profiles | server+sessions"},
	{"wall_s", "s", "lower", "wall of one pass of the workload's job: median pass | mean instance set | median pass"},
	{"p50_ms", "ms", "lower", "median latency of one item: point | turn | request"},
	{"p99_ms", "ms", "lower", "99th percentile of the same items"},
	{"settled_ms", "ms", "lower", "median settled step: merge re-render | settled round | settled equilibrium"},
	{"heap_peak_mb", "MiB", "lower", "median over passes of the peak bytes of heap objects"},
}

// dynInstances, poolRungs and serveRoutes name the per-layer metrics
// that exist once per instance, cache-pool rung and route class.
var (
	poolRungs = []string{"fill", "resync", "delta", "stampskip", "hit"}
	// rungBetter says which way a rung's count should go: the cheap
	// rungs should serve more of the acquisitions.
	rungBetter  = map[string]string{"fill": "lower", "resync": "lower", "delta": "higher", "stampskip": "higher", "hit": "higher"}
	serveRoutes = []string{"bestresponse", "rewire", "welfare", "equilibrium", "dynamics", "batch"}
)

// perLayer lists the per-layer metrics of the traced run. A workload
// reports zero for a layer it does not cross (each metric names its
// workload in about). Shares are of the traced wall of the workload's
// passes unless about says otherwise.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better, about string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better, about: about})
	}
	for _, in := range dynInstances {
		i := in.name
		add("core.responder.scan_share."+i, "share", "lower", "dyn: Cached hook (scan) time; moves wall_s and settled_ms on dyn")
		add("core.responder.calls."+i, "count", "lower", "dyn: Cached hook calls; moves wall_s and settled_ms on dyn")
		for _, r := range poolRungs {
			add("core.pool.acquire_share."+r+"."+i, "share", "lower", "dyn: non-scan intervals served by the "+r+" rung; moves wall_s on dyn and serve, not settled_ms or sweep")
			add("core.pool.acquire_count."+r+"."+i, "count", rungBetter[r], "dyn: intervals served by the "+r+" rung")
		}
		add("core.pool.full_refills."+i, "count", "lower", "dyn: repairs that fell back to a whole-matrix refill")
		add("core.pool.rows_patched."+i, "count", "lower", "dyn: rows repaired by improvement-only BFS")
		add("core.pool.rows_refilled."+i, "count", "lower", "dyn: rows recomputed by fresh BFS")
		add("core.pool.memo_hits."+i, "count", "higher", "dyn: scans skipped by the round memo")
		add("core.pool.repair_useful_ratio."+i, "ratio", "higher", "dyn: (Repairs-FullRefills)/Repairs; moves wall_s on dyn")
	}
	for _, s := range experiments.SpecNames() {
		add("experiments.eval_share."+s, "share", "lower", "sweep: share of all point-evaluation time; moves wall_s on sweep")
	}
	add("runner.slowest_point_share", "share", "lower", "sweep: slowest point's evaluation over the pass wall; moves wall_s on sweep")
	add("runner.busy_ratio", "ratio", "higher", "sweep: evaluation busy time over wall x workers; moves wall_s on sweep")
	add("runner.self_share", "share", "lower", "sweep: runner.Run spans minus their evaluations (store append, JSON); moves wall_s on sweep")
	add("experiments.render_share", "share", "lower", "sweep: table rendering; moves wall_s on sweep")
	for _, r := range serveRoutes {
		add("client.route_share."+r, "share", "lower", "serve: share of client request time spent on "+r+"; moves p50_ms/p99_ms on serve")
		add("serve.handler_share."+r, "share", "lower", "serve: ServeHTTP time over client round-trip time for "+r+"; moves p50_ms on serve")
	}
	add("client.transport_share", "share", "lower", "serve: client time outside ServeHTTP (transport, JSON); moves p50_ms on serve")
	add("core.pool.resyncs.serve", "count", "lower", "serve: /statsz full resyncs during traffic; moves wall_s and p99_ms on serve")
	add("core.pool.delta_repairs.serve", "count", "lower", "serve: /statsz journal delta repairs during traffic")
	add("core.pool.memo_hits.serve", "count", "higher", "serve: /statsz memo hits during traffic")
	add("core.pool.stamp_skips.serve", "count", "higher", "serve: /statsz stamp skips during traffic")
	add("bench.trace_overhead", "ratio", "lower", "every workload: traced wall over untraced wall of the same pass")
	return defs
}

// zeroLayers sets every per-layer metric to zero, so that a workload
// reports the layers it does not cross as zero.
func zeroLayers(out *outcome) {
	for _, d := range perLayer() {
		out.values[d.name] = 0
	}
}
