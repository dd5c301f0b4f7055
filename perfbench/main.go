// Command perfbench is the repository's benchmark: one command that
// runs one of three workloads against the library, checks the outputs,
// and prints every metric by name with its unit. BENCHMARK.json at the
// repository root declares the workloads and metrics; run it from the
// root as
//
//	bash perfbench/run.sh --workload dyn --seed 1 --seconds 10 --trace 0
//
// The workloads are the three a user of the repository runs:
//
//   - sweep: every registered experiment at full effort through
//     runner.Run into a fresh store, rendered (`bbncg -full all`);
//   - dyn: greedy best-response dynamics from random profiles to
//     convergence, then settled rounds on the warm cache pool;
//   - serve: closed-loop typed-client traffic against an in-process
//     session server on loopback.
//
// While a run measures, one SCHED_IDLE child per CPU keeps the CPUs out
// of the idle state (see hold.go), so that a workload that blocks and
// wakes is not slowed by a virtual machine's idle CPUs being handed back
// to the host.
//
// The benchmark times each layer from outside, only through public
// functions and hooks the program already has (runner.Job.Eval,
// dynamics.Options.Cached, CachePool.Stats, serve.Server.ServeHTTP and
// the client's http.Client), so it adds no code to the program.
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// spans recorded. With --trace 1 it alternates untraced and traced
// passes over the same inputs, reports the per-layer metrics from the
// traced passes only, and writes the spans to
// .bench_build/perfbench/spans/ when the run ends. Every run also
// writes a ledger record (machine, Go version, commit, seed and every
// metric) to .bench_build/perfbench/ledger/.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// runOpts is what every workload receives.
type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string    // scratch directory for stores, removed when the run ends
	heap    *heapPeak // nil in tests
}

// passHeap returns the heap peak of the pass that just ended, in MiB,
// and starts the next pass's peak.
func (o runOpts) passHeap() float64 {
	if o.heap == nil {
		return 1
	}
	return o.heap.take()
}

// outcome is what a workload reports: its checks, its metrics and the
// spans of its traced passes.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	notes     []string
	rec       *Recorder
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// check counts one output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runOpts) (*outcome, error){
	"sweep": runSweep,
	"dyn":   runDyn,
	"serve": runServe,
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// ledger is the record each run appends to the performance ledger: one
// schema for every workload, mode and machine.
type ledger struct {
	Schema     string  `json:"schema"`
	Time       string  `json:"time"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"goVersion"`
	Commit     string  `json:"commit"`
	WallS      float64 `json:"wallS"`
	result
}

const outDir = ".bench_build/perfbench"

func main() {
	if cpu, ok := os.LookupEnv(holdEnv); ok {
		os.Exit(holdCPU(cpu))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: sweep, dyn or serve")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Int("seconds", 10, "how long the run measures")
	trace := fl.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload sweep|dyn|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := checkRoot(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	hold, err := holdCPUs()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: holding the CPUs out of idle: %v\n", err)
		return 1
	}
	defer hold.release()
	scratch := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	start := time.Now()
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: scratch, heap: startHeapPeak()}
	out, err := drive(opts)
	opts.heap.stop()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer()
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}

	rec := ledger{
		Schema: "perfbench/1", Time: start.UTC().Format(time.RFC3339), Workload: *workload,
		Seed: *seed, Seconds: *seconds, Trace: opts.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		GoVersion: runtime.Version(), Commit: commit(), WallS: time.Since(start).Seconds(), result: res,
	}
	stamp := fmt.Sprintf("%s-seed%d-trace%d-%d", *workload, *seed, *trace, start.UnixNano())
	if out.rec != nil {
		if err := out.rec.Write(filepath.Join(outDir, "spans", stamp+".json")); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	raw, err := json.Marshal(rec)
	if err == nil {
		err = writeFile(filepath.Join(outDir, "ledger", stamp+".json"), raw)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: writing ledger: %v\n", err)
		return 1
	}

	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%d  nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		*workload, *seed, *seconds, *trace, rec.NProc, rec.GOMAXPROCS, rec.CPU, rec.GoVersion, rec.Commit)
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  checks: %d attempted, %d failed (error_ratio %.4g)\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, d := range defs {
		fmt.Fprintf(w, "  %-46s %14.6g %-6s %s\n", d.name, res.Metrics[d.name].Value, d.unit, d.about)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// checkRoot refuses to run anywhere but the root of the repository,
// where the stores and outputs it writes belong.
func checkRoot() error {
	raw, err := os.ReadFile("go.mod")
	if err != nil || !strings.HasPrefix(string(raw), "module repro\n") {
		return fmt.Errorf("run from the repository root (no go.mod of module repro here)")
	}
	return nil
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapPeak samples the bytes of live and not yet swept heap objects
// every millisecond and keeps the largest value seen since the last
// take. Workloads take it once per pass and report the median pass, so
// that one pass that happens to meet a late collection does not set the
// figure.
type heapPeak struct {
	quit chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak since the last take in MiB and starts anew.
func (h *heapPeak) take() float64 { return float64(h.peak.Swap(0)) / (1 << 20) }

// stop ends the sampling.
func (h *heapPeak) stop() {
	close(h.quit)
	<-h.done
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the code measured: the VCS revision stamped into
// the build when it was built inside a git work tree, otherwise a
// digest of the Go sources in the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	var files []string
	// Unreadable entries are skipped, so the walk itself cannot fail.
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(raw))
		h.Write(raw)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil)[:8])
}
