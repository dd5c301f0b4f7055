// Package fault is a deterministic failpoint subsystem: named
// injection sites compiled into the store and runner layers, armed at
// run time with seeded trigger schedules. It exists so the crash,
// corruption, and degradation paths of the sweep fabric can be
// exercised exactly — an injected failure fires at a chosen hit of a
// chosen site, not at a random instant — which is what makes the
// crash-injection suite's "resume is byte-exact" assertion meaningful.
//
// Sites are registered by the packages that own them (Register) and
// armed either programmatically (Parse/NewSet + Install) or from the
// environment (ArmFromEnv, reading BBNCG_FAULTS / BBNCG_FAULT_SEED —
// how the crash suite arms a real bbncg subprocess). When nothing is
// armed every check is a single atomic load, so the sites are free in
// production runs.
//
// The BBNCG_FAULTS grammar is a ';'-separated rule list:
//
//	rule  := site=mode[:arg]@sched
//	mode  := error | panic | crash | sigterm | delay:DURATION | partial:N | torn:N
//	sched := '*' | N | N+ | N,M,... | pFLOAT
//
// Hits are counted per site from 1. "@3" fires on exactly the third
// hit, "@3+" on every hit from the third, "@*" on every hit, and
// "@p0.05" fires each hit with probability 0.05, decided by a hash of
// (site, hit, seed) so the firing hit set is deterministic even when
// the hit order is not. Examples:
//
//	BBNCG_FAULTS='runner.eval=error@3'             third evaluation fails
//	BBNCG_FAULTS='runner.eval=panic@2;store.append.write=torn:12@5'
//	BBNCG_FAULTS='store.manifest.rename=crash@1'   SIGKILL at first rename
//	BBNCG_FAULTS='runner.eval=sigterm@1'           SIGTERM at first evaluation
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is what happens when a rule fires.
type Mode int

const (
	// ModeError fails the site with an injected (transient) error.
	ModeError Mode = iota
	// ModePanic panics at the site — the probe for panic-isolation
	// paths (a harness must degrade it to an error, not die).
	ModePanic
	// ModeDelay sleeps at the site, then proceeds normally.
	ModeDelay
	// ModePartial truncates a write to its first Bytes bytes and fails
	// it: a torn write the process survives (ENOSPC, I/O error).
	ModePartial
	// ModeTorn writes the first Bytes bytes, then kills the process: a
	// torn write at the instant of SIGKILL or power loss.
	ModeTorn
	// ModeCrash kills the process at the site with no cleanup — the
	// SIGKILL simulation.
	ModeCrash
	// ModeSigterm sends the process SIGTERM (os.Interrupt off unix),
	// then proceeds normally: a graceful-shutdown request landing at an
	// exact point of the run instead of after a wall-clock sleep.
	ModeSigterm
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	case ModePartial:
		return "partial"
	case ModeTorn:
		return "torn"
	case ModeCrash:
		return "crash"
	case ModeSigterm:
		return "sigterm"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Rule arms one failure mode at one site under a schedule.
type Rule struct {
	Site  string
	Mode  Mode
	Bytes int           // ModePartial/ModeTorn: written prefix length
	Delay time.Duration // ModeDelay: sleep duration
	Sched Schedule
}

// Schedule decides which hits of a site fire. The zero value never
// fires.
type Schedule struct {
	hits []uint64 // explicit 1-based hit numbers
	from uint64   // every hit >= from (0 = unset)
	all  bool     // every hit
	prob float64  // per-hit probability (0 = unset)
	seed int64    // seed for the probabilistic decision
}

// At returns a schedule firing on exactly the given hits (1-based).
func At(hits ...uint64) Schedule { return Schedule{hits: hits} }

// From returns a schedule firing on every hit >= n.
func From(n uint64) Schedule { return Schedule{from: n} }

// Always returns a schedule firing on every hit.
func Always() Schedule { return Schedule{all: true} }

// Prob returns a schedule firing each hit with probability p, decided
// deterministically from (site, hit number, seed) — the set of firing
// hit numbers is a pure function of the seed, independent of the
// concurrency order in which callers reach the site.
func Prob(p float64, seed int64) Schedule { return Schedule{prob: p, seed: seed} }

func (sc Schedule) fires(site string, hit uint64) bool {
	if sc.all {
		return true
	}
	if sc.from > 0 && hit >= sc.from {
		return true
	}
	for _, h := range sc.hits {
		if h == hit {
			return true
		}
	}
	if sc.prob > 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s\x00%d\x00%d", site, hit, sc.seed)
		// FNV-1a diffuses trailing-byte differences poorly (a seed at
		// the end of the input barely moves the high bits), so run the
		// sum through a full-avalanche finalizer before thresholding.
		x := h.Sum64()
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return float64(x>>11)/float64(1<<53) < sc.prob
	}
	return false
}

// armedRule is a Rule plus its per-site hit counter.
type armedRule struct {
	Rule
	hits atomic.Uint64
}

// Set is an armed collection of rules. Install makes it the active
// set; a nil active set (the default) disables every site.
type Set struct {
	rules map[string][]*armedRule
}

// NewSet builds a set from explicit rules (the programmatic arming
// path; tests use it to avoid string specs).
func NewSet(rules ...Rule) *Set {
	s := &Set{rules: make(map[string][]*armedRule)}
	for _, r := range rules {
		s.rules[r.Site] = append(s.rules[r.Site], &armedRule{Rule: r})
	}
	return s
}

var active atomic.Pointer[Set]

// Install makes s the active fault set (nil is equivalent to Disarm).
func Install(s *Set) { active.Store(s) }

// Disarm deactivates fault injection entirely.
func Disarm() { active.Store(nil) }

// Enabled reports whether any fault set is armed.
func Enabled() bool { return active.Load() != nil }

// match counts one hit at the site on every armed rule and returns the
// first rule whose schedule fires, or nil.
func (s *Set) match(site string) *armedRule {
	var fired *armedRule
	for _, r := range s.rules[site] {
		hit := r.hits.Add(1)
		if fired == nil && r.Sched.fires(site, hit) {
			fired = r
		}
	}
	return fired
}

// ErrInjected is the sentinel wrapped by every injected error, so
// harness code can classify them (they count as transient for retry).
var ErrInjected = errors.New("injected fault")

// Injected reports whether err originates from an injected fault.
func Injected(err error) bool { return errors.Is(err, ErrInjected) }

func injectedErr(site string) error {
	return fmt.Errorf("fault: %s: %w", site, ErrInjected)
}

// Hit evaluates the failpoint at site: nil when disarmed or the
// schedule does not fire; otherwise it returns an injected error,
// panics, sleeps, signals or kills the process according to the armed
// mode. Partial-write modes degrade to their closest non-write
// behaviour (partial → error, torn → crash); use WriteThrough at write
// sites.
func Hit(site string) error {
	set := active.Load()
	if set == nil {
		return nil
	}
	r := set.match(site)
	if r == nil {
		return nil
	}
	switch r.Mode {
	case ModeDelay:
		time.Sleep(r.Delay)
		return nil
	case ModeSigterm:
		terminate()
		return nil
	case ModePanic:
		panic(fmt.Sprintf("fault: injected panic at %s", site))
	case ModeCrash, ModeTorn:
		die()
	}
	return injectedErr(site)
}

// WriteThrough performs w.Write(data) through any fault armed at site:
// error fails without writing, partial writes a prefix then fails,
// torn writes a prefix then kills the process, crash kills before
// writing, delay sleeps and sigterm signals, then both write normally.
// Disarmed it is exactly w.Write(data).
func WriteThrough(site string, w io.Writer, data []byte) (int, error) {
	set := active.Load()
	if set == nil {
		return w.Write(data)
	}
	r := set.match(site)
	if r == nil {
		return w.Write(data)
	}
	switch r.Mode {
	case ModeDelay:
		time.Sleep(r.Delay)
		return w.Write(data)
	case ModeSigterm:
		terminate()
		return w.Write(data)
	case ModePanic:
		panic(fmt.Sprintf("fault: injected panic at %s", site))
	case ModeCrash:
		die()
	case ModeTorn:
		w.Write(data[:prefixLen(r.Bytes, len(data))])
		die()
	case ModePartial:
		n, err := w.Write(data[:prefixLen(r.Bytes, len(data))])
		if err != nil {
			return n, err
		}
		return n, injectedErr(site)
	}
	return 0, injectedErr(site)
}

func prefixLen(want, have int) int {
	if want < 0 {
		return 0
	}
	if want > have {
		return have
	}
	return want
}

// registry holds every compiled-in site, so a misspelled site in a
// fault spec is an arming error instead of a silent no-op.
var registry sync.Map // site -> description

// Register declares a site at package init and returns its name (for
// assignment to the owning package's site constant).
func Register(site, desc string) string {
	registry.Store(site, desc)
	return site
}

// Sites lists every registered site, sorted.
func Sites() []string {
	var sites []string
	registry.Range(func(k, _ any) bool {
		sites = append(sites, k.(string))
		return true
	})
	sort.Strings(sites)
	return sites
}

// Parse compiles a BBNCG_FAULTS spec (see package doc) against the
// registered sites. seed feeds the probabilistic schedules.
func Parse(spec string, seed int64) (*Set, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part, seed)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty spec %q", spec)
	}
	return NewSet(rules...), nil
}

func parseRule(s string, seed int64) (Rule, error) {
	site, rest, ok := strings.Cut(s, "=")
	if !ok {
		return Rule{}, fmt.Errorf("fault: rule %q is not site=mode@sched", s)
	}
	if _, known := registry.Load(site); !known {
		return Rule{}, fmt.Errorf("fault: unknown site %q (registered: %s)", site, strings.Join(Sites(), " "))
	}
	modeArg, sched, ok := strings.Cut(rest, "@")
	if !ok {
		return Rule{}, fmt.Errorf("fault: rule %q has no @sched", s)
	}
	r := Rule{Site: site}
	mode, arg, hasArg := strings.Cut(modeArg, ":")
	switch mode {
	case "error":
		r.Mode = ModeError
	case "panic":
		r.Mode = ModePanic
	case "crash":
		r.Mode = ModeCrash
	case "sigterm":
		r.Mode = ModeSigterm
	case "delay":
		r.Mode = ModeDelay
		d, err := time.ParseDuration(arg)
		if !hasArg || err != nil {
			return Rule{}, fmt.Errorf("fault: rule %q needs delay:DURATION", s)
		}
		r.Delay = d
	case "partial", "torn":
		r.Mode = ModePartial
		if mode == "torn" {
			r.Mode = ModeTorn
		}
		n, err := strconv.Atoi(arg)
		if !hasArg || err != nil || n < 0 {
			return Rule{}, fmt.Errorf("fault: rule %q needs %s:BYTES", s, mode)
		}
		r.Bytes = n
	default:
		return Rule{}, fmt.Errorf("fault: rule %q has unknown mode %q", s, mode)
	}
	var err error
	if r.Sched, err = parseSched(sched, site, seed); err != nil {
		return Rule{}, fmt.Errorf("fault: rule %q: %w", s, err)
	}
	return r, nil
}

func parseSched(s, site string, seed int64) (Schedule, error) {
	switch {
	case s == "*":
		return Always(), nil
	case strings.HasPrefix(s, "p"):
		p, err := strconv.ParseFloat(s[1:], 64)
		if err != nil || p <= 0 || p > 1 {
			return Schedule{}, fmt.Errorf("schedule %q is not p(0,1]", s)
		}
		return Prob(p, seed), nil
	case strings.HasSuffix(s, "+"):
		n, err := strconv.ParseUint(strings.TrimSuffix(s, "+"), 10, 64)
		if err != nil || n == 0 {
			return Schedule{}, fmt.Errorf("schedule %q is not N+", s)
		}
		return From(n), nil
	}
	var hits []uint64
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil || n == 0 {
			return Schedule{}, fmt.Errorf("schedule %q is not N[,M...] (hits are 1-based)", s)
		}
		hits = append(hits, n)
	}
	return At(hits...), nil
}

// ArmFromEnv arms the fault set described by BBNCG_FAULTS (seeded by
// BBNCG_FAULT_SEED, default 0). A no-op when BBNCG_FAULTS is unset or
// empty — the production path. bbncg calls it at startup so a real
// binary under the crash suite honours the injected schedule.
func ArmFromEnv() error {
	spec := os.Getenv("BBNCG_FAULTS")
	if spec == "" {
		return nil
	}
	var seed int64
	if s := os.Getenv("BBNCG_FAULT_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("fault: BBNCG_FAULT_SEED %q is not an integer", s)
		}
		seed = n
	}
	set, err := Parse(spec, seed)
	if err != nil {
		return err
	}
	Install(set)
	return nil
}
