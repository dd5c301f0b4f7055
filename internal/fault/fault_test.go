package fault

import (
	"bytes"
	"errors"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

var (
	testSiteA     = Register("test.site.a", "fault package test site")
	testSiteWrite = Register("test.site.write", "fault package write test site")
)

func arm(t *testing.T, s *Set) {
	t.Helper()
	Install(s)
	t.Cleanup(Disarm)
}

func TestDisarmedIsFree(t *testing.T) {
	Disarm()
	if Enabled() {
		t.Fatal("Enabled with nothing installed")
	}
	if err := Hit(testSiteA); err != nil {
		t.Fatalf("disarmed Hit = %v", err)
	}
	var buf bytes.Buffer
	n, err := WriteThrough(testSiteWrite, &buf, []byte("hello"))
	if n != 5 || err != nil || buf.String() != "hello" {
		t.Fatalf("disarmed WriteThrough = %d, %v, %q", n, err, buf.String())
	}
}

func TestErrorAtScheduledHit(t *testing.T) {
	arm(t, NewSet(Rule{Site: testSiteA, Mode: ModeError, Sched: At(2, 4)}))
	for hit := 1; hit <= 5; hit++ {
		err := Hit(testSiteA)
		want := hit == 2 || hit == 4
		if (err != nil) != want {
			t.Fatalf("hit %d: err = %v, want firing %v", hit, err, want)
		}
		if err != nil && !Injected(err) {
			t.Fatalf("hit %d: error %v is not classified Injected", hit, err)
		}
	}
}

func TestFromAndAlwaysSchedules(t *testing.T) {
	arm(t, NewSet(Rule{Site: testSiteA, Mode: ModeError, Sched: From(3)}))
	fired := 0
	for hit := 1; hit <= 5; hit++ {
		if Hit(testSiteA) != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("From(3) fired %d of 5 hits, want 3", fired)
	}
	arm(t, NewSet(Rule{Site: testSiteA, Mode: ModeError, Sched: Always()}))
	if Hit(testSiteA) == nil {
		t.Fatal("Always schedule did not fire")
	}
}

func TestProbScheduleDeterministic(t *testing.T) {
	sc := Prob(0.5, 42)
	var first []bool
	for hit := uint64(1); hit <= 64; hit++ {
		first = append(first, sc.fires("x", hit))
	}
	fired := 0
	for hit := uint64(1); hit <= 64; hit++ {
		if sc.fires("x", hit) != first[hit-1] {
			t.Fatalf("prob schedule not deterministic at hit %d", hit)
		}
		if first[hit-1] {
			fired++
		}
	}
	if fired == 0 || fired == 64 {
		t.Fatalf("p=0.5 fired %d of 64 hits", fired)
	}
	// A different seed must give a different firing set.
	other := Prob(0.5, 43)
	same := true
	for hit := uint64(1); hit <= 64; hit++ {
		if other.fires("x", hit) != first[hit-1] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 share a firing set")
	}
}

func TestPanicMode(t *testing.T) {
	arm(t, NewSet(Rule{Site: testSiteA, Mode: ModePanic, Sched: At(1)}))
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic mode did not panic")
		}
		if !strings.Contains(v.(string), testSiteA) {
			t.Fatalf("panic value %q does not name the site", v)
		}
	}()
	Hit(testSiteA)
}

func TestDelayMode(t *testing.T) {
	arm(t, NewSet(Rule{Site: testSiteA, Mode: ModeDelay, Delay: 20 * time.Millisecond, Sched: At(1)}))
	start := time.Now()
	if err := Hit(testSiteA); err != nil {
		t.Fatalf("delay returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("delay slept only %v", d)
	}
}

func TestSigtermMode(t *testing.T) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	arm(t, NewSet(Rule{Site: testSiteA, Mode: ModeSigterm, Sched: At(2)}))
	if err := Hit(testSiteA); err != nil {
		t.Fatalf("hit 1: %v", err)
	}
	select {
	case sig := <-sigc:
		t.Fatalf("hit 1 raised %v", sig)
	default:
	}
	if err := Hit(testSiteA); err != nil {
		t.Fatalf("sigterm returned error %v", err)
	}
	select {
	case <-sigc:
	case <-time.After(10 * time.Second):
		t.Fatal("sigterm mode raised no signal")
	}
}

func TestPartialWrite(t *testing.T) {
	arm(t, NewSet(Rule{Site: testSiteWrite, Mode: ModePartial, Bytes: 3, Sched: At(2)}))
	var buf bytes.Buffer
	if _, err := WriteThrough(testSiteWrite, &buf, []byte("first\n")); err != nil {
		t.Fatalf("hit 1: %v", err)
	}
	n, err := WriteThrough(testSiteWrite, &buf, []byte("second\n"))
	if err == nil || !Injected(err) {
		t.Fatalf("hit 2: err = %v, want injected", err)
	}
	if n != 3 || buf.String() != "first\nsec" {
		t.Fatalf("hit 2 wrote %d bytes, buffer %q", n, buf.String())
	}
	// Error mode writes nothing at all.
	arm(t, NewSet(Rule{Site: testSiteWrite, Mode: ModeError, Sched: Always()}))
	buf.Reset()
	if n, err := WriteThrough(testSiteWrite, &buf, []byte("x")); err == nil || n != 0 || buf.Len() != 0 {
		t.Fatalf("error mode wrote %d bytes, err %v", n, err)
	}
}

func TestParseGrammar(t *testing.T) {
	set, err := Parse("test.site.a=error@3; test.site.write=torn:12@2,5", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.rules[testSiteA]) != 1 || len(set.rules[testSiteWrite]) != 1 {
		t.Fatalf("rules = %v", set.rules)
	}
	w := set.rules[testSiteWrite][0]
	if w.Mode != ModeTorn || w.Bytes != 12 {
		t.Fatalf("torn rule = %+v", w.Rule)
	}
	for _, good := range []string{
		"test.site.a=panic@*",
		"test.site.a=delay:50ms@1+",
		"test.site.a=error@p0.25",
		"test.site.a=crash@7",
		"test.site.a=sigterm@2",
		"test.site.a=partial:0@1",
	} {
		if _, err := Parse(good, 1); err != nil {
			t.Errorf("Parse(%q) = %v", good, err)
		}
	}
	for _, bad := range []string{
		"",
		"nosuch.site=error@1",
		"test.site.a=explode@1",
		"test.site.a=error",
		"test.site.a=error@0",
		"test.site.a=error@p1.5",
		"test.site.a=delay@1",
		"test.site.a=torn:x@1",
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestParsedErrorSchedule(t *testing.T) {
	set, err := Parse("test.site.a=error@2", 0)
	if err != nil {
		t.Fatal(err)
	}
	arm(t, set)
	if err := Hit(testSiteA); err != nil {
		t.Fatalf("hit 1 fired: %v", err)
	}
	if err := Hit(testSiteA); err == nil {
		t.Fatal("hit 2 did not fire")
	}
	if err := Hit(testSiteA); err != nil {
		t.Fatalf("hit 3 fired: %v", err)
	}
}

func TestInjectedClassification(t *testing.T) {
	if !Injected(injectedErr("x")) {
		t.Fatal("injectedErr not classified")
	}
	if Injected(errors.New("plain")) {
		t.Fatal("plain error classified injected")
	}
}
