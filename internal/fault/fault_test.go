package fault

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// reset restores the disarmed state around every test.
func reset(t *testing.T) {
	t.Helper()
	Reset()
	t.Cleanup(Reset)
}

func TestDisarmedIsNil(t *testing.T) {
	reset(t)
	if Enabled() {
		t.Fatal("fresh registry reports enabled")
	}
	if err := Inject("store.save"); err != nil {
		t.Fatalf("disarmed Inject = %v", err)
	}
	if got := Stats(); got != nil {
		t.Fatalf("disarmed Stats = %v", got)
	}
}

func TestDisarmedInjectDoesNotAllocate(t *testing.T) {
	reset(t)
	if allocs := testing.AllocsPerRun(100, func() {
		_ = Inject("store.save")
	}); allocs != 0 {
		t.Fatalf("disarmed Inject allocates %g per call", allocs)
	}
}

func TestErrorAction(t *testing.T) {
	reset(t)
	if err := Enable("a", "error(disk full)"); err != nil {
		t.Fatal(err)
	}
	err := Inject("a")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want message", err)
	}
	// Other sites stay dark.
	if err := Inject("b"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestNthTrigger(t *testing.T) {
	reset(t)
	if err := Enable("a", "error@nth=3"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := Inject("a")
		if (i == 3) != (err != nil) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	st := Stats()
	if len(st) != 1 || st[0].Calls != 5 || st[0].Fired != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFromAndTimesTriggers(t *testing.T) {
	reset(t)
	if err := Enable("a", "error@from=2,times=2"); err != nil {
		t.Fatal(err)
	}
	var fired int
	for i := 0; i < 6; i++ {
		if Inject("a") != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2 (from=2 capped by times=2)", fired)
	}
}

func TestProbabilityIsDeterministic(t *testing.T) {
	reset(t)
	run := func() []bool {
		if err := Enable("a", "error@p=0.5,seed=42"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = Inject("a") != nil
		}
		return out
	}
	first, second := run(), run()
	var fired int
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("call %d differs across re-arms with one seed", i)
		}
		if first[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(first) {
		t.Fatalf("p=0.5 fired %d/%d", fired, len(first))
	}
	// A different seed gives a different pattern.
	if err := Enable("a", "error@p=0.5,seed=43"); err != nil {
		t.Fatal(err)
	}
	other := make([]bool, 64)
	for i := range other {
		other[i] = Inject("a") != nil
	}
	same := true
	for i := range other {
		if other[i] != first[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed=42 and seed=43 produced identical firing patterns")
	}
}

func TestDelayAction(t *testing.T) {
	reset(t)
	if err := Enable("a", "delay(30ms)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject("a"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay slept %v, want >= 30ms", d)
	}
}

func TestDelayHonorsContext(t *testing.T) {
	reset(t)
	if err := Enable("a", "delay(10s)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := InjectContext(ctx, "a")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("interrupted delay err = %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted delay err should carry the context cause, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("delay ignored the context")
	}
}

func TestPanicAction(t *testing.T) {
	reset(t)
	if err := Enable("a", "panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		pv, ok := v.(PanicValue)
		if !ok || pv.Site != "a" {
			t.Fatalf("recovered %v, want PanicValue{a}", v)
		}
	}()
	_ = Inject("a")
	t.Fatal("panic action did not panic")
}

func TestEnableSpecsAndDisable(t *testing.T) {
	reset(t)
	if err := EnableSpecs("a=error; b=delay(1ms)@nth=1 ;; c=panic@times=1"); err != nil {
		t.Fatal(err)
	}
	if len(Stats()) != 3 {
		t.Fatalf("stats = %+v, want 3 sites", Stats())
	}
	Reset()
	if Inject("a") != nil {
		t.Fatal("reset site still fires")
	}
	if Enabled() {
		t.Fatal("registry armed after Reset")
	}
}

func TestEnableFromEnv(t *testing.T) {
	reset(t)
	t.Setenv(EnvVar, "a=error@nth=1")
	if err := EnableFromEnv(); err != nil {
		t.Fatal(err)
	}
	if Inject("a") == nil {
		t.Fatal("env-armed site did not fire")
	}
	t.Setenv(EnvVar, "")
	Reset()
	if err := EnableFromEnv(); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("empty env armed the registry")
	}
}

func TestSpecErrors(t *testing.T) {
	reset(t)
	for _, spec := range []string{
		"",
		"explode",
		"delay",
		"delay(xyz)",
		"error(unclosed",
		"error@nth=0",
		"error@p=2",
		"error@p=0",
		"error@nth=1,from=2",
		"error@bogus=1",
		"error@nth",
	} {
		if err := Enable("a", spec); err == nil {
			t.Errorf("Enable(%q) accepted", spec)
		}
	}
	if err := EnableSpecs("no-equals-sign"); err == nil {
		t.Error("EnableSpecs without '=' accepted")
	}
	if err := Enable("", "error"); err == nil {
		t.Error("empty site accepted")
	}
}
