package ordered

import (
	"context"
	"errors"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicWaitsForHelpers pins that no helper outlives Run: when deliver
// panics on the caller, the unwinding waits for the tasks the helpers
// already started, and they claim nothing more.
func TestPanicWaitsForHelpers(t *testing.T) {
	var started, finished atomic.Int64
	task := func(i int) (int, error) {
		started.Add(1)
		defer finished.Add(1)
		if i == 0 {
			// Hold the caller's task until a helper is inside one of its own.
			for started.Load() < 2 {
				runtime.Gosched()
			}
		} else {
			time.Sleep(20 * time.Millisecond)
		}
		return i, nil
	}
	recovered := func() (r any) {
		defer func() { r = recover() }()
		_, _ = Run(context.Background(), 64, 4, task, func(i, _ int) {
			panic("deliver")
		})
		return nil
	}()
	if recovered != "deliver" {
		t.Fatalf("recovered %v, want the deliver panic", recovered)
	}
	if s, f := started.Load(), finished.Load(); s != f || s >= 64 {
		t.Fatalf("after the unwind %d tasks started and %d finished, want all started ones finished and dispatch stopped", s, f)
	}
}

// A zero worker bound means runtime.GOMAXPROCS(0): under one P a run of
// many tasks starts no helper goroutine (a helper would only time-slice
// the caller's P) and still delivers every result in order.
func TestDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := runtime.NumGoroutine()
	var extra atomic.Int64
	out, err := Run(context.Background(), 12, 0, func(i int) (int, error) {
		if n := runtime.NumGoroutine(); n != before {
			extra.Store(int64(n - before))
		}
		return i, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := extra.Load(); n != 0 {
		t.Fatalf("a 12-task run under GOMAXPROCS=1 ran beside %d more goroutines", n)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("result %d = %d", i, v)
		}
	}
}

// An Each over no indices still runs worker 0, on the caller, and that
// worker claims nothing.
func TestEachNoIndicesRunsWorkerZero(t *testing.T) {
	var calls []int
	err := Each(context.Background(), 0, 4, func(w int, c *Claims) error {
		calls = append(calls, w)
		if i, ok := c.Next(); ok {
			t.Errorf("worker %d claimed index %d of none", w, i)
		}
		return nil
	})
	if err != nil || len(calls) != 1 || calls[0] != 0 {
		t.Fatalf("Each over 0 indices ran workers %v and returned %v, want worker 0 alone and nil", calls, err)
	}
}

// The error of the lowest failing index wins even when a higher index
// fails first on another worker: index 1 fails only after index 5 has.
func TestEachLowestClaimedErrorWins(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		slow, fast := errors.New("index 1"), errors.New("index 5")
		fastFailed := make(chan struct{})
		err := Each(context.Background(), 64, workers, func(_ int, c *Claims) error {
			for i, ok := c.Next(); ok; i, ok = c.Next() {
				switch i {
				case 1:
					select {
					case <-fastFailed:
					case <-time.After(10 * time.Second):
						t.Errorf("workers=%d: index 5 never failed", workers)
					}
					return slow
				case 5:
					close(fastFailed)
					return fast
				}
			}
			return nil
		})
		if err != slow {
			t.Fatalf("workers=%d: Each returned %v, want the lower index's %v", workers, err, slow)
		}
	}
}

// A worker that fails before its first claim still fails the Each, on
// the caller and on a helper alike.
func TestEachErrorBeforeAnyClaim(t *testing.T) {
	early := errors.New("early")
	for _, failing := range []int{0, 1} {
		err := Each(context.Background(), 4, 2, func(w int, c *Claims) error {
			if w == failing {
				return early
			}
			for _, ok := c.Next(); ok; _, ok = c.Next() {
			}
			return nil
		})
		if err != early {
			t.Fatalf("worker %d failed before claiming: Each returned %v, want %v", failing, err, early)
		}
	}
}

// A one-worker Each asks for the context's error on the calling goroutine
// alone: it starts no helper, and every claim is the caller's.
func TestEachOneWorkerOnCaller(t *testing.T) {
	ctx := newGoroutineCtx()
	var claimed []int
	if err := Each(ctx, 12, 1, func(w int, c *Claims) error {
		for i, ok := c.Next(); ok; i, ok = c.Next() {
			claimed = append(claimed, i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(claimed) != 12 || !slices.IsSorted(claimed) {
		t.Fatalf("claimed %v, want 0…11 in order", claimed)
	}
	ctx.assertOnly(t, goroutineID())
}

// A one-worker Run costs what a real caller pays and nothing per task: its
// collector, its result slice, and the caller's deliver closure, which the
// collector keeps. The server's warm-query allocation bounds rest on it.
func TestRunAllocs(t *testing.T) {
	task := func(i int) (int, error) { return i, nil }
	for _, n := range []int{1, 12} {
		got := testing.AllocsPerRun(100, func() {
			_, err := Run(context.Background(), n, 1, task, func(i, v int) {
				if v != i || i >= n {
					t.Errorf("delivered %d at %d of %d", v, i, n)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		if got != 3 {
			t.Errorf("a one-worker Run of %d tasks: %v allocs, want 3", n, got)
		}
	}
}

// goroutineCtx is a context that is never done and records the goroutine
// of every Err call. Next asks for the error before each claim, on the
// caller and on every helper, and Each waits for its helpers, so after an
// Each the set names every goroutine that took part.
type goroutineCtx struct {
	context.Context
	mu  sync.Mutex
	ids map[string]bool
}

func newGoroutineCtx() *goroutineCtx {
	return &goroutineCtx{Context: context.Background(), ids: make(map[string]bool)}
}

func (c *goroutineCtx) Err() error {
	id := goroutineID()
	c.mu.Lock()
	c.ids[id] = true
	c.mu.Unlock()
	return nil
}

// assertOnly fails unless the caller's goroutine alone asked for the error.
func (c *goroutineCtx) assertOnly(t *testing.T, caller string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ids) != 1 || !c.ids[caller] {
		t.Fatalf("the work ran on goroutines %v, want only the caller's %s", slices.Sorted(maps.Keys(c.ids)), caller)
	}
}

// goroutineID returns the running goroutine's number from the header line
// of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}
