package ordered

import (
	"context"
	"runtime"
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
