// Package ordered runs indexed tasks on a bounded pool of goroutines and
// delivers their results in index order. It is the one ordered fan-out of
// the codebase: query.Session.Run evaluates sweeps on it and
// experiments.Runner.RunMany runs paper artifacts on it.
package ordered

import (
	"context"
	"runtime"
	"sync/atomic"
)

// Run evaluates task(0), …, task(n-1) on at most workers goroutines
// (≤ 0 means GOMAXPROCS) and returns their results in index order.
//
// The calling goroutine is worker 0 and the collector: it runs tasks
// itself, and it calls deliver (when non-nil) once per result as the
// completed prefix grows, in index order. Only n > 1 starts helper
// goroutines (up to workers − 1), so a single task runs inline. Dispatch
// is in index order and stops after the first failure: every lower index
// has been dispatched by then, so the error returned is the one of the
// lowest failing index, as a serial run would report. Cancelling ctx
// stops dispatch between tasks, and Run then returns ctx's error. A panic
// in deliver, or in a task the caller runs, stops the helpers' dispatch
// and unwinds the caller once the helpers have finished their current
// task; one in a helper ends the process. No helper outlives Run.
func Run[T any](ctx context.Context, n, workers int, task func(i int) (T, error), deliver func(i int, v T)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool[T]{ctx: ctx, n: n, task: task}
	helpers := min(workers, n) - 1
	if helpers > 0 {
		// One slot per task plus one exit marker per helper: a helper never
		// blocks on a send, so it finishes even if the caller unwinds.
		p.outcomes = make(chan outcome[T], n+helpers)
		for range helpers {
			go p.help()
		}
		// A caller unwinding from a panic stops the helpers' dispatch and
		// waits for their exit markers, so no helper outlives Run. (On a
		// normal return every marker is already in: helpers is 0.)
		defer func() {
			p.failed.Store(true)
			for helpers > 0 {
				if oc := <-p.outcomes; oc.idx < 0 {
					helpers--
				}
			}
		}()
	}

	// The caller folds outcomes into the completed prefix: between its own
	// tasks it drains whatever the helpers have finished, then waits for
	// the rest.
	out := make([]T, n)
	ready := make([]bool, n)
	next, errIdx := 0, -1
	var firstErr error
	record := func(oc outcome[T]) {
		if oc.idx < 0 {
			helpers--
			return
		}
		if oc.err != nil {
			if errIdx == -1 || oc.idx < errIdx {
				errIdx, firstErr = oc.idx, oc.err
			}
			return
		}
		out[oc.idx], ready[oc.idx] = oc.v, true
		for ; next < n && ready[next]; next++ {
			if deliver != nil {
				deliver(next, out[next])
			}
		}
	}
	for idx, ok := p.claim(); ok; idx, ok = p.claim() {
		record(p.run(idx))
		for drained := false; !drained; {
			select {
			case oc := <-p.outcomes: // nil without helpers: never ready
				record(oc)
			default:
				drained = true
			}
		}
	}
	for helpers > 0 {
		record(<-p.outcomes)
	}

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// outcome is one finished task; idx -1 marks a helper's exit.
type outcome[T any] struct {
	idx int
	v   T
	err error
}

// pool is the state one Run shares with its helper goroutines.
type pool[T any] struct {
	ctx      context.Context
	n        int
	task     func(int) (T, error)
	claimed  atomic.Int64
	failed   atomic.Bool
	outcomes chan outcome[T]
}

// claim hands out the next index in order, or reports false once every
// index is claimed, a task has failed or the context is done.
func (p *pool[T]) claim() (int, bool) {
	if p.failed.Load() || p.ctx.Err() != nil {
		return 0, false
	}
	idx := int(p.claimed.Add(1)) - 1
	return idx, idx < p.n
}

func (p *pool[T]) run(idx int) outcome[T] {
	v, err := p.task(idx)
	if err != nil {
		p.failed.Store(true)
	}
	return outcome[T]{idx: idx, v: v, err: err}
}

// help is a helper worker: it runs claimed tasks until dispatch stops,
// then posts its exit marker.
func (p *pool[T]) help() {
	for idx, ok := p.claim(); ok; idx, ok = p.claim() {
		p.outcomes <- p.run(idx)
	}
	p.outcomes <- outcome[T]{idx: -1}
}
