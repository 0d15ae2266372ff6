// Package ordered is the one claim loop of the codebase: Each runs indexed
// work on a bounded pool whose worker 0 is the caller, and Run builds on it
// to deliver results in index order. query.Session.Run and
// experiments.Runner.RunMany run on Run, the Monte Carlo engine on Each.
package ordered

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Each runs worker(w, c) for w = 0, …, k−1, with k = min(workers, n) but
// at least 1 (workers ≤ 0 means GOMAXPROCS), and returns once all have
// returned. The caller runs worker 0, so one worker starts no goroutine.
// Through its Claims every worker claims indices from one shared counter,
// so 0, …, n−1 are claimed in order, each once. A worker's call is its
// scope: what it defers runs once it leaves, also on a caller unwinding
// from a panic.
//
// Next checks ctx.Err before each claim, and a worker error stops the
// claims. Every lower index has been claimed by then, so Each returns the
// error of the lowest index a failing worker had claimed (an error before
// any claim ranks lowest), whichever failed first; otherwise ctx.Err(). A
// panic in worker 0 stops the claims and unwinds once every helper has
// returned; one in a helper ends the process.
func Each(ctx context.Context, n, workers int, worker func(w int, c *Claims) error) error {
	p := &pool{ctx: ctx, n: n, worker: workerFunc(worker)}
	return p.run(poolSize(n, workers))
}

// Claims is one worker's cursor over its Each's shared claim counter.
type Claims struct {
	p    *pool
	last int // the index claimed last, -1 before the first claim
}

// Next claims the next index in order. It reports false once every index
// is claimed, a worker has failed or the context is done; the worker
// should then return.
func (c *Claims) Next() (int, bool) {
	p := c.p
	if p.failed.Load() || p.ctx.Err() != nil {
		return 0, false
	}
	i := int(p.claimed.Add(1)) - 1
	if i >= p.n {
		return 0, false
	}
	c.last = i
	return i, true
}

// Run evaluates task(0), …, task(n−1) on an Each pool and returns their
// results in index order, or the error Each returns. The caller is worker 0
// and the collector: it calls deliver (when non-nil) in index order as the
// completed prefix grows, also up to a failing index. Helpers post the
// indices they finish to a channel sized never to block; the caller takes
// them in between its own tasks, and those finished after its last claim
// once the helpers have returned. A panic in deliver unwinds like one in a
// task the caller runs.
func Run[T any](ctx context.Context, n, workers int, task func(i int) (T, error), deliver func(i int, v T)) ([]T, error) {
	workers = poolSize(n, workers)
	r := &collector[T]{task: task, deliver: deliver, out: make([]T, n)}
	r.pool = pool{ctx: ctx, n: n, worker: r}
	if workers > 1 {
		r.ready = make([]bool, n)
		r.done = make(chan int, n)
	}
	err := r.pool.run(workers)
	for len(r.done) > 0 {
		r.complete(<-r.done)
	}
	if err != nil {
		return nil, err
	}
	return r.out, nil
}

// poolSize is the number of workers an Each over n indices runs.
func poolSize(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// worker is the body every worker of a pool runs. Run's collector
// implements it itself, so handing it to the pool allocates no method
// value.
type worker interface {
	work(w int, c *Claims) error
}

type workerFunc func(w int, c *Claims) error

func (f workerFunc) work(w int, c *Claims) error { return f(w, c) }

// pool is the state the workers of one Each share.
type pool struct {
	ctx     context.Context
	n       int
	worker  worker
	claimed atomic.Int64
	failed  atomic.Bool
	helpers sync.WaitGroup
	mu      sync.Mutex // guards errIdx and err until the helpers return
	errIdx  int
	err     error
	zero    Claims // worker 0's cursor, embedded so it is no allocation
}

func (p *pool) run(workers int) error {
	p.join(workers)
	if p.err != nil {
		return p.err
	}
	return p.ctx.Err()
}

// join runs worker 0 on the caller and returns once every helper has.
func (p *pool) join(workers int) {
	unwinding := true
	if helpers := workers - 1; helpers > 0 {
		p.helpers.Add(helpers)
		for w := 1; w <= helpers; w++ {
			go p.help(w)
		}
		// A caller unwinding from worker 0 stops the claims first, so each
		// helper returns after the index it is on.
		defer func() {
			if unwinding {
				p.failed.Store(true)
			}
			p.helpers.Wait()
		}()
	}
	p.zero = Claims{p: p, last: -1}
	p.record(&p.zero, p.worker.work(0, &p.zero))
	unwinding = false
}

func (p *pool) help(w int) {
	defer p.helpers.Done()
	c := Claims{p: p, last: -1}
	p.record(&c, p.worker.work(w, &c))
}

// record stops the claims on a worker error and keeps the error of the
// lowest claimed index.
func (p *pool) record(c *Claims, err error) {
	if err == nil {
		return
	}
	p.failed.Store(true)
	p.mu.Lock()
	if p.err == nil || c.last < p.errIdx {
		p.errIdx, p.err = c.last, err
	}
	p.mu.Unlock()
}

// collector is one Run: its pool, whose worker it is, and the completed
// prefix its caller delivers.
type collector[T any] struct {
	pool
	task    func(int) (T, error)
	deliver func(int, T)
	out     []T
	ready   []bool   // ready[i]: out[i] is in; nil without helpers
	done    chan int // indices helpers finished; nil without helpers
	next    int      // the completed prefix is out[:next]
}

func (r *collector[T]) work(w int, c *Claims) error {
	for i, ok := c.Next(); ok; i, ok = c.Next() {
		v, err := r.task(i)
		if err != nil {
			return err
		}
		r.out[i] = v
		if w > 0 {
			r.done <- i
			continue
		}
		r.complete(i)
		for len(r.done) > 0 {
			r.complete(<-r.done)
		}
	}
	return nil
}

// complete marks out[i] in and delivers the prefix that completes. Only a
// helper finishes an index past the prefix, so without helpers indices
// complete in order and ready stays nil.
func (r *collector[T]) complete(i int) {
	if i > r.next {
		r.ready[i] = true
		return
	}
	for ok := true; ok; ok = r.next < len(r.ready) && r.ready[r.next] {
		if r.deliver != nil {
			r.deliver(r.next, r.out[r.next])
		}
		r.next++
	}
}
