// Package fault is the repository's failpoint registry: named injection
// sites compiled into production code paths (sweep-store I/O, job
// execution, query evaluation, HTTP handlers) that normally do nothing and
// cost one atomic load, but can be armed — via the YIELD_FAILPOINTS
// environment variable, a server flag, or the Enable API — to return
// errors, inject latency, or panic on deterministic schedules.
//
// The point is the fault-tolerance literature's oldest lesson: redundancy
// and recovery code are worthless until the failure paths can be exercised
// on demand. A failpoint spec reads
//
//	<site>=<action>[@<trigger>{,<trigger>}]
//
// with actions
//
//	error            return ErrInjected
//	error(msg)       return an ErrInjected-wrapped error carrying msg
//	delay(duration)  sleep for duration (context-aware via InjectContext)
//	panic            panic with a fault.PanicValue
//
// and triggers (default: fire on every call)
//
//	nth=N     fire exactly on the Nth call to the site (1-based)
//	from=N    fire on the Nth call and every call after it
//	p=F       fire with probability F per call, from a seeded deterministic
//	          stream (seed=S sets the stream seed; default 1)
//	times=N   fire at most N times, then disarm
//
// Multiple sites are separated by ';'. Example:
//
//	YIELD_FAILPOINTS='store.save=error(disk full)@p=0.5,seed=7;job.run=delay(200ms)@nth=2'
//
// Disabled cost: when no failpoint has ever been armed, Inject is a single
// atomic bool load and a branch — no map lookup, no lock, no allocation —
// so hot paths and the obs ≤1.05× overhead gate are untouched. Arming any
// site flips the global flag; per-site resolution then takes a read lock.
package fault

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cnfet/yieldlab/internal/rng"
)

// EnvVar is the environment variable EnableFromEnv reads failpoint specs
// from.
const EnvVar = "YIELD_FAILPOINTS"

// ErrInjected is the sentinel every injected error wraps; callers and
// tests classify injected failures with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("injected fault")

// PanicValue is the value a panic-action failpoint panics with, so
// recovery code (and tests) can tell an injected crash from a genuine bug.
type PanicValue struct {
	// Site names the failpoint that fired.
	Site string
}

func (p PanicValue) String() string { return "injected panic at failpoint " + p.Site }

// armed is the global fast-path flag: false until the first Enable, and
// false again after Reset. Inject returns immediately while it is false.
var armed atomic.Bool

var (
	mu    sync.RWMutex
	sites map[string]*failpoint
)

// failpoint is one armed site.
type failpoint struct {
	site   string
	action action
	msg    string
	delay  time.Duration

	trigger trigger

	calls atomic.Uint64 // calls observed while armed
	fired atomic.Uint64 // calls that fired

	// probability stream state (seeded SplitMix64 walk, one step per call).
	probMu    sync.Mutex
	probState uint64
}

type action int

const (
	actError action = iota
	actDelay
	actPanic
)

// trigger decides which observed calls fire.
type trigger struct {
	nth   uint64  // fire exactly on this call (0 = unset)
	from  uint64  // fire on this call and after (0 = unset)
	prob  float64 // fire with this probability (0 = unset)
	seed  uint64
	times uint64 // at most this many firings (0 = unlimited)
}

// Enable arms one failpoint from its spec string (see the package comment
// for the grammar), replacing any previous arming of the same site.
func Enable(site, spec string) error {
	if site == "" {
		return errors.New("fault: empty site name")
	}
	fp, err := parseSpec(site, spec)
	if err != nil {
		return err
	}
	mu.Lock()
	if sites == nil {
		sites = make(map[string]*failpoint)
	}
	sites[site] = fp
	mu.Unlock()
	armed.Store(true)
	return nil
}

// Reset disarms every site and restores the zero-cost disabled state.
//
//yield:allow(deadexport) test hook: tests disarm the failpoints they armed through it
func Reset() {
	mu.Lock()
	sites = nil
	mu.Unlock()
	armed.Store(false)
}

// EnableSpecs arms failpoints from a ';'-separated "site=spec" list, the
// format of the YIELD_FAILPOINTS environment variable and the yieldserver
// -failpoints flag.
func EnableSpecs(specs string) error {
	for _, part := range strings.Split(specs, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, spec, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("fault: %q is not site=spec", part)
		}
		if err := Enable(strings.TrimSpace(site), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// EnableFromEnv arms failpoints from the YIELD_FAILPOINTS environment
// variable; an unset or empty variable is a no-op. Call it once at process
// start (cmd/yieldserver does) — never from compute paths, which must not
// read the environment.
func EnableFromEnv() error {
	specs := os.Getenv(EnvVar)
	if specs == "" {
		return nil
	}
	return EnableSpecs(specs)
}

// Inject evaluates the named site: nil when the site is disarmed or its
// trigger does not fire; an ErrInjected-wrapped error for error actions; a
// completed sleep and nil for delay actions. Panic actions panic with a
// PanicValue. The disarmed fast path is one atomic load.
func Inject(site string) error {
	if !armed.Load() {
		return nil
	}
	return injectSlow(site, nil)
}

// InjectContext is Inject with a context-aware delay: an armed delay
// action sleeps until the duration elapses or ctx is done, returning an
// injected error in the latter case. Error and panic actions behave as
// Inject.
func InjectContext(ctx context.Context, site string) error {
	if !armed.Load() {
		return nil
	}
	return injectSlow(site, ctx)
}

func injectSlow(site string, ctx context.Context) error {
	mu.RLock()
	fp := sites[site]
	mu.RUnlock()
	if fp == nil {
		return nil
	}
	if !fp.shouldFire() {
		return nil
	}
	fp.fired.Add(1)
	switch fp.action {
	case actDelay:
		if ctx == nil {
			time.Sleep(fp.delay)
			return nil
		}
		t := time.NewTimer(fp.delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			// Wrap both sentinels: chaos tests classify by ErrInjected,
			// while error mapping upstream still sees the deadline or
			// cancellation cause.
			return fmt.Errorf("fault %s: delay interrupted: %w (%w)", site, ErrInjected, ctx.Err())
		}
	case actPanic:
		panic(PanicValue{Site: site})
	default:
		if fp.msg != "" {
			return fmt.Errorf("fault %s: %s: %w", site, fp.msg, ErrInjected)
		}
		return fmt.Errorf("fault %s: %w", site, ErrInjected)
	}
}

// shouldFire advances the site's call count and evaluates the trigger.
func (fp *failpoint) shouldFire() bool {
	n := fp.calls.Add(1)
	tr := fp.trigger
	if tr.times > 0 && fp.fired.Load() >= tr.times {
		return false
	}
	switch {
	case tr.nth > 0:
		return n == tr.nth
	case tr.from > 0:
		return n >= tr.from
	case tr.prob > 0:
		// One SplitMix64 step per call: the firing pattern is a pure
		// function of (seed, call index), so chaos runs replay exactly.
		fp.probMu.Lock()
		fp.probState = rng.SplitMix64(fp.probState)
		u := float64(fp.probState>>11) / float64(1<<53)
		fp.probMu.Unlock()
		return u < tr.prob
	default:
		return true
	}
}

// parseSpec parses "<action>[@trigger{,trigger}]".
func parseSpec(site, spec string) (*failpoint, error) {
	actPart, trigPart, hasTrig := strings.Cut(spec, "@")
	fp := &failpoint{site: site}

	name, arg := actPart, ""
	if i := strings.IndexByte(actPart, '('); i >= 0 {
		if !strings.HasSuffix(actPart, ")") {
			return nil, fmt.Errorf("fault: %s: unclosed action argument in %q", site, spec)
		}
		name, arg = actPart[:i], actPart[i+1:len(actPart)-1]
	}
	switch name {
	case "error":
		fp.action = actError
		fp.msg = arg
	case "delay":
		if arg == "" {
			return nil, fmt.Errorf("fault: %s: delay needs a duration", site)
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("fault: %s: bad delay %q", site, arg)
		}
		fp.action = actDelay
		fp.delay = d
	case "panic":
		fp.action = actPanic
	default:
		return nil, fmt.Errorf("fault: %s: unknown action %q (have error, delay, panic)", site, name)
	}

	fp.trigger.seed = 1
	if hasTrig {
		for _, kv := range strings.Split(trigPart, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("fault: %s: trigger %q is not key=value", site, kv)
			}
			switch k {
			case "nth", "from", "times":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil || n == 0 {
					return nil, fmt.Errorf("fault: %s: %s=%q must be a positive integer", site, k, v)
				}
				switch k {
				case "nth":
					fp.trigger.nth = n
				case "from":
					fp.trigger.from = n
				case "times":
					fp.trigger.times = n
				}
			case "p":
				p, err := strconv.ParseFloat(v, 64)
				if err != nil || !(p > 0) || p > 1 {
					return nil, fmt.Errorf("fault: %s: p=%q must be in (0, 1]", site, v)
				}
				fp.trigger.prob = p
			case "seed":
				s, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: %s: seed=%q must be an integer", site, v)
				}
				fp.trigger.seed = s
			default:
				return nil, fmt.Errorf("fault: %s: unknown trigger %q", site, k)
			}
		}
	}
	if fp.trigger.nth > 0 && fp.trigger.from > 0 {
		return nil, fmt.Errorf("fault: %s: nth and from are mutually exclusive", site)
	}
	fp.probState = rng.SplitMix64(fp.trigger.seed)
	return fp, nil
}

// SiteStats reports one armed site's traffic.
type SiteStats struct {
	// Site names the failpoint; Calls counts evaluations while armed and
	// Fired how many of them triggered the action.
	Site  string `json:"site"`
	Calls uint64 `json:"calls"`
	Fired uint64 `json:"fired"`
}

// Stats lists every armed site's counters, sorted by site name. Empty when
// nothing is armed.
func Stats() []SiteStats {
	if !armed.Load() {
		return nil
	}
	mu.RLock()
	out := make([]SiteStats, 0, len(sites))
	for name, fp := range sites {
		out = append(out, SiteStats{Site: name, Calls: fp.calls.Load(), Fired: fp.fired.Load()})
	}
	mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Enabled reports whether any failpoint is armed.
func Enabled() bool { return armed.Load() }
