// Package memo is the one artifact cache of the pipeline: a
// singleflight memo table with a panic boundary (Table), and a
// persistent-store read-through (ReadThrough) to put under it. The
// evaluation harness (internal/eval) and the sweep engine
// (internal/sweep) build, cache, and reload every analysis, PE variant,
// and evaluation result through these two pieces.
package memo

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Table is a concurrency-safe, singleflight-style memo cache. The first
// caller of a key installs an in-flight entry and runs the build
// function *outside* the table lock; concurrent callers of the same key
// block on the entry's done channel and observe the exact same value,
// so every build function executes at most once per key no matter how
// many goroutines race on it. Callers of other keys are never blocked
// by an in-flight build.
//
// Errors are cached alongside values: the whole flow is deterministic
// (seeded placement, pure analyses), so retrying a failed build cannot
// succeed and would only make results depend on call order.
//
// Do is also a recover boundary: a build runs under fault.Guard, so a
// panic becomes a typed error (named "<scope>: build <key>") cached
// like any other failure, and the done channel closes no matter how the
// build exits — one poisoned build can neither take down the worker
// pool nor deadlock the other goroutines waiting on its key.
//
// Every lookup is counted (Stats); an instrumented table additionally
// records the worker-count-invariant counters memo.<name>.lookups and
// memo.<name>.miss in a metrics registry. The hit/coalesced split is
// deliberately kept out of the registry: whether a duplicate caller
// finds the entry finished (hit) or still in flight (coalesced) depends
// on scheduling, and the registry dump must stay byte-identical across
// worker counts.
type Table[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]

	scope string
	name  string
	reg   *obs.Registry

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	panics    atomic.Int64
}

type entry[V any] struct {
	done chan struct{} // closed once val/err are final
	val  V
	err  error
}

// New returns an empty table whose panic boundary names builds
// "<scope>: build <key>".
func New[V any](scope string) *Table[V] {
	return &Table[V]{scope: scope, entries: map[string]*entry[V]{}}
}

// Instrument names the table and attaches the metrics registry its
// invariant counters go to (nil detaches).
func (t *Table[V]) Instrument(name string, reg *obs.Registry) {
	t.name, t.reg = name, reg
}

// Stats is a point-in-time snapshot of one memo table's cache
// effectiveness: Hits found a finished entry, Coalesced joined an
// in-flight build (singleflight sharing), Misses ran the build, and
// Panics counts builds that hit the recover boundary.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Panics    int64 `json:"panics"`
}

// Lookups is the total number of Do calls the stats cover.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses + s.Coalesced }

// Stats snapshots the table's counters.
func (t *Table[V]) Stats() Stats {
	return Stats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Coalesced: t.coalesced.Load(),
		Panics:    t.panics.Load(),
	}
}

// Forget drops one key from the table. A build currently in flight for
// the key is unaffected — its waiters still observe its outcome through
// the entry they already hold — but the next Do of the key runs a fresh
// build. This is the retry hook for callers (the apexd executor) whose
// policy says a failure IS worth retrying, which the cache-the-error
// default deliberately does not.
func (t *Table[V]) Forget(key string) {
	t.mu.Lock()
	delete(t.entries, key)
	t.mu.Unlock()
}

// Reset drops every entry (counters are kept — they describe the
// process lifetime, not the current generation). In-flight builds
// complete against their detached entries exactly as in Forget.
func (t *Table[V]) Reset() {
	t.mu.Lock()
	t.entries = map[string]*entry[V]{}
	t.mu.Unlock()
}

// Do returns the memoized value for key, running build at most once per
// key across all goroutines. A caller waiting on another goroutine's
// in-flight build stops waiting when ctx is canceled (the build itself
// keeps running and its result stays cached for later callers); the
// builder's own ctx handling is the build function's business.
func (t *Table[V]) Do(ctx context.Context, key string, build func() (V, error)) (V, error) {
	if t.reg != nil {
		t.reg.Counter("memo." + t.name + ".lookups").Add(1)
	}
	t.mu.Lock()
	if e, ok := t.entries[key]; ok {
		t.mu.Unlock()
		select {
		case <-e.done:
			t.hits.Add(1)
		default:
			t.coalesced.Add(1)
		}
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			var zero V
			return zero, fault.Canceled(ctx)
		}
	}
	e := &entry[V]{done: make(chan struct{})}
	t.entries[key] = e
	t.mu.Unlock()
	t.misses.Add(1)
	if t.reg != nil {
		t.reg.Counter("memo." + t.name + ".miss").Add(1)
	}

	defer close(e.done)
	returned := false
	e.err = fault.Guard(t.scope+": build "+key, func() (err error) {
		e.val, err = build()
		returned = true
		return err
	})
	if !returned {
		t.panics.Add(1)
	}
	return e.val, e.err
}
