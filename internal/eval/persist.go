package eval

import (
	"repro/internal/memo"
	"repro/internal/store"
)

// Persistent-cache integration: the disk store sits *under* the
// in-process singleflight memo tables. A memo miss first consults the
// store; only a double miss computes, and the computed value is written
// back. The layering preserves every memo guarantee (exactly-once per
// key per process, panic containment, cancellation semantics) and adds
// cross-process, cross-run reuse: a warm apex-eval run deserializes
// analyses, variants, and results instead of mining, merging, and
// placing-and-routing them — byte-identical tables, an order of
// magnitude faster.
//
// The store is bypassed entirely when a fault-injection plan is
// installed: injected failures and sabotaged cells must never poison
// (or be served from) the durable cache.

// SetStore attaches a persistent result store to the harness. Call it
// before the first evaluation; nil (the default) keeps the harness fully
// in-memory.
func (h *Harness) SetStore(s *store.Store) { h.store = s }

// Store returns the attached persistent store (nil when none).
func (h *Harness) Store() *store.Store { return h.store }

// backing returns the store layer for this run's memo builds: nil (no
// disk) without a store or while a fault-injection plan is installed.
func (h *Harness) backing() *memo.Backing {
	if h.store == nil || h.Faults != nil {
		return nil
	}
	b := &memo.Backing{Store: h.store, Logger: h.logger()}
	if h.obs != nil {
		b.Metrics = h.obs.Metrics
	}
	return b
}
