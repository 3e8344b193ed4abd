package memo

import (
	"context"
	"log/slog"

	"repro/internal/obs"
	"repro/internal/store"
)

// Backing is the persistent store under a memo table, plus where its
// cache.<kind>.<event> counters and corrupt-entry warnings go. A nil
// Backing builds every value and touches no disk.
//
// The counters are worker-count-invariant: whether an entry hits
// depends only on the store contents and the set of keys looked up,
// never on scheduling.
type Backing struct {
	Store   *store.Store
	Metrics *obs.Registry // nil records nothing
	Logger  *slog.Logger  // nil logs nothing
}

// ReadThrough returns the value stored under key, or builds it and
// writes it back. A stored payload that passes the store's envelope
// checks but does not decode (schema drift within one SchemaVersion) is
// counted as cache.<kind>.corrupt, logged, and rebuilt over. Build
// errors are returned as-is and never stored.
func ReadThrough[V any](b *Backing, c store.Codec[V], key store.Key, build func() (V, error)) (V, error) {
	if b == nil {
		return build()
	}
	if payload, ok := b.Store.Get(c.Kind, key); !ok {
		b.count(c.Kind, "miss")
	} else if v, err := c.Decode(payload); err != nil {
		b.count(c.Kind, "corrupt")
		b.logger().Warn("cached "+string(c.Kind)+" undecodable, recomputing",
			"key", string(key), "err", err.Error())
	} else {
		b.count(c.Kind, "hit")
		return v, nil
	}
	v, err := build()
	if err == nil {
		Write(b, c, key, v)
	}
	return v, err
}

// Write stores v under key (nil Backing: no-op) and counts
// cache.<kind>.put. Storage failures are the store's to count; the
// cache is an accelerator, never a correctness dependency.
func Write[V any](b *Backing, c store.Codec[V], key store.Key, v V) {
	if b == nil {
		return
	}
	b.Store.Put(c.Kind, key, c.Encode(v))
	b.count(c.Kind, "put")
}

func (b *Backing) count(kind store.Kind, event string) {
	if b.Metrics != nil {
		b.Metrics.Counter("cache." + string(kind) + "." + event).Add(1)
	}
}

func (b *Backing) logger() *slog.Logger {
	if b.Logger != nil {
		return b.Logger
	}
	return obs.Logger(context.Background())
}
