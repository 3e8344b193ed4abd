package memo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestTableExactlyOnce races 32 goroutines over overlapping keys and
// proves every build function ran exactly once and every caller of a key
// observed the same value.
func TestTableExactlyOnce(t *testing.T) {
	const (
		goroutines = 32
		keys       = 5
		callsEach  = 50
	)
	table := New[int]("test")
	builds := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	got := make([][]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < callsEach; c++ {
				k := (g + c) % keys
				v, err := table.Do(context.Background(), fmt.Sprintf("key%d", k), func() (int, error) {
					builds[k].Add(1)
					return 1000 + k, nil
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got[g] = append(got[g], v-1000-k) // 0 iff the expected value
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key%d built %d times, want exactly 1", k, n)
		}
	}
	for g, vals := range got {
		for _, v := range vals {
			if v != 0 {
				t.Fatalf("goroutine %d observed a wrong value", g)
			}
		}
	}
	if s := table.Stats(); s.Misses != keys || s.Lookups() != goroutines*callsEach {
		t.Errorf("stats %+v: want %d misses of %d lookups", s, keys, goroutines*callsEach)
	}
}

// TestTableCachesErrors verifies a failing build is also exactly-once:
// later callers get the same error without re-running it, until the key
// is forgotten.
func TestTableCachesErrors(t *testing.T) {
	table := New[int]("test")
	sentinel := errors.New("boom")
	var builds atomic.Int64
	build := func() (int, error) {
		builds.Add(1)
		return 0, sentinel
	}
	if _, err := table.Do(context.Background(), "k", build); !errors.Is(err, sentinel) {
		t.Fatalf("first call err = %v", err)
	}
	if _, err := table.Do(context.Background(), "k", build); !errors.Is(err, sentinel) {
		t.Fatalf("second call err = %v", err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("failing build ran %d times, want 1", n)
	}
	table.Forget("k")
	table.Do(context.Background(), "k", build)
	table.Reset()
	table.Do(context.Background(), "k", build)
	if n := builds.Load(); n != 3 {
		t.Fatalf("after Forget and Reset the build ran %d times, want 3", n)
	}
}

// TestTablePanicIsTypedError: a panicking build becomes an
// ErrInvariant error naming the scope and key, is cached like any other
// failure, and is counted in Stats.Panics.
func TestTablePanicIsTypedError(t *testing.T) {
	table := New[int]("eval")
	for i := 0; i < 2; i++ {
		_, err := table.Do(context.Background(), "cam|pe1", func() (int, error) { panic("boom") })
		if !errors.Is(err, fault.ErrInvariant) || !strings.Contains(err.Error(), "eval: build cam|pe1") ||
			!strings.Contains(err.Error(), "boom") {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if s := table.Stats(); s.Panics != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v: want one panicking miss and one hit", s)
	}
}

// TestTableWaiterCanceled: a caller waiting on another goroutine's
// in-flight build gives up when its ctx is canceled; the build keeps
// its result for later callers.
func TestTableWaiterCanceled(t *testing.T) {
	table := New[int]("test")
	release := make(chan struct{})
	started := make(chan struct{})
	go table.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 7, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := table.Do(ctx, "k", func() (int, error) { return 0, nil }); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("waiter err = %v, want canceled", err)
	}
	close(release)
	if v, err := table.Do(context.Background(), "k", nil); v != 7 || err != nil {
		t.Fatalf("later caller got (%d, %v), want (7, nil)", v, err)
	}
}

var testCodec = store.Codec[string]{
	Kind:   "test",
	Encode: func(s string) []byte { return []byte(s) },
	Decode: func(p []byte) (string, error) {
		if strings.HasPrefix(string(p), "!") {
			return "", errors.New("bad payload")
		}
		return string(p), nil
	},
}

// TestReadThrough walks miss → put → hit, and an envelope-valid but
// undecodable entry → corrupt → rebuild → put, checking the cache.*
// counters at each step.
func TestReadThrough(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	b := &Backing{Store: st, Metrics: reg}
	builds := 0
	build := func() (string, error) { builds++; return "value", nil }
	key := store.NewHasher("test").Str("k").Key()

	for i := 0; i < 2; i++ {
		if v, err := ReadThrough(b, testCodec, key, build); v != "value" || err != nil {
			t.Fatalf("pass %d: (%q, %v)", i, v, err)
		}
	}
	st.Put("test", key, []byte("!corrupt"))
	if v, _ := ReadThrough(b, testCodec, key, build); v != "value" {
		t.Fatalf("corrupt entry not rebuilt: %q", v)
	}
	if builds != 2 {
		t.Fatalf("built %d times, want 2 (cold + corrupt)", builds)
	}
	want := map[string]int64{"cache.test.miss": 1, "cache.test.hit": 1, "cache.test.corrupt": 1, "cache.test.put": 2}
	for name, n := range want {
		if got := reg.Counter(name).Value(); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}

	failing := func() (string, error) { return "", errors.New("no") }
	other := store.NewHasher("test").Str("other").Key()
	if _, err := ReadThrough(b, testCodec, other, failing); err == nil {
		t.Fatal("build error swallowed")
	}
	if _, ok := st.Get("test", other); ok {
		t.Fatal("failed build was stored")
	}
	if v, _ := ReadThrough(nil, testCodec, key, build); v != "value" || builds != 3 {
		t.Fatal("nil Backing must just build")
	}
}
