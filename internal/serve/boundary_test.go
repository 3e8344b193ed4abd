package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestJobPanicFailsJobAndDaemonKeepsServing: a job attempt that panics
// ends failed with kind fatal (no retry — a panic is an invariant
// violation), the single worker survives it, /healthz still answers,
// and a follow-up evaluate job completes.
func TestJobPanicFailsJobAndDaemonKeepsServing(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, RetryBudget: 3, RetryBackoff: time.Millisecond})
	srv.testExecHook = func(j *Job) {
		if j.Kind == KindAnalyze {
			panic("injected job panic")
		}
	}
	srv.Start()

	bad := decodeJob(t, submitJob(t, ts, "c", KindAnalyze, Params{App: "gaussian"}))
	done := waitTerminal(t, srv, bad.ID, 30*time.Second)
	if done.State != StateFailed || done.ErrorKind != "fatal" || done.Attempts != 1 {
		t.Fatalf("panicking job = %s/%s after %d attempts, want failed/fatal after 1",
			done.State, done.ErrorKind, done.Attempts)
	}
	if !strings.Contains(done.Error, "serve: job "+bad.ID) || !strings.Contains(done.Error, "injected job panic") {
		t.Fatalf("error %q does not name the boundary and the panic", done.Error)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a job panic = %d, want 200", resp.StatusCode)
	}
	next := decodeJob(t, submitJob(t, ts, "c", KindEvaluate, Params{App: "gaussian"}))
	if done := waitTerminal(t, srv, next.ID, 60*time.Second); done.State != StateDone {
		t.Fatalf("follow-up evaluate = %s (%s), want done", done.State, done.Error)
	}
}

// TestSweepJobHonorsCacheBudget: a sweep job writes through its own
// store handle, which must carry the daemon's -cache-max-bytes budget —
// over a tiny budget the sweep prunes, and the directory ends under it.
func TestSweepJobHonorsCacheBudget(t *testing.T) {
	const budget = 16 << 10
	srv, ts := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir(), CacheMaxBytes: budget})
	srv.Start()

	grid := &sweep.Grid{Apps: []string{"gaussian", "harris"}, Ks: []int{0, 1, 2}}
	j := decodeJob(t, submitJob(t, ts, "c", KindSweep, Params{Grid: grid}))
	done := waitTerminal(t, srv, j.ID, 60*time.Second)
	if done.State != StateDone {
		t.Fatalf("sweep job = %s (%s), want done", done.State, done.Error)
	}
	var rep sweep.Report
	if err := json.Unmarshal(done.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Store == nil || rep.Store.Pruned == 0 {
		t.Fatalf("sweep store stats %+v: want entries pruned under a %d-byte budget", rep.Store, budget)
	}
	if bytes, entries := srv.Store().DiskBytes(); bytes > budget {
		t.Fatalf("cache holds %d bytes in %d entries after the sweep, want <= %d", bytes, entries, budget)
	}
}

// TestEventStreamOutlivesReadTimeout: apexd's http.Server sets a
// ReadTimeout (cmd/apexd), and an SSE subscriber must keep receiving
// events long after it has passed. (net/http lifts the read deadline
// once a body-less request reaches its handler; this pins that the
// stream relies on nothing more.)
func TestEventStreamOutlivesReadTimeout(t *testing.T) {
	srv, err := New(Config{Workers: 1, FastMode: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ReadTimeout = 100 * time.Millisecond
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := openSSE(t, ts.URL+"/api/v1/events")
	defer c.close()
	srv.Start()

	time.Sleep(4 * ts.Config.ReadTimeout)
	j := decodeJob(t, submitJob(t, ts, "c", KindAnalyze, Params{App: "gaussian"}))
	c.waitEvents(t, 30*time.Second, func(evs []Event) bool {
		states := jobStates(evs, j.ID)
		return len(states) > 0 && states[len(states)-1] == StateDone
	})
}
