package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// jobParams is one evaluate job of the apexd_jobs draw.
type jobParams struct {
	App string `json:"app"`
	K   int    `json:"k"`
	PnR bool   `json:"pnr"`
}

// jobSpace is every job the draw picks from: the six analyzed apps,
// k 0-3, place-and-route on and off, always pipelined.
func jobSpace() []jobParams {
	var out []jobParams
	for _, a := range append(apps.AnalyzedIP(), apps.AnalyzedML()...) {
		for k := 0; k <= 3; k++ {
			for _, pnr := range []bool{false, true} {
				out = append(out, jobParams{a.Name, k, pnr})
			}
		}
	}
	return out
}

// expected is the checked part of an evaluate job's result.
type expected struct {
	Area    float64 `json:"total_area_um2"`
	Energy  float64 `json:"total_energy_pj"`
	PEs     int     `json:"num_pes"`
	Latency int     `json:"latency_cyc"`
}

// directEvaluate runs a job's evaluation on a harness directly, naming
// the variant the way the daemon does.
func directEvaluate(ctx context.Context, h *eval.Harness, p jobParams) (*core.Result, error) {
	app, err := apps.ByName(p.App)
	if err != nil {
		return nil, err
	}
	v, err := h.Baseline()
	if p.K > 0 {
		name := fmt.Sprintf("%s_k%d", p.App, p.K)
		v, err = h.Variant(name, func(ctx context.Context) (*core.PEVariant, error) {
			return h.FW.GeneratePE(ctx, name, app.UsedOps(), core.SelectPatterns(h.Analysis(app), p.K))
		})
	}
	if err != nil {
		return nil, err
	}
	return h.Evaluate(ctx, app, v, p.PnR, true)
}

// fillJobStore evaluates every job of the space into the store at dir,
// on GOMAXPROCS goroutines, and returns each job's expected result.
func fillJobStore(ctx context.Context, dir string) (map[jobParams]expected, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	h := eval.NewHarness()
	h.SetStore(st)
	space := jobSpace()
	want := make([]expected, len(space))
	errs := make([]error, len(space))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := directEvaluate(ctx, h, space[i])
				if err != nil {
					errs[i] = err
					continue
				}
				want[i] = expected{r.TotalArea, r.TotalEnergy, r.NumPEs, r.LatencyCyc}
			}
		}()
	}
	for i := range space {
		next <- i
	}
	close(next)
	wg.Wait()
	out := map[jobParams]expected{}
	for i, p := range space {
		if errs[i] != nil {
			return nil, fmt.Errorf("evaluate %+v: %w", p, errs[i])
		}
		out[p] = want[i]
	}
	return out, nil
}

// daemon is an in-process apexd: the serve.Server configured the way the
// README deploys it (journal and cache directory set), behind a real
// HTTP listener on localhost.
type daemon struct {
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	url      string
	journal  string
	stopOnce sync.Once
}

func startDaemon(cacheDir, journal string) (*daemon, error) {
	o := &obs.Obs{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(), Logger: obs.NewLogger(io.Discard, 0, "text")}
	o.Tracer.LinkMetrics(o.Metrics)
	srv, err := serve.New(serve.Config{
		JournalPath:   journal,
		CacheDir:      cacheDir,
		CacheMaxBytes: 256000000,
		Obs:           o,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start()
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(), journal: journal}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for its server goroutines to exit.
// It is safe to call more than once.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.srv.Drain(ctx)
		d.hs.Close()
		<-d.served
	})
}

// jobSample is one job's round trip as the client saw it.
type jobSample struct {
	params                     jobParams
	submitted, accepted, seen  time.Time
	created, started, finished time.Time
	attempts                   int
	result                     json.RawMessage
	ok                         bool
}

// loadResult is the job load of one or more rounds.
type loadResult struct {
	samples      []jobSample
	rejected     int
	wall         time.Duration // summed over rounds
	rounds       int
	journalBytes int64 // the last round's journal at drain
	memo         map[string]eval.MemoStats
	failed       bool // a job failed its check; no further round runs
}

// roundJobs is how many jobs each client submits in one round. Every
// round runs on a fresh daemon whose journal starts empty, so each
// round's journal grows through the same sizes, and a run's latencies do
// not depend on how many jobs the machine fit into it.
const roundJobs = 256

// load is one run's closed-loop clients: each submits a job from its
// seeded draw, polls until the job is terminal, checks the result, and
// only then submits the next. The draws continue across rounds.
type load struct {
	cfg      *config
	cacheDir string
	want     map[jobParams]expected
	rngs     []*rand.Rand
	client   *http.Client
}

func newLoad(cfg *config, cacheDir string, want map[jobParams]expected) *load {
	ld := &load{cfg: cfg, cacheDir: cacheDir, want: want, client: &http.Client{Timeout: 60 * time.Second}}
	for c := 0; c < min(2, runtime.NumCPU()); c++ {
		ld.rngs = append(ld.rngs, rand.New(rand.NewSource(cfg.seed*1000003+int64(c))))
	}
	return ld
}

// run runs rounds until the budget is spent or a job fails its check,
// the first on d (when not nil) and each later one on a fresh daemon; it
// stops every daemon.
func (ld *load) run(d *daemon, budget time.Duration, t *tracer) (*loadResult, error) {
	res := &loadResult{}
	deadline := time.Now().Add(budget)
	for res.rounds == 0 || (!res.failed && time.Now().Before(deadline)) {
		if d == nil {
			dir, err := freshDir(ld.cfg, "journal")
			if err != nil {
				return nil, err
			}
			if d, err = startDaemon(ld.cacheDir, filepath.Join(dir, "journal.json")); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		ld.round(d, t, res)
		res.memo = d.srv.Harness().MemoStats()
		d.stop()
		if info, err := os.Stat(d.journal); err == nil {
			res.journalBytes = info.Size()
		}
		d = nil
	}
	return res, nil
}

func (ld *load) round(d *daemon, t *tracer, res *loadResult) {
	space := jobSpace()
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for c, rng := range ld.rngs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("c%d", c)
			events, unwatch, err := watch(d.url, name)
			if err != nil {
				mu.Lock()
				res.samples = append(res.samples, jobSample{})
				res.failed = true
				mu.Unlock()
				return
			}
			defer unwatch()
			l := t.lane(c)
			for i := 0; i < roundJobs; i++ {
				p := space[rng.Intn(len(space))]
				s, rejected := roundTrip(ld.client, d.url, name, p, events, l)
				if s.ok {
					s.ok = checkJob(s, ld.want)
				}
				mu.Lock()
				res.rejected += rejected
				res.samples = append(res.samples, s)
				res.failed = res.failed || !s.ok
				mu.Unlock()
				if !s.ok {
					return // a failed check ends the client's round
				}
			}
		}()
	}
	wg.Wait()
	res.wall += time.Since(start)
	res.rounds++
}

// terminalEvent is one of a client's jobs reaching a terminal state, as
// the daemon's event stream announced it.
type terminalEvent struct {
	id string
	at time.Time
}

// watch subscribes to the daemon's job event stream and forwards the
// terminal events of one client's jobs, so the client learns that its
// job finished without polling. unwatch closes the stream and waits for
// the reader to exit.
func watch(url, client string) (events <-chan terminalEvent, unwatch func(), err error) {
	resp, err := http.Get(url + "/api/v1/events?types=job")
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, nil, fmt.Errorf("event stream: %s", resp.Status)
	}
	ch := make(chan terminalEvent)
	stop := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev serve.Event
			if json.Unmarshal([]byte(data), &ev) != nil || ev.Job == nil || ev.Job.Client != client {
				continue
			}
			switch ev.Job.State {
			case serve.StateDone, serve.StateFailed, serve.StateCanceled:
				select {
				case ch <- terminalEvent{ev.Job.ID, time.Now()}:
				case <-stop:
					return
				}
			}
		}
	}()
	return ch, func() {
		close(stop)
		resp.Body.Close()
		<-exited
	}, nil
}

// jobDoc is the part of GET /api/v1/jobs/{id} the client reads.
type jobDoc struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Attempts int             `json:"attempts"`
	Result   json.RawMessage `json:"result"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
}

// jobDeadline bounds one job's round trip; a job past it fails. Every
// job's artifacts are in the store, so a healthy job takes milliseconds.
const jobDeadline = 20 * time.Second

// roundTrip submits one job, waits for the event stream to announce it
// terminal, and fetches it. It returns the sample and how many times the
// submission was refused with 429/503 first.
func roundTrip(client *http.Client, url, name string, p jobParams, events <-chan terminalEvent, l *lane) (jobSample, int) {
	s := jobSample{params: p}
	deadline := time.NewTimer(jobDeadline)
	defer deadline.Stop()
	body, _ := json.Marshal(map[string]any{
		"kind":   "evaluate",
		"client": name,
		"params": map[string]any{"app": p.App, "k": p.K, "pnr": p.PnR, "pipelined": true},
	})
	rejected := 0
	var doc jobDoc
	l.begin("serve.submit")
	for {
		s.submitted = time.Now()
		resp, err := client.Post(url+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			l.end()
			return s, rejected
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			rejected++
			select {
			case <-time.After(100 * time.Millisecond):
				continue
			case <-deadline.C:
			}
		}
		if err != nil || resp.StatusCode != http.StatusAccepted {
			l.end()
			return s, rejected
		}
		break
	}
	s.accepted = time.Now()
	l.end()
	l.begin("serve.wait")
	defer l.end()
	for s.seen.IsZero() {
		select {
		case ev := <-events:
			if ev.id == doc.ID {
				s.seen = ev.at
			}
		case <-deadline.C:
			return s, rejected
		}
	}
	resp, err := client.Get(url + "/api/v1/jobs/" + doc.ID)
	if err != nil {
		return s, rejected
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.State != "done" {
		return s, rejected
	}
	s.created, s.started, s.finished = doc.Created, doc.Started, doc.Finished
	s.attempts = doc.Attempts
	s.result = doc.Result
	s.ok = true
	return s, rejected
}

// checkJob compares a done job's result with the direct evaluation.
func checkJob(s jobSample, want map[jobParams]expected) bool {
	var got expected
	if err := json.Unmarshal(s.result, &got); err != nil {
		return false
	}
	return got == want[s.params]
}

// jobSetup fills a fresh store with every job's artifacts and starts a
// daemon on it with an empty journal.
func jobSetup(ctx context.Context, cfg *config) (*daemon, *load, error) {
	dir, err := freshDir(cfg, "jobs")
	if err != nil {
		return nil, nil, err
	}
	cacheDir := filepath.Join(dir, "cache")
	want, err := fillJobStore(ctx, cacheDir)
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(cacheDir, filepath.Join(dir, "journal.json"))
	return d, newLoad(cfg, cacheDir, want), err
}

func runApexdJobs(ctx context.Context, cfg *config) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var d *daemon
	var ld *load
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, ld, err = jobSetup(ctx, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.stop()
	if cfg.trace {
		return traceJobs(ctx, cfg, out, d, ld)
	}
	rssReset := resetPeakRSS()
	res, err := ld.run(d, cfg.budget, nil)
	if err != nil {
		return nil, err
	}
	lat := countJobs(out, res)
	if len(lat) == 0 {
		return out, nil
	}
	pct, tailMS := tail(lat)
	out.set("setup_s", median(setups), "s")
	out.set("op_p50_ms", median(lat), "ms")
	out.set("op_alt_ms", tailMS, "ms")
	out.set("ops_per_s", float64(len(lat))/res.wall.Seconds(), "1/s")
	out.set("peak_rss_mb", peakRSSMB(), "MB")
	out.detail["job_p50_ms"] = median(lat)
	out.detail["job_tail_ms"] = tailMS
	out.detail["job_tail_percentile"] = pct
	out.detail["jobs_per_s"] = float64(len(lat)) / res.wall.Seconds()
	out.detail["rounds"] = res.rounds
	out.detail["rss_timed_only"] = rssReset
	out.detail["samples"] = map[string]int{"jobs": len(lat), "setup_s": len(setups)}
	out.detail["setup_s_all"] = setups
	out.detail["job_ms_all"] = lat
	out.detail["fail_pct"] = failPct(out)
	return out, nil
}

// countJobs checks every job of a load run (a refused submission counts
// as a failure too) and returns the submit-to-done latencies of the
// jobs that passed.
func countJobs(out *outcome, res *loadResult) []float64 {
	var lat []float64
	for _, s := range res.samples {
		if out.check(s.ok, "job %+v did not finish done with the direct result", s.params) {
			lat = append(lat, ms(s.seen.Sub(s.submitted)))
		}
	}
	for i := 0; i < res.rejected; i++ {
		out.check(false, "submission refused with 429/503")
	}
	return lat
}

// traceJobs is the traced run of apexd_jobs: rounds of the load untraced
// for half the budget, then with client spans for the other half, then
// the same job sequence through a direct Harness.Evaluate on the same
// warm store.
func traceJobs(ctx context.Context, cfg *config, out *outcome, d *daemon, ld *load) (*outcome, error) {
	untraced, err := ld.run(d, cfg.budget/2, nil)
	if err != nil {
		return nil, err
	}
	base := countJobs(out, untraced)
	if untraced.failed {
		return out, nil
	}
	tr := startTraced(cfg.budget / 2)
	tr.more()
	res, err := ld.run(nil, cfg.budget/2, tr.t)
	if err != nil {
		return nil, err
	}
	lat := countJobs(out, res)
	if len(lat) == 0 || len(base) == 0 {
		return out, nil
	}
	var submit, queue, exec, notify []float64
	retries := 0
	for _, s := range res.samples {
		if !s.ok {
			continue
		}
		submit = append(submit, ms(s.accepted.Sub(s.submitted)))
		queue = append(queue, ms(s.started.Sub(s.created)))
		exec = append(exec, ms(s.finished.Sub(s.started)))
		notify = append(notify, ms(s.seen.Sub(s.finished)))
		retries += s.attempts - 1
	}
	tr.report(out)
	// The direct path: the same jobs, in draw order, on a new harness
	// over the same warm store.
	h := eval.NewHarness()
	st, err := store.Open(ld.cacheDir)
	if err != nil {
		return nil, err
	}
	h.SetStore(st)
	var direct []float64
	for _, s := range res.samples {
		start := time.Now()
		r, err := directEvaluate(ctx, h, s.params)
		direct = append(direct, ms(time.Since(start)))
		out.check(err == nil && expected{r.TotalArea, r.TotalEnergy, r.NumPEs, r.LatencyCyc} == ld.want[s.params],
			"direct evaluate %+v (err=%v) differs from set-up", s.params, err)
	}
	out.set("serve.submit_ms", median(submit), "ms")
	out.set("serve.queue_wait_ms", median(queue), "ms")
	out.set("serve.exec_ms", median(exec), "ms")
	out.set("serve.notify_ms", median(notify), "ms")
	out.set("serve.journal_bytes", float64(res.journalBytes), "B")
	out.set("serve.rejected", float64(untraced.rejected+res.rejected), "count")
	out.set("serve.retries", float64(retries), "count")
	out.set("serve.direct_ms", median(direct), "ms")
	out.set("serve.overhead_ms", median(lat)-median(direct), "ms")
	setMemo(out, res.memo)
	out.set("ratio.trace_overhead_pct", 100*(median(lat)-median(base))/median(base), "%")
	out.detail["untraced_job_p50_ms"] = median(base)
	out.detail["jobs"] = len(lat)
	return out, nil
}
