package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/internal/store"
)

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 3

var dirSeq atomic.Int64

// freshDir returns a new empty directory under the run's scratch space.
func freshDir(cfg *config, tag string) (string, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", tag, dirSeq.Add(1)))
	return dir, os.MkdirAll(dir, 0o755)
}

// suitePass runs the full paper suite with place-and-route on a new
// harness writing into (or reading from) the store at dir, and returns
// the pass time (Suite only) and the rendered tables, laid out the way
// apex-eval prints them.
func suitePass(ctx context.Context, workers int, dir string, o *obs.Obs) (time.Duration, string, *eval.Harness, error) {
	st, err := store.Open(dir)
	if err != nil {
		return 0, "", nil, err
	}
	h := eval.NewHarness()
	h.Workers = workers
	h.SetStore(st)
	if o != nil {
		h.SetObs(o)
		ctx = o.Context(ctx)
	}
	// Every timed operation starts from a collected heap, so the garbage
	// one operation leaves is not charged to the next.
	runtime.GC()
	start := time.Now()
	tables, err := h.Suite(ctx, true)
	d := time.Since(start)
	if err != nil {
		return d, "", h, err
	}
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.Markdown())
		b.WriteString("\n")
	}
	if rt := h.Report.Table(); rt != nil {
		b.WriteString(rt.Markdown())
		b.WriteString("\n")
	}
	return d, b.String(), h, nil
}

// checkedPass runs one suite pass and checks its tables against the
// committed results_full.md.
func checkedPass(ctx context.Context, cfg *config, out *outcome, workers int, dir, golden string) (time.Duration, *eval.Harness, bool) {
	d, md, h, err := suitePass(ctx, workers, dir, nil)
	return d, h, out.check(err == nil && md == golden,
		"suite pass (workers=%d): err=%v, tables equal results_full.md=%v", workers, err, md == golden)
}

func readGolden(cfg *config) (string, error) {
	data, err := os.ReadFile(cfg.golden)
	return string(data), err
}

// runSuiteCold times full suite passes that each start from an empty
// harness and an empty store, alternating Workers=1 and GOMAXPROCS.
func runSuiteCold(ctx context.Context, cfg *config) (*outcome, error) {
	return runSuite(ctx, cfg, false)
}

// runSuiteWarm times the same passes reloading from a store a cold pass
// filled during set-up.
func runSuiteWarm(ctx context.Context, cfg *config) (*outcome, error) {
	return runSuite(ctx, cfg, true)
}

func runSuite(ctx context.Context, cfg *config, warm bool) (*outcome, error) {
	golden, err := readGolden(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceSuite(ctx, cfg, golden, warm)
	}
	out := newOutcome()
	par := runtime.GOMAXPROCS(0)

	// Set-up: cold runs one untimed warm-up pass so the timed passes see
	// a warmed runtime; warm fills the store the timed passes read.
	var setups []float64
	var warmDir string
	for i := 0; i < setupRepeats; i++ {
		dir, err := freshDir(cfg, "setup")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, _, ok := checkedPass(ctx, cfg, out, par, dir, golden); !ok {
			return out, nil
		}
		setups = append(setups, time.Since(start).Seconds())
		if warm && i == setupRepeats-1 {
			warmDir = dir
		} else {
			os.RemoveAll(dir)
		}
	}

	// The timed loop stops at the first failed check; the run then
	// reports correct:false. Every pass that checks out is a sample, so
	// the loop ends with at least one at each worker count.
	rssReset := resetPeakRSS()
	var serial, parallel []time.Duration
	deadline := time.Now().Add(cfg.budget)
	for i := 0; len(parallel) == 0 || time.Now().Before(deadline); i++ {
		workers := 1
		if i%2 == 1 {
			workers = par
		}
		dir := warmDir
		if !warm {
			if dir, err = freshDir(cfg, "cold"); err != nil {
				return nil, err
			}
		}
		d, _, ok := checkedPass(ctx, cfg, out, workers, dir, golden)
		if !warm {
			os.RemoveAll(dir)
		}
		if !ok {
			return out, nil
		}
		if workers == 1 {
			serial = append(serial, d)
		} else {
			parallel = append(parallel, d)
		}
	}
	out.set("setup_s", median(setups), "s")
	out.set("op_p50_ms", median(msAll(serial)), "ms")
	out.set("op_alt_ms", median(msAll(parallel)), "ms")
	out.set("ops_per_s", perSecond(serial, parallel), "1/s")
	out.set("peak_rss_mb", peakRSSMB(), "MB")
	out.detail["suite_s"] = median(msAll(serial)) / 1e3
	out.detail["suite_par_s"] = median(msAll(parallel)) / 1e3
	out.detail["samples"] = map[string]int{"suite_s": len(serial), "suite_par_s": len(parallel), "setup_s": len(setups)}
	out.detail["workers_par"] = par
	out.detail["rss_timed_only"] = rssReset
	out.detail["suite_ms_all"] = msAll(serial)
	out.detail["suite_par_ms_all"] = msAll(parallel)
	out.detail["setup_s_all"] = setups
	out.detail["fail_pct"] = failPct(out)
	return out, nil
}

func failPct(o *outcome) float64 {
	if o.attempted == 0 {
		return 0
	}
	return 100 * float64(o.failed) / float64(o.attempted)
}

// suiteCell is one evaluation cell of the suite, as the harness's
// "evaluate" spans name it.
type suiteCell struct {
	App, Variant   string
	PnR, Pipelined bool
}

// suiteShape is what the suite computes: the analyzed apps, the variants
// and the evaluation cells, each in first-use order.
type suiteShape struct {
	apps, variants []string
	cells          []suiteCell
}

// shapeOf reads the suite's shape from a cold pass's trace.
func shapeOf(t *obs.Tracer) (*suiteShape, error) {
	var buf bytes.Buffer
	if err := t.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	s := &suiteShape{}
	seen := map[string]bool{}
	once := func(key string) bool {
		if seen[key] {
			return false
		}
		seen[key] = true
		return true
	}
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "analyze":
			if once("a|" + e.Args["app"]) {
				s.apps = append(s.apps, e.Args["app"])
			}
		case "generate_pe":
			if once("v|" + e.Args["variant"]) {
				s.variants = append(s.variants, e.Args["variant"])
			}
		case "evaluate":
			c := suiteCell{e.Args["app"], e.Args["variant"], e.Args["pnr"] == "true", e.Args["pipelined"] == "true"}
			if once(fmt.Sprintf("c|%v", c)) {
				s.cells = append(s.cells, c)
			}
		}
	}
	if len(s.cells) == 0 {
		return nil, errors.New("the suite trace has no evaluate spans")
	}
	return s, nil
}

var errNotBuilt = errors.New("variant not built by the reference pass")

// reference looks a cell up in a harness that already evaluated it.
func reference(ctx context.Context, h *eval.Harness, c suiteCell) (*core.Result, error) {
	app, err := apps.ByName(c.App)
	if err != nil {
		return nil, err
	}
	v, err := h.Variant(c.Variant, func(context.Context) (*core.PEVariant, error) { return nil, errNotBuilt })
	if err != nil {
		return nil, err
	}
	return h.Evaluate(ctx, app, v, c.PnR, c.Pipelined)
}

// checkCell checks one replayed cell against the program's result for
// it: PE count, latency and routed flag.
func checkCell(out *outcome, c any, got cellOut, err error, want *core.Result) {
	exp := cellOut{PEs: want.NumPEs, Latency: want.LatencyCyc, Routed: want.Routed}
	out.check(err == nil && got == exp, "replayed cell %v: %+v (err=%v), program %+v", c, got, err, exp)
}

// traceSuite is the traced run of suite_cold and suite_warm: reference
// passes of the program, then replays of every analysis, variant and
// cell through the layers, each cell checked against the reference.
func traceSuite(ctx context.Context, cfg *config, golden string, warm bool) (*outcome, error) {
	out := newOutcome()

	// Reference B, first so it also warms the process: a cold pass at
	// Workers=GOMAXPROCS with the program's own observability on, which
	// names the suite's cells and gives the memo counters and the
	// instrumentation-event count.
	o := &obs.Obs{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	o.Tracer.LinkMetrics(o.Metrics)
	bDir, err := freshDir(cfg, "shape")
	if err != nil {
		return nil, err
	}
	_, md, hb, err := suitePass(ctx, runtime.GOMAXPROCS(0), bDir, o)
	os.RemoveAll(bDir)
	if !out.check(err == nil && md == golden, "observed suite pass differs from results_full.md: %v", err) {
		return out, nil
	}
	shape, err := shapeOf(o.Tracer)
	if err != nil {
		return nil, err
	}
	setMemo(out, hb.MemoStats())

	// Reference A: an untraced cold pass at Workers=1 (and, for warm, an
	// untraced warm pass over the store it filled).
	coldDir, err := freshDir(cfg, "cold")
	if err != nil {
		return nil, err
	}
	coldTime, ref, ok := checkedPass(ctx, cfg, out, 1, coldDir, golden)
	if !ok {
		return out, nil
	}
	untraced := coldTime
	if warm {
		if untraced, ref, ok = checkedPass(ctx, cfg, out, 1, coldDir, golden); !ok {
			return out, nil
		}
		out.set("ratio.warm_speedup", coldTime.Seconds()/untraced.Seconds(), "ratio")
	} else {
		out.set("ratio.obs_overhead_pct", obsOverheadPct(o, coldTime), "%")
		out.set("ratio.mine_vs_reference", mineVsReference(ctx), "ratio")
	}
	want := make([]*core.Result, len(shape.cells))
	for i, c := range shape.cells {
		if want[i], err = reference(ctx, ref, c); err != nil {
			return nil, err
		}
	}

	// The traced replays: each cold pass on a fresh store (misses, then
	// puts), each warm pass on the store reference A filled (hits and
	// decodes only).
	tr := startTraced(cfg.budget)
	for tr.more() {
		dir := coldDir
		if !warm {
			if dir, err = freshDir(cfg, "replay"); err != nil {
				return nil, err
			}
		}
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		r := newReplayer(ctx, tr.t.lane(0), core.New(), st, tr.count)
		if err := replaySuite(out, r, shape, want); err != nil {
			return nil, err
		}
	}
	tr.overhead(out, untraced)
	tr.report(out)
	out.detail["cells"] = len(shape.cells)
	return out, nil
}

// replaySuite replays one suite pass: the analyses, the variants, then
// every cell, checked against the program's result for it.
func replaySuite(out *outcome, r *replayer, shape *suiteShape, want []*core.Result) error {
	for _, name := range shape.apps {
		app, err := apps.ByName(name)
		if err != nil {
			return err
		}
		if _, err := r.analysis(app); err != nil {
			return err
		}
	}
	for _, name := range shape.variants {
		if _, err := r.variant(name); err != nil {
			return err
		}
	}
	for i, c := range shape.cells {
		got, err := replayCell(r, c, want[i])
		checkCell(out, c, got, err, want[i])
	}
	return fifoStudy(r)
}

// fifoStudy replays the ablations' FIFO-cutoff study: the ResNet
// baseline mapping balanced at four cutoffs. A warm pass maps ResNet
// again first, since results loaded from the store carry no mapping.
func fifoStudy(r *replayer) error {
	app := apps.ResNet()
	v, err := r.variant("baseline")
	if err != nil {
		return err
	}
	mapped := r.mapped[app.Name+"@"+v.Name]
	if mapped == nil {
		r.l.begin("rewrite.map")
		mapped, err = rewrite.MapApp(app.Graph, v.Rules, app.Name+"@"+v.Name)
		r.l.end()
		if err != nil {
			return err
		}
		r.count["rewrite.map_calls"]++
		r.count["rewrite.mapped_pes"] += float64(mapped.NumPEs())
	}
	for _, cutoff := range []int{1, 2, 4, 8} {
		r.l.begin("pipeline.balance")
		_, report := pipeline.BalanceApp(mapped, pipeline.AppOptions{PELatency: 2, FIFOCutoff: cutoff})
		r.l.end()
		r.count["pipeline.regs"] += float64(report.RegsInserted)
	}
	return nil
}

// replayCell evaluates one cell through the layers, or — when its
// result is already in the replay's store — reads and decodes it.
func replayCell(r *replayer, c suiteCell, want *core.Result) (cellOut, error) {
	app, err := apps.ByName(c.App)
	if err != nil {
		return cellOut{}, err
	}
	v, err := r.variant(c.Variant)
	if err != nil {
		return cellOut{}, err
	}
	key := func() store.Key {
		return store.ResultKey(r.appKey(app), r.variantKey(v.Name), r.fw, c.PnR, c.Pipelined)
	}
	if payload := r.get(store.KindResult, key); payload != nil {
		if res, ok := decode(r, func() (*core.Result, error) { return store.DecodeResult(payload) }); ok {
			return cellOut{PEs: res.NumPEs, Latency: res.LatencyCyc, Routed: res.Routed}, nil
		}
	}
	got, err := r.evaluate(app, v, r.fw, c.PnR, c.Pipelined)
	if err != nil {
		return got, err
	}
	r.put(store.KindResult, key(), func() []byte { return store.EncodeResult(want) })
	return got, nil
}

// setMemo reports the harness memo tables' counters, summed over the
// analysis, variant and result tables.
func setMemo(out *outcome, stats map[string]eval.MemoStats) {
	var hits, misses, coalesced int64
	for _, s := range stats {
		hits += s.Hits
		misses += s.Misses
		coalesced += s.Coalesced
	}
	out.set("eval.memo_hits", float64(hits), "count")
	out.set("eval.memo_misses", float64(misses), "count")
	out.set("eval.memo_coalesced", float64(coalesced), "count")
	ratio := 0.0
	if n := hits + misses + coalesced; n > 0 {
		ratio = float64(hits) / float64(n)
	}
	out.set("eval.memo_hit_ratio", ratio, "ratio")
}

// obsOverheadPct estimates what the program's disabled observability
// path costs a suite pass, the way the repository's obs overhead gate
// does: the instrumentation events an enabled pass fires, times the
// measured cost of one disabled call, over the untraced pass time.
func obsOverheadPct(o *obs.Obs, wall time.Duration) float64 {
	snap := o.Metrics.Snapshot()
	events := int64(o.Tracer.SpanCount()) * 2
	for _, c := range snap.Counters {
		events += c.Value
	}
	for _, h := range snap.Histograms {
		events += h.Count
	}
	ctx := context.Background()
	const iters = 200000
	start := time.Now()
	for i := 0; i < iters; i++ {
		_, sp := obs.StartSpan(ctx, "stage", obs.Int("i", i))
		sp.End()
		obs.Add(ctx, "counter", 1)
	}
	perCall := time.Since(start) / (iters * 2)
	return 100 * float64(time.Duration(events)*perCall) / float64(wall)
}

// mineVsReference times the frozen serial reference miner against the
// miner on camera, as the miner's legacy gate does.
func mineVsReference(ctx context.Context) float64 {
	view, _ := mining.ComputeView(apps.Camera().Graph)
	opt := mining.Options{MinSupport: 8, MaxNodes: 4, Workers: 1}
	timeIt := func(fn func()) float64 {
		var ds []float64
		for i := 0; i < 5; i++ {
			start := time.Now()
			fn()
			ds = append(ds, time.Since(start).Seconds())
		}
		return median(ds)
	}
	ref := timeIt(func() { mining.MineReference(ctx, view, opt) })
	cur := timeIt(func() { mining.Mine(ctx, view, opt) })
	return ref / cur
}
