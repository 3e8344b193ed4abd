package main

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records the spans of a traced replay in memory. Spans are
// opened and closed around the benchmark's own calls into each layer's
// public functions, on lanes: a lane is one goroutine's strictly nested
// stack of spans. A nil *lane records nothing, so the replay code runs
// unchanged with tracing off.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []spanRec
	sample []metrics.Sample
}

type spanRec struct {
	name       string
	lane       int
	parent     int // index into spans, -1 for a lane's top level
	start, end time.Duration
	alloc      uint64 // heap bytes allocated while open (lane 0 only)
	allocAt    uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// lane returns the span stack for one goroutine. Only lane 0 tracks heap
// allocation: the counter is process-wide, so it is attributed only
// where one goroutine does all the work.
func (t *tracer) lane(id int) *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t, id: id}
}

type lane struct {
	t     *tracer
	id    int
	stack []int
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span named by its layer metric prefix (e.g. "cgra.place").
func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	t := l.t
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	t.mu.Lock()
	rec := spanRec{name: name, lane: l.id, parent: parent}
	if l.id == 0 {
		rec.allocAt = t.heapAllocs()
	}
	rec.start = time.Since(t.t0)
	t.spans = append(t.spans, rec)
	l.stack = append(l.stack, len(t.spans)-1)
	t.mu.Unlock()
}

// end closes the innermost open span.
func (l *lane) end() {
	if l == nil {
		return
	}
	t := l.t
	now := time.Since(t.t0)
	t.mu.Lock()
	i := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	t.spans[i].end = now
	if l.id == 0 {
		t.spans[i].alloc = t.heapAllocs() - t.spans[i].allocAt
	}
	t.mu.Unlock()
}

// layerCost is the exclusive cost of every span sharing one name.
type layerCost struct {
	calls    int
	self     time.Duration
	selfHeap uint64
}

// costs aggregates self time (a span's duration minus its children's)
// and self allocation by span name, plus the time within [0, wall] that
// no top-level layer span of lane 0 covers. Spans that are not layers
// (the benchmark's own store copies, the apexd clients' submit and wait)
// count as uncovered; they appear under their own names in the record.
func (t *tracer) costs(wall time.Duration) (map[string]*layerCost, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	childDur := make([]time.Duration, len(t.spans))
	childHeap := make([]uint64, len(t.spans))
	var covered time.Duration
	for _, s := range t.spans {
		d := s.end - s.start
		switch {
		case s.parent >= 0:
			childDur[s.parent] += d
			childHeap[s.parent] += s.alloc
		case s.lane == 0 && isLayer[s.name]:
			covered += d
		}
	}
	out := map[string]*layerCost{}
	for i, s := range t.spans {
		c := out[s.name]
		if c == nil {
			c = &layerCost{}
			out[s.name] = c
		}
		c.calls++
		c.self += s.end - s.start - childDur[i]
		if s.alloc >= childHeap[i] {
			c.selfHeap += s.alloc - childHeap[i]
		}
	}
	return out, max(wall-covered, 0)
}

// tracedRun is the traced replay of one run: replay passes repeat until
// the run's budget is spent, and every per-layer figure is reported per
// pass.
type tracedRun struct {
	t        *tracer
	count    map[string]float64
	passes   int
	rt0      runtimeSample
	start    time.Time
	deadline time.Time
}

func startTraced(budget time.Duration) *tracedRun {
	now := time.Now()
	return &tracedRun{t: newTracer(), count: map[string]float64{}, rt0: readRuntime(), start: now, deadline: now.Add(budget)}
}

// more reports whether another pass fits the budget (the first always
// does) and counts it.
func (tr *tracedRun) more() bool {
	if tr.passes > 0 && !time.Now().Before(tr.deadline) {
		return false
	}
	tr.passes++
	return true
}

// report sets every per-layer metric per pass.
func (tr *tracedRun) report(o *outcome) {
	wall := time.Since(tr.start)
	n := float64(max(tr.passes, 1))
	setRuntime(o, tr.rt0, readRuntime(), n)
	costs, uncovered := tr.t.costs(wall)
	for _, name := range spanNames {
		c := costs[name]
		if c == nil {
			c = &layerCost{}
		}
		o.set(selfMetric(name), ms(c.self)/n, "ms")
		if metric, ok := allocMetrics[name]; ok {
			o.set(metric, float64(c.selfHeap)/1e6/n, "MB")
		}
	}
	o.set("trace.uncovered_ms", ms(uncovered)/n, "ms")
	o.set("trace.wall_ms", ms(wall)/n, "ms")
	setCounters(o, tr.count, n)
	o.chrome = tr.t
	table := map[string]any{}
	for name, c := range costs {
		table[name] = map[string]any{"calls": float64(c.calls) / n, "self_ms": ms(c.self) / n, "self_alloc_mb": float64(c.selfHeap) / 1e6 / n}
	}
	o.detail["layers_per_pass"] = table
	o.detail["passes"] = tr.passes
	fillAbsent(o)
}

// overhead sets ratio.trace_overhead_pct: one traced pass against the
// untraced program doing the same work.
func (tr *tracedRun) overhead(o *outcome, untraced time.Duration) {
	pass := ms(time.Since(tr.start)) / float64(max(tr.passes, 1))
	o.set("ratio.trace_overhead_pct", 100*(pass-ms(untraced))/ms(untraced), "%")
	o.detail["untraced_ms"] = ms(untraced)
}

// spanNames are the layer spans the replays open. A name without a dot
// is a whole module ("merge" -> merge.self_ms); a dotted name is one
// operation of it ("cgra.place" -> cgra.place_self_ms).
var spanNames = []string{
	"mining", "mis", "merge", "rewrite.synth", "pipeline.pe",
	"rewrite.map", "pipeline.balance", "cgra.place", "cgra.route",
	"store.get", "store.decode", "store.put", "store.encode",
	"costmodel.train", "costmodel.predict", "core.postmap",
}

var isLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, name := range spanNames {
		m[name] = true
	}
	return m
}()

// allocMetrics names the layers whose self allocation is reported.
var allocMetrics = map[string]string{
	"cgra.place":    "cgra.place_alloc_mb",
	"merge":         "merge.alloc_mb",
	"rewrite.synth": "rewrite.synth_alloc_mb",
	"rewrite.map":   "rewrite.map_alloc_mb",
}

func selfMetric(name string) string {
	if strings.Contains(name, ".") {
		return name + "_self_ms"
	}
	return name + ".self_ms"
}

// maxChromeSpans bounds the Chrome trace: the first spans of a long run
// (a warm suite replays a thousand passes) show every layer already.
const maxChromeSpans = 20000

// writeChrome exports the spans as Chrome trace_event JSON, one thread
// lane per span lane.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	t.mu.Lock()
	spans := t.spans
	if len(spans) > maxChromeSpans {
		spans = spans[:maxChromeSpans]
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
		})
	}
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
