package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/mining"
	"repro/internal/mis"
	"repro/internal/pe"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/internal/store"
)

// replayer re-runs the harness's flow (analyze, generate PE, evaluate
// with the place-and-route retry ladder) through the layers' public
// functions, one span around each call. It mirrors internal/core and
// internal/eval; the replay-consistency check compares every replayed
// cell with the program's own result, so a drift between the two shows
// as a failed check rather than as silently different work.
type replayer struct {
	ctx   context.Context
	l     *lane
	fw    *core.Framework
	st    *store.Store // optional: read-through/write-back like the harness
	count map[string]float64

	analyses map[string]*core.Analysis
	variants map[string]*core.PEVariant
	mapped   map[string]*rewrite.Mapped // by "<app>@<variant>"
	appKeys  map[string]store.Key
	registry store.Key
}

func newReplayer(ctx context.Context, l *lane, fw *core.Framework, st *store.Store, count map[string]float64) *replayer {
	return &replayer{
		ctx: ctx, l: l, fw: fw, st: st, count: count,
		analyses: map[string]*core.Analysis{}, variants: map[string]*core.PEVariant{},
		mapped: map[string]*rewrite.Mapped{}, appKeys: map[string]store.Key{},
	}
}

// counters are the per-layer work counts the replay reports.
var counters = []string{
	"mining.calls", "mining.patterns", "mis.ranked", "merge.calls", "merge.fus",
	"rewrite.rules", "rewrite.map_calls", "rewrite.mapped_pes", "pipeline.regs",
	"cgra.place_calls", "cgra.route_calls", "cgra.route_iters", "cgra.route_hops",
	"cgra.route_failed", "core.pnr_attempts", "core.degraded", "core.routed",
	"store.hits", "store.misses", "store.bytes_read", "store.corrupt", "store.bytes_written",
}

func (r *replayer) mineWorkers() int {
	if r.fw.MineWorkers > 0 {
		return r.fw.MineWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// get reads one store entry (nil on a miss or without a store).
func (r *replayer) get(kind store.Kind, key func() store.Key) []byte {
	if r.st == nil {
		return nil
	}
	r.l.begin("store.get")
	payload, ok := r.st.Get(kind, key())
	r.l.end()
	if !ok {
		r.count["store.misses"]++
		return nil
	}
	r.count["store.hits"]++
	r.count["store.bytes_read"] += float64(len(payload))
	return payload
}

func (r *replayer) put(kind store.Kind, key store.Key, encode func() []byte) {
	if r.st == nil {
		return
	}
	r.l.begin("store.encode")
	payload := encode()
	r.l.end()
	r.l.begin("store.put")
	r.st.Put(kind, key, payload)
	r.l.end()
	r.count["store.bytes_written"] += float64(len(payload))
}

// decode runs a store codec inside its span; a failure counts as corrupt.
func decode[T any](r *replayer, fn func() (T, error)) (T, bool) {
	r.l.begin("store.decode")
	v, err := fn()
	r.l.end()
	if err != nil {
		r.count["store.corrupt"]++
	}
	return v, err == nil
}

func (r *replayer) appKey(app *apps.App) store.Key {
	if k, ok := r.appKeys[app.Name]; ok {
		return k
	}
	r.l.begin("store.get")
	k := store.AppHash(app)
	r.l.end()
	r.appKeys[app.Name] = k
	return k
}

func (r *replayer) registryKey() store.Key {
	if r.registry == "" {
		r.l.begin("store.get")
		r.registry = store.RegistryHash()
		r.l.end()
	}
	return r.registry
}

func (r *replayer) variantKey(name string) store.Key {
	return store.VariantKey(name, r.registryKey(), r.fw)
}

// analysis mines and MIS-ranks an application (core.Framework.Analyze),
// reading through the store when one is attached.
func (r *replayer) analysis(app *apps.App) (*core.Analysis, error) {
	if a, ok := r.analyses[app.Name]; ok {
		return a, nil
	}
	key := func() store.Key { return store.AnalysisKey(r.appKey(app), r.fw) }
	if payload := r.get(store.KindAnalysis, key); payload != nil {
		if a, ok := decode(r, func() (*core.Analysis, error) { return store.DecodeAnalysis(payload) }); ok {
			r.analyses[app.Name] = a
			return a, nil
		}
	}
	r.l.begin("mining")
	view, _ := mining.ComputeView(app.Graph)
	pats, err := mining.Mine(r.ctx, view, mining.Options{
		MinSupport: r.fw.EffectiveMinSupport(app),
		MaxNodes:   r.fw.MaxPatternNodes,
		Workers:    r.mineWorkers(),
	})
	r.l.end()
	if err != nil {
		return nil, err
	}
	r.count["mining.calls"]++
	r.count["mining.patterns"] += float64(len(pats))
	r.l.begin("mis")
	ranked := mis.Rank(r.ctx, pats)
	r.l.end()
	r.count["mis.ranked"] += float64(len(ranked))
	a := &core.Analysis{View: view, Ranked: ranked}
	r.analyses[app.Name] = a
	r.put(store.KindAnalysis, key(), func() []byte { return store.EncodeAnalysis(a) })
	return a, nil
}

// variant builds a PE variant by the name the harness, the sweep engine
// or the daemon gives it, reading through the store when one is attached.
func (r *replayer) variant(name string) (*core.PEVariant, error) {
	if v, ok := r.variants[name]; ok {
		return v, nil
	}
	if payload := r.get(store.KindVariant, func() store.Key { return r.variantKey(name) }); payload != nil {
		if v, ok := decode(r, func() (*core.PEVariant, error) { return store.DecodeVariant(payload, r.fw.Tech) }); ok {
			r.variants[name] = v
			return v, nil
		}
	}
	v, err := r.build(name)
	if err != nil {
		return nil, fmt.Errorf("replay variant %s: %w", name, err)
	}
	r.variants[name] = v
	r.put(store.KindVariant, r.variantKey(name), func() []byte { return store.EncodeVariant(v) })
	return v, nil
}

// build is the recipe behind each variant name (internal/eval's
// Baseline, LadderPE, SpecializedPE, DomainPE and ablation variants, the
// sweep engine's swp_*, and the daemon's <app>_k<k>).
func (r *replayer) build(name string) (*core.PEVariant, error) {
	top := func(appName string, k int) (*core.PEVariant, error) {
		app, err := apps.ByName(appName)
		if err != nil {
			return nil, err
		}
		a, err := r.analysis(app)
		if err != nil {
			return nil, err
		}
		return r.generate(name, app.UsedOps(), core.SelectPatterns(a, k))
	}
	switch {
	case name == "baseline":
		ops := ir.BaselineALUOps()
		r.l.begin("merge")
		spec := pe.FromDatapath("baseline", merge.BaselinePE(ops))
		r.l.end()
		return r.finish(spec, nil, ops, true)
	case name == "pe_ip":
		return r.domain(name, apps.AnalyzedIP(), 1, nil)
	case name == "pe_ip2":
		return r.domain(name, apps.AnalyzedIP(), 2, nil)
	case name == "pe_ip3":
		return r.domain(name, apps.AnalyzedIP(), 1, map[string]int{"camera": 2})
	case name == "pe_ml":
		return r.domain(name, apps.AnalyzedML(), 2, nil)
	case name == "abl_mis":
		return top("camera", 1)
	case name == "abl_freq":
		return r.freqVariant()
	case strings.HasPrefix(name, "spec_"):
		return top(strings.TrimPrefix(name, "spec_"), 3)
	}
	if app, k, ok := splitK(name, "_pe"); ok {
		return top(app, k-1)
	}
	if app, k, ok := splitK(name, "_k"); ok {
		if rest, found := strings.CutPrefix(app, "swp_"); found {
			// swp_<app>_s<support>_k<k>; the support is applied by the
			// caller's framework (sweep cells use MinSupport 0 here).
			if i := strings.LastIndex(rest, "_s"); i >= 0 {
				return top(rest[:i], k)
			}
		}
		return top(app, k)
	}
	return nil, fmt.Errorf("no recipe for variant %q", name)
}

// splitK parses "<app><sep><k>".
func splitK(name, sep string) (string, int, bool) {
	i := strings.LastIndex(name, sep)
	if i < 0 {
		return "", 0, false
	}
	k, err := strconv.Atoi(name[i+len(sep):])
	if err != nil {
		return "", 0, false
	}
	return name[:i], k, true
}

// generate is core.Framework.GeneratePE.
func (r *replayer) generate(name string, baseOps []ir.Op, patterns []mis.Ranked) (*core.PEVariant, error) {
	var named []rewrite.NamedPattern
	for i, p := range patterns {
		np, err := rewrite.PatternFromMined(p.Pattern.Graph, fmt.Sprintf("%s_sg%d", name, i))
		if err != nil {
			return nil, err
		}
		named = append(named, np)
	}
	return r.fromPatterns(name, baseOps, named)
}

// fromPatterns is core.Framework.GeneratePEFromPatterns: merge each
// pattern's datapath into the restricted baseline, then synthesize the
// rules and pipeline the PE.
func (r *replayer) fromPatterns(name string, baseOps []ir.Op, named []rewrite.NamedPattern) (*core.PEVariant, error) {
	ops := withControlOps(baseOps)
	r.l.begin("merge")
	dp := merge.BaselinePE(ops)
	r.l.end()
	for _, np := range named {
		r.l.begin("merge")
		pdp, err := merge.FromPattern(np.Graph, np.Name)
		if err == nil {
			dp = merge.Merge(dp, pdp, merge.Options{Tech: r.fw.Tech})
		}
		r.l.end()
		if err != nil {
			return nil, err
		}
		r.count["merge.calls"]++
		r.count["merge.fus"] += float64(dp.Count().FUs)
	}
	r.l.begin("merge")
	spec := pe.FromDatapath(name, dp)
	r.l.end()
	return r.finish(spec, named, ops, false)
}

func (r *replayer) finish(spec *pe.Spec, named []rewrite.NamedPattern, ops []ir.Op, baseline bool) (*core.PEVariant, error) {
	r.l.begin("rewrite.synth")
	rules, err := rewrite.SynthesizeRuleSet(spec, named, ops)
	r.l.end()
	if err != nil {
		return nil, err
	}
	r.count["rewrite.rules"] += float64(len(rules.Rules))
	r.l.begin("pipeline.pe")
	pp := pipeline.PipelinePE(spec, r.fw.Tech, pipeline.Options{})
	r.l.end()
	return &core.PEVariant{Name: spec.Name, Spec: spec, Pipelined: pp, Rules: rules, Baseline: baseline}, nil
}

// domain is eval.Harness.DomainPE.
func (r *replayer) domain(name string, members []*apps.App, perApp int, extra map[string]int) (*core.PEVariant, error) {
	var named []rewrite.NamedPattern
	seen := map[string]bool{}
	for _, a := range members {
		an, err := r.analysis(a)
		if err != nil {
			return nil, err
		}
		for i, p := range core.SelectPatterns(an, perApp+extra[a.Name]) {
			if seen[p.Pattern.Code] {
				continue
			}
			seen[p.Pattern.Code] = true
			np, err := rewrite.PatternFromMined(p.Pattern.Graph, fmt.Sprintf("%s_%s%d", name, a.Name, i))
			if err != nil {
				return nil, err
			}
			named = append(named, np)
		}
	}
	return r.fromPatterns(name, core.UnionOps(members), named)
}

// freqVariant is the ablation's frequency-ranked camera variant.
func (r *replayer) freqVariant() (*core.PEVariant, error) {
	app := apps.Camera()
	r.l.begin("mining")
	view, _ := mining.ComputeView(app.Graph)
	pats, err := mining.Mine(r.ctx, view, mining.Options{
		MinSupport: max(app.ComputeOps()/40, 4),
		MaxNodes:   r.fw.MaxPatternNodes,
		Workers:    r.fw.MineWorkers,
	})
	r.l.end()
	if err != nil {
		return nil, err
	}
	r.count["mining.calls"]++
	r.count["mining.patterns"] += float64(len(pats))
	r.l.begin("mis")
	byFreq := mis.RankByFrequency(r.ctx, pats)
	r.l.end()
	r.count["mis.ranked"] += float64(len(byFreq))
	pick := 0
	for pick < len(byFreq) {
		if _, err := rewrite.PatternFromMined(byFreq[pick].Pattern.Graph, "probe"); err == nil {
			break
		}
		pick++
	}
	if pick == len(byFreq) {
		return nil, errors.New("no single-rooted frequent pattern")
	}
	return r.generate("abl_freq", app.UsedOps(), byFreq[pick:pick+1])
}

func withControlOps(ops []ir.Op) []ir.Op {
	seen := map[ir.Op]bool{}
	var out []ir.Op
	for _, op := range append(append([]ir.Op(nil), ops...), core.ControlOps...) {
		if !seen[op] {
			seen[op] = true
			out = append(out, op)
		}
	}
	return out
}

// cellOut is what the consistency check compares with the program.
type cellOut struct {
	PEs, Latency int
	Routed       bool
}

// pnrLadder mirrors internal/core's retry schedule: placement seed
// offset, portfolio width, router iteration budget (0 = default).
var pnrLadder = []struct {
	seedOffset int64
	seeds      int
	routeIters int
}{{0, 1, 0}, {1, 2, 48}, {3, 3, 96}}

// evaluate is core.Framework.Evaluate without the metric roll-ups:
// instruction selection, branch-delay matching, then placement and
// routing down the retry ladder.
func (r *replayer) evaluate(app *apps.App, v *core.PEVariant, fw *core.Framework, pnr, pipelined bool) (cellOut, error) {
	r.l.begin("rewrite.map")
	mapped, err := rewrite.MapApp(app.Graph, v.Rules, app.Name+"@"+v.Name)
	r.l.end()
	if err != nil {
		return cellOut{}, err
	}
	r.count["rewrite.map_calls"]++
	r.count["rewrite.mapped_pes"] += float64(mapped.NumPEs())
	r.mapped[app.Name+"@"+v.Name] = mapped
	peLat := 0
	if pipelined {
		peLat = max(v.Pipelined.Stages, 1)
	}
	r.l.begin("pipeline.balance")
	balanced, report := pipeline.BalanceApp(mapped, pipeline.AppOptions{PELatency: peLat})
	r.l.end()
	r.count["pipeline.regs"] += float64(report.RegsInserted)
	out := cellOut{PEs: mapped.NumPEs(), Latency: report.TotalLatency}
	if !pnr {
		return out, nil
	}
	for _, rung := range pnrLadder {
		r.count["core.pnr_attempts"]++
		r.l.begin("cgra.place")
		placed, err := cgra.Place(r.ctx, balanced, fw.Fabric, cgra.PlaceOptions{
			Seed: fw.PlaceSeed + rung.seedOffset, Moves: fw.PlaceMoves, Seeds: max(rung.seeds, fw.PlaceSeeds),
		})
		r.l.end()
		r.count["cgra.place_calls"]++
		if errors.Is(err, fault.ErrCapacity) {
			break
		}
		if err != nil {
			return out, err
		}
		r.l.begin("cgra.route")
		routing, err := cgra.RouteAll(r.ctx, placed, cgra.RouteOptions{MaxIterations: rung.routeIters})
		r.l.end()
		r.count["cgra.route_calls"]++
		if err == nil {
			r.count["cgra.route_iters"] += float64(routing.Iterations)
			r.count["cgra.route_hops"] += float64(routing.TotalHops())
			r.count["core.routed"]++
			out.Routed = true
			return out, nil
		}
		if !errors.Is(err, fault.ErrNonConvergence) {
			return out, err
		}
		r.count["cgra.route_failed"]++
	}
	r.count["core.degraded"]++
	return out, nil
}

// setCounters reports every replay counter per pass (n passes), plus the
// PnR success ratio.
func setCounters(o *outcome, c map[string]float64, n float64) {
	for _, name := range counters {
		if name == "core.routed" {
			continue
		}
		unit := "count"
		if strings.HasPrefix(name, "store.bytes") {
			unit = "B"
		}
		o.set(name, c[name]/n, unit)
	}
	ratio := 0.0
	if c["core.pnr_attempts"] > 0 {
		ratio = c["core.routed"] / c["core.pnr_attempts"]
	}
	o.set("core.pnr_success_ratio", ratio, "ratio")
}
