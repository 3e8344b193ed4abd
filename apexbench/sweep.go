package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/store"
	"repro/internal/sweep"
)

// triageGrid is the 80-cell camera+harris grid of the triage legacy
// gate: k 1-8 crossed with placement seeds 1-5 on a 32x16 fabric,
// pipelined, with place-and-route.
var triageGrid = sweep.Grid{
	Apps:      []string{"camera", "harris"},
	Supports:  []int{0},
	Fabrics:   [][2]int{{32, 16}},
	Seeds:     []int64{1, 2, 3, 4, 5},
	Ks:        []int{1, 2, 3, 4, 5, 6, 7, 8},
	PnR:       true,
	Pipelined: true,
}

func triageOptions(seed int64) sweep.TriageOptions {
	return sweep.TriageOptions{Enabled: true, Top: 0.1, Explore: 0.1, Seed: seed, MinTrain: 2}
}

// copyTree copies a store directory, so each timed sweep starts from its
// own copy of the warmed store.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// warmSweepStore pre-warms a store with the grid's post-mapping pass:
// analyses, variants and post-mapping results, no place-and-route.
func warmSweepStore(ctx context.Context, out *outcome, dir string) bool {
	warm := triageGrid
	warm.PnR = false
	rep, err := sweep.Run(ctx, warm, sweep.Options{Workers: runtime.GOMAXPROCS(0), CacheDir: dir})
	return out.check(err == nil && rep.Failed == 0, "post-mapping warm-up sweep: %v", err)
}

// timedSweep runs the PnR grid serially on a private copy of the warmed
// store and returns the report, the time of sweep.Run, and the copy
// (which the caller removes).
func timedSweep(ctx context.Context, cfg *config, warmDir string, tr sweep.TriageOptions) (*sweep.Report, time.Duration, string, error) {
	dir, err := freshDir(cfg, "sweep")
	if err != nil {
		return nil, 0, "", err
	}
	if err := copyTree(warmDir, dir); err != nil {
		return nil, 0, dir, err
	}
	runtime.GC()
	start := time.Now()
	rep, err := sweep.Run(ctx, triageGrid, sweep.Options{Workers: 1, CacheDir: dir, Triage: tr})
	return rep, time.Since(start), dir, err
}

// checkFull checks a full-oracle sweep: no failed cell, and the same
// results as the first full sweep of the run.
func checkFull(out *outcome, rep *sweep.Report, err error, ref *sweep.Report) bool {
	switch {
	case err != nil:
	case rep.Failed > 0:
		err = fmt.Errorf("%d cells failed", rep.Failed)
	case ref != nil && !reflect.DeepEqual(rep.Results, ref.Results):
		err = errors.New("results changed since the run's first full sweep")
	}
	return out.check(err == nil, "full sweep: %v", err)
}

// checkTriaged checks a triaged sweep: no failed cell, no fallback to
// the full oracle, and every oracle cell equal to the full sweep's.
func checkTriaged(out *outcome, rep *sweep.Report, err error, full *sweep.Report) bool {
	switch {
	case err != nil:
	case rep.Failed > 0:
		err = fmt.Errorf("%d cells failed", rep.Failed)
	case rep.Triage == nil || rep.Triage.Fallback != "":
		err = errors.New("fell back to the full oracle")
	default:
		for i := range rep.Results {
			if !rep.Results[i].Predicted && !reflect.DeepEqual(rep.Results[i], full.Results[i]) {
				err = fmt.Errorf("oracle cell %d differs from the full sweep", i)
				break
			}
		}
	}
	return out.check(err == nil, "triaged sweep: %v", err)
}

// regretPct is the share of the full frontier's hypervolume that the
// triaged run's oracle-only frontier loses, summed over apps (the
// triage legacy gate's definition).
func regretPct(full, tri *sweep.Report) float64 {
	var hvFull, hvTri float64
	fullPts := sweep.FrontierPoints(full.Results, full.Frontier)
	triPts := sweep.FrontierPoints(tri.Results, tri.FrontierOracle)
	for app, fp := range fullPts {
		var ref [2]float64
		for _, p := range append(append([][2]float64{}, fp...), triPts[app]...) {
			ref[0] = max(ref[0], p[0])
			ref[1] = max(ref[1], p[1])
		}
		ref[0] *= 1.1
		ref[1] *= 1.1
		if hv := sweep.Hypervolume2D(fp, ref); hv > 0 {
			hvFull += hv
			hvTri += sweep.Hypervolume2D(triPts[app], ref)
		}
	}
	if hvFull == 0 {
		return 0
	}
	return 100 * (hvFull - hvTri) / hvFull
}

func runSweepGrid(ctx context.Context, cfg *config) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var warmDir string
	for i := 0; i < setupRepeats; i++ {
		dir, err := freshDir(cfg, "warm")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if !warmSweepStore(ctx, out, dir) {
			return out, nil
		}
		setups = append(setups, time.Since(start).Seconds())
		if warmDir != "" {
			os.RemoveAll(warmDir)
		}
		warmDir = dir
	}
	if cfg.trace {
		return traceSweep(ctx, cfg, out, warmDir)
	}

	// Full and triaged sweeps alternate; the loop stops at the first
	// failed check, so it always ends, with a sample of each otherwise.
	tr := triageOptions(cfg.seed)
	rssReset := resetPeakRSS()
	var full, triaged []time.Duration
	var fullRef *sweep.Report
	var regret float64
	deadline := time.Now().Add(cfg.budget)
	for i := 0; len(triaged) == 0 || time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			rep, d, dir, err := timedSweep(ctx, cfg, warmDir, sweep.TriageOptions{})
			os.RemoveAll(dir)
			if !checkFull(out, rep, err, fullRef) {
				return out, nil
			}
			full = append(full, d)
			if fullRef == nil {
				fullRef = rep
			}
			continue
		}
		rep, d, dir, err := timedSweep(ctx, cfg, warmDir, tr)
		os.RemoveAll(dir)
		if !checkTriaged(out, rep, err, fullRef) {
			return out, nil
		}
		triaged = append(triaged, d)
		regret = regretPct(fullRef, rep)
	}
	out.set("setup_s", median(setups), "s")
	out.set("op_p50_ms", median(msAll(full)), "ms")
	out.set("op_alt_ms", median(msAll(triaged)), "ms")
	out.set("ops_per_s", perSecond(full, triaged), "1/s")
	out.set("peak_rss_mb", peakRSSMB(), "MB")
	out.detail["sweep_s"] = median(msAll(full)) / 1e3
	out.detail["sweep_triaged_s"] = median(msAll(triaged)) / 1e3
	out.detail["hv_regret_pct"] = regret
	out.detail["rss_timed_only"] = rssReset
	out.detail["triage_speedup"] = median(msAll(full)) / median(msAll(triaged))
	out.detail["samples"] = map[string]int{"sweep_s": len(full), "sweep_triaged_s": len(triaged), "setup_s": len(setups)}
	out.detail["sweep_ms_all"] = msAll(full)
	out.detail["sweep_triaged_ms_all"] = msAll(triaged)
	out.detail["setup_s_all"] = setups
	out.detail["fail_pct"] = failPct(out)
	return out, nil
}

// sweepFramework is the sweep engine's per-cell framework.
func sweepFramework(c sweep.Cell) *core.Framework {
	fw := core.New()
	fw.MinSupport = c.Support
	fw.Fabric = cgra.NewFabric(c.FabricW, c.FabricH)
	fw.PlaceSeed = c.Seed
	fw.MineWorkers = 1
	return fw
}

// storedCells reads every cell's result back from a finished sweep's
// store: the reference the replay is checked against.
func storedCells(dir string, cells []sweep.Cell) ([]*core.Result, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	regKey := store.RegistryHash()
	out := make([]*core.Result, len(cells))
	for i, c := range cells {
		app, err := apps.ByName(c.App)
		if err != nil {
			return nil, err
		}
		fw := sweepFramework(c)
		key := store.ResultKey(store.AppHash(app), store.VariantKey(c.VariantName(), regKey, fw), fw, true, triageGrid.Pipelined)
		payload, ok := st.Get(store.KindResult, key)
		if !ok {
			continue // a predicted cell of a triaged sweep
		}
		if out[i], err = store.DecodeResult(payload); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replaySweepCell is one oracle cell: the variant from the warmed store,
// a result-store miss, the backend through the layers, the write-back.
func replaySweepCell(r *replayer, c sweep.Cell, want *core.Result) (cellOut, error) {
	app, err := apps.ByName(c.App)
	if err != nil {
		return cellOut{}, err
	}
	v, err := r.variant(c.VariantName())
	if err != nil {
		return cellOut{}, err
	}
	fw := sweepFramework(c)
	key := func() store.Key {
		return store.ResultKey(r.appKey(app), r.variantKey(v.Name), fw, true, triageGrid.Pipelined)
	}
	if payload := r.get(store.KindResult, key); payload != nil {
		return cellOut{}, errors.New("result already in a fresh copy of the warmed store")
	}
	got, err := r.evaluate(app, v, fw, true, triageGrid.Pipelined)
	if err != nil {
		return got, err
	}
	r.put(store.KindResult, key(), func() []byte { return store.EncodeResult(want) })
	return got, nil
}

// traceSweep is the traced run of sweep_grid: an untraced full and
// triaged sweep as the reference, then a replay of both through the
// layers — every oracle cell, the post-mapping feature backbone, the
// cost model's training on the triaged run's samples, and a prediction
// for every pruned cell.
func traceSweep(ctx context.Context, cfg *config, out *outcome, warmDir string) (*outcome, error) {
	topt := triageOptions(cfg.seed)
	fullRep, fullTime, fullDir, err := timedSweep(ctx, cfg, warmDir, sweep.TriageOptions{})
	if !checkFull(out, fullRep, err, nil) {
		return out, nil
	}
	triRep, triTime, triDir, err := timedSweep(ctx, cfg, warmDir, topt)
	if !checkTriaged(out, triRep, err, fullRep) {
		return out, nil
	}
	cells := triageGrid.Cells()
	want, err := storedCells(fullDir, cells)
	if err != nil {
		return nil, err
	}
	triStore, err := store.Open(triDir)
	if err != nil {
		return nil, err
	}
	var storedModel []byte
	triStore.Scan(store.KindModel, func(_ store.Key, payload []byte) error {
		storedModel = payload
		return nil
	})
	out.set("ratio.triage_speedup", fullTime.Seconds()/triTime.Seconds(), "ratio")
	out.set("sweep.hv_regret_pct", regretPct(fullRep, triRep), "%")
	out.set("sweep.cells", float64(len(triRep.Results)), "count")
	out.set("sweep.oracle_cells", float64(triRep.Triage.OracleCells), "count")
	out.set("sweep.predicted_cells", float64(triRep.Triage.PredictedCells), "count")
	out.set("sweep.steals", float64(fullRep.Steals+triRep.Steals), "count")
	out.set("sweep.failed", float64(fullRep.Failed+triRep.Failed), "count")
	out.set("costmodel.train_samples", float64(triRep.Triage.TrainSamples), "count")

	fw := core.New()
	fw.MineWorkers = 1
	tr := startTraced(cfg.budget)
	l := tr.t.lane(0)
	for tr.more() {
		// The full-oracle sweep, then the triaged sweep's oracle cells,
		// each on its own fresh copy of the warmed store. The copy is a
		// span of its own ("bench.copy"), outside every layer.
		for pass, rep := range []*sweep.Report{fullRep, triRep} {
			dir, err := freshDir(cfg, "replay")
			if err != nil {
				return nil, err
			}
			l.begin("bench.copy")
			err = copyTree(warmDir, dir)
			l.end()
			if err != nil {
				return nil, err
			}
			st, err := store.Open(dir)
			if err != nil {
				return nil, err
			}
			r := newReplayer(ctx, l, fw, st, tr.count)
			for i, c := range cells {
				if rep.Results[i].Predicted {
					continue
				}
				got, err := replaySweepCell(r, c, want[i])
				checkCell(out, c, got, err, want[i])
			}
			if pass == 1 {
				if err := replayTriage(ctx, out, r, triStore, cells, triRep, storedModel); err != nil {
					return nil, err
				}
			}
		}
	}
	tr.overhead(out, fullTime+triTime)
	tr.report(out)
	os.RemoveAll(fullDir)
	os.RemoveAll(triDir)
	return out, nil
}

// replayTriage replays the triage planning: the post-mapping feature
// backbone of every cell, training on the triaged run's persisted
// samples (checked byte-identical to the model that run stored), and a
// prediction for every pruned cell.
func replayTriage(ctx context.Context, out *outcome, r *replayer, triStore *store.Store, cells []sweep.Cell, rep *sweep.Report, storedModel []byte) error {
	l := r.l
	posts := map[string]*core.Result{}
	features := make([][]float64, len(cells))
	for i, c := range cells {
		app, err := apps.ByName(c.App)
		if err != nil {
			return err
		}
		v, err := r.variant(c.VariantName())
		if err != nil {
			return err
		}
		fw := sweepFramework(c)
		post, ok := posts[v.Name]
		if !ok {
			l.begin("core.postmap")
			post, err = fw.Evaluate(ctx, app, v, core.PostMapping)
			l.end()
			if err != nil {
				return err
			}
			posts[v.Name] = post
		}
		l.begin("costmodel.predict")
		features[i] = costmodel.Features(post, v, costmodel.Knobs{
			FabricW: c.FabricW, FabricH: c.FabricH,
			Tracks16: fw.Fabric.Tracks16, Tracks1: fw.Fabric.Tracks1,
			Seed: c.Seed, Support: c.Support, K: c.K,
		})
		l.end()
	}

	var corpus []costmodel.Sample
	l.begin("store.get")
	err := triStore.Scan(store.KindSample, func(_ store.Key, payload []byte) error {
		r.count["store.hits"]++
		r.count["store.bytes_read"] += float64(len(payload))
		l.begin("store.decode")
		s, err := costmodel.DecodeSample(payload)
		l.end()
		if err != nil {
			r.count["store.corrupt"]++
			return nil
		}
		corpus = append(corpus, *s)
		return nil
	})
	l.end()
	if err != nil {
		return err
	}
	l.begin("costmodel.train")
	model, err := costmodel.Train(ctx, corpus, costmodel.TrainOptions{})
	l.end()
	if !out.check(err == nil && bytes.Equal(model.Encode(), storedModel),
		"replayed cost model (err=%v) differs from the one the triaged sweep stored", err) {
		return nil
	}
	for i := range cells {
		if !rep.Results[i].Predicted {
			continue
		}
		l.begin("costmodel.predict")
		model.Predict(features[i])
		l.end()
	}
	return nil
}
