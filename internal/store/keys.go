package store

import (
	"sort"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
)

// Key derivation. A cached value may only be reused when everything it
// was computed from is unchanged, so each key hashes the full provenance
// cone of its value:
//
//	analysis  <- app graph encoding + mining options (support, size cap)
//	variant   <- variant name + the analyzed-app registry (variants are
//	             deterministic functions of analyses, which are functions
//	             of app graphs) + front-end options
//	result    <- app graph + the variant key + fabric config + placement
//	             seed/portfolio options + evaluation level
//
// plus SchemaVersion (folded in by NewHasher), which stands in for the
// algorithm revision of the pipeline itself. The registry hash is
// deliberately conservative: a change to any application graph
// invalidates every variant and result, trading a cold rebuild for the
// guarantee that a composition change (domain PEs mix subgraphs from
// several apps) can never be served stale.

// AppHash fingerprints one application: its IR graph encoding plus the
// roll-up parameters that flow into results.
func AppHash(a *apps.App) Key {
	e := &enc{}
	encodeIRGraph(e, a.Graph)
	h := NewHasher("app")
	h.Str(a.Name)
	h.Bytes(e.buf)
	h.Int(a.Unroll)
	h.Int(a.TotalOutputs)
	return h.Key()
}

// RegistryHash fingerprints the whole application registry in sorted
// name order — the conservative dependency cone of variant generation.
func RegistryHash() Key {
	all := apps.All()
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	h := NewHasher("registry")
	for _, a := range all {
		h.Str(string(AppHash(a)))
	}
	return h.Key()
}

// Keys derives artifact keys for one caller (the eval harness, a sweep
// run), memoizing the app and registry fingerprints so an app graph is
// hashed once per Keys, not once per lookup. The zero value is ready to
// use and safe for concurrent use.
type Keys struct {
	mu       sync.Mutex
	apps     map[string]Key
	registry Key
}

// App returns the (memoized) AppHash of a.
func (k *Keys) App(a *apps.App) Key {
	k.mu.Lock()
	defer k.mu.Unlock()
	if h, ok := k.apps[a.Name]; ok {
		return h
	}
	if k.apps == nil {
		k.apps = map[string]Key{}
	}
	h := AppHash(a)
	k.apps[a.Name] = h
	return h
}

// Registry returns the (memoized) RegistryHash.
func (k *Keys) Registry() Key {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.registry == "" {
		k.registry = RegistryHash()
	}
	return k.registry
}

// Analysis returns the AnalysisKey of a under fw.
func (k *Keys) Analysis(a *apps.App, fw *core.Framework) Key { return AnalysisKey(k.App(a), fw) }

// Variant returns the VariantKey of the named variant under fw.
func (k *Keys) Variant(name string, fw *core.Framework) Key {
	return VariantKey(name, k.Registry(), fw)
}

// Result returns the ResultKey of app a on the named variant under fw.
func (k *Keys) Result(a *apps.App, variant string, fw *core.Framework, pnr, pipelined bool) Key {
	return ResultKey(k.App(a), k.Variant(variant, fw), fw, pnr, pipelined)
}

// AnalysisKey keys a mined analysis: the app fingerprint plus the mining
// options the framework would use for it.
func AnalysisKey(appHash Key, fw *core.Framework) Key {
	h := NewHasher("analysis")
	h.Str(string(appHash))
	h.Int(fw.MaxPatternNodes)
	h.Int(fw.MinSupport)
	return h.Key()
}

// VariantKey keys a generated PE variant by its name (unique per
// composition), the registry hash, and the front-end options.
func VariantKey(name string, registry Key, fw *core.Framework) Key {
	h := NewHasher("variant")
	h.Str(name)
	h.Str(string(registry))
	h.Int(fw.MaxPatternNodes)
	h.Int(fw.MinSupport)
	return h.Key()
}

// SampleKey keys a cost-model training sample one-to-one with the
// oracle result it was labeled from: the sample is a pure function of
// the result's provenance cone plus the feature schema revision, so the
// corpus dedups across runs exactly like results do.
func SampleKey(resultKey Key, featureSchema int) Key {
	h := NewHasher("sample")
	h.Str(string(resultKey))
	h.Int(featureSchema)
	return h.Key()
}

// ModelKey keys a trained cost model by everything its weights are a
// function of: the sweep-run fingerprint (grid, triage knobs, registry,
// schema), the feature schema revision, and the training
// hyperparameters — so two runs share a model exactly when they would
// train identical ones.
func ModelKey(runFingerprint Key, featureSchema int, hyper string) Key {
	h := NewHasher("model")
	h.Str(string(runFingerprint))
	h.Int(featureSchema)
	h.Str(hyper)
	return h.Key()
}

// ResultKey keys one evaluation cell: the app and variant fingerprints,
// the fabric configuration, the placement options, and the evaluation
// level.
func ResultKey(appHash, variantKey Key, fw *core.Framework, pnr, pipelined bool) Key {
	h := NewHasher("result")
	h.Str(string(appHash))
	h.Str(string(variantKey))
	f := fw.Fabric
	h.Int(f.W)
	h.Int(f.H)
	h.Int(f.MemColumnStride)
	h.Int(f.Tracks16)
	h.Int(f.Tracks1)
	h.Int(f.MaxRegsPerTile)
	h.Int64(fw.PlaceSeed)
	h.Int(fw.PlaceMoves)
	h.Int(fw.PlaceSeeds)
	h.Bool(pnr)
	h.Bool(pipelined)
	return h.Key()
}
