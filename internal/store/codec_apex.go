package store

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/mis"
	"repro/internal/pe"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/internal/tech"
	"repro/internal/wire"
)

// Typed codecs for the three cached value kinds. The encodings are
// deterministic (maps in sorted key order) and exact where exactness
// matters downstream:
//
//   - Analysis round-trips byte-for-byte: the compute view's adjacency
//     order, every pattern graph, embedding rows, occurrence lists, and
//     MIS picks come back in the stored order, so cached analyses feed
//     pattern selection and table rendering identically to fresh ones.
//   - PEVariant stores the merged datapath and the synthesized rule set
//     (the two expensive artifacts) and rebuilds the derived ones on
//     load: the Spec via pe.FromDatapath and the pipelining via
//     pipeline.PipelinePE, both cheap deterministic functions of what is
//     stored. A decoded variant is fully functional — its rules drive
//     instruction selection on cache-miss evaluations exactly like the
//     originals.
//   - Result stores every reported scalar plus the Routed/Degraded
//     provenance. The heavyweight artifacts (Mapped, Balanced, Routing)
//     are deliberately not stored: no table reads them, and consumers
//     that need a mapping (the FIFO-cutoff ablation) recompute it from
//     the variant's rules in microseconds.

// Codec pairs a Kind with its payload encoding: what a read-through
// cache (internal/memo) needs to move one artifact type in and out of
// the store.
type Codec[V any] struct {
	Kind   Kind
	Encode func(V) []byte
	Decode func([]byte) (V, error)
}

// AnalysisCodec stores mined analyses; ResultCodec stores evaluation
// cells.
var (
	AnalysisCodec = Codec[*core.Analysis]{KindAnalysis, EncodeAnalysis, DecodeAnalysis}
	ResultCodec   = Codec[*core.Result]{KindResult, EncodeResult, DecodeResult}
)

// VariantCodec stores PE variants, rebuilt on load against tech model m.
func VariantCodec(m *tech.Model) Codec[*core.PEVariant] {
	return Codec[*core.PEVariant]{KindVariant, EncodeVariant,
		func(p []byte) (*core.PEVariant, error) { return DecodeVariant(p, m) }}
}

// --- ir.Graph ---------------------------------------------------------

func encodeIRGraph(e *wire.Enc, g *ir.Graph) {
	e.String(g.Name)
	e.Len(len(g.Nodes), g.Nodes == nil)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		e.Byte(byte(n.Op))
		e.Len(len(n.Args), n.Args == nil)
		for _, a := range n.Args {
			e.Int(int(a))
		}
		e.Uvarint(uint64(n.Val))
		e.String(n.Name)
	}
}

func decodeIRGraph(d *wire.Dec) *ir.Graph {
	g := &ir.Graph{Name: d.Str()}
	n, isNil := d.Len(4) // op, args, val, name
	if isNil {
		return g
	}
	g.Nodes = make([]ir.Node, n)
	for i := range g.Nodes {
		node := ir.Node{Op: ir.Op(d.Byte())}
		if na, argsNil := d.Len(1); !argsNil {
			node.Args = make([]ir.NodeRef, na)
			for j := range node.Args {
				node.Args[j] = ir.NodeRef(d.Int())
			}
		}
		node.Val = uint16(d.Uvarint())
		node.Name = d.Str()
		g.Nodes[i] = node
	}
	return g
}

// --- core.Analysis ----------------------------------------------------

// EncodeAnalysis serializes a mined analysis.
func EncodeAnalysis(a *core.Analysis) []byte {
	e := &wire.Enc{}
	a.View.AppendBinary(e)
	e.Len(len(a.Ranked), a.Ranked == nil)
	for i := range a.Ranked {
		r := &a.Ranked[i]
		r.Pattern.Graph.AppendBinary(e)
		e.String(r.Pattern.Code)
		r.Pattern.Embeddings.AppendBinary(e)
		e.Int(r.Pattern.Support)
		e.Len(len(r.Occurrences), r.Occurrences == nil)
		for _, occ := range r.Occurrences {
			e.Len(len(occ), occ == nil)
			for _, v := range occ {
				e.Int(int(v))
			}
		}
		e.Int(r.MISSize)
		e.Len(len(r.Independent), r.Independent == nil)
		for _, v := range r.Independent {
			e.Int(v)
		}
		e.Bool(r.Exact)
	}
	return e.Buf
}

// DecodeAnalysis is the inverse of EncodeAnalysis.
func DecodeAnalysis(data []byte) (*core.Analysis, error) {
	d := wire.NewDec(data)
	a := &core.Analysis{View: graph.DecodeBinaryGraph(d)}
	n, rankedNil := d.Len(1)
	if !rankedNil {
		a.Ranked = make([]mis.Ranked, n)
	}
	for i := range a.Ranked {
		r := &a.Ranked[i]
		r.Pattern.Graph = graph.DecodeBinaryGraph(d)
		r.Pattern.Code = d.Str()
		r.Pattern.Embeddings = graph.DecodeBinaryEmbeddingList(d)
		r.Pattern.Support = d.Int()
		if no, occsNil := d.Len(1); !occsNil {
			r.Occurrences = make([]graph.Embedding, no)
			for j := range r.Occurrences {
				if k, occNil := d.Len(1); !occNil {
					occ := make(graph.Embedding, k)
					for p := range occ {
						occ[p] = graph.NodeID(d.Int())
					}
					r.Occurrences[j] = occ
				}
			}
		}
		r.MISSize = d.Int()
		if ni, indNil := d.Len(1); !indNil {
			r.Independent = make([]int, ni)
			for j := range r.Independent {
				r.Independent[j] = d.Int()
			}
		}
		r.Exact = d.Bool()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("store: decode analysis: %w", err)
	}
	return a, nil
}

// --- core.PEVariant ---------------------------------------------------

func encodeDatapath(e *wire.Enc, dp *merge.Datapath) {
	e.Len(len(dp.Units), dp.Units == nil)
	for i := range dp.Units {
		u := &dp.Units[i]
		e.Byte(byte(u.Kind))
		e.Len(len(u.Ops), u.Ops == nil)
		for _, op := range u.Ops {
			e.Byte(byte(op))
		}
		e.String(u.Class)
		e.Bool(u.Bit)
	}
	e.Len(len(dp.Wires), dp.Wires == nil)
	for _, w := range dp.Wires {
		e.Int(w.From)
		e.Int(w.To)
		e.Int(w.Port)
	}
	e.Len(len(dp.Sources), dp.Sources == nil)
	for _, s := range dp.Sources {
		e.String(s)
	}
}

func decodeDatapath(d *wire.Dec) *merge.Datapath {
	dp := &merge.Datapath{}
	nu, unitsNil := d.Len(4) // kind, ops, class, bit
	if !unitsNil {
		dp.Units = make([]merge.Unit, nu)
	}
	for i := range dp.Units {
		u := &dp.Units[i]
		u.Kind = merge.UnitKind(d.Byte())
		if no, opsNil := d.Len(1); !opsNil {
			u.Ops = make([]ir.Op, no)
			for j := range u.Ops {
				u.Ops[j] = ir.Op(d.Byte())
			}
		}
		u.Class = d.Str()
		u.Bit = d.Bool()
	}
	if nw, wiresNil := d.Len(3); !wiresNil {
		dp.Wires = make([]merge.Wire, nw)
		for i := range dp.Wires {
			w := merge.Wire{From: d.Int(), To: d.Int(), Port: d.Int()}
			// The spec and pipelining rebuilt from the datapath index
			// units by wire endpoint: reject dangling wires here.
			if w.From < 0 || w.From >= nu || w.To < 0 || w.To >= nu || w.Port < 0 {
				d.Failf("dangling datapath wire %d->%d", w.From, w.To)
			}
			dp.Wires[i] = w
		}
	}
	if ns, sourcesNil := d.Len(1); !sourcesNil {
		dp.Sources = make([]string, ns)
		for i := range dp.Sources {
			dp.Sources[i] = d.Str()
		}
	}
	return dp
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K ~int, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// nodeRefIntMap serializes a map[ir.NodeRef]int in sorted key order.
func encodeNodeRefIntMap(e *wire.Enc, m map[ir.NodeRef]int) {
	e.Len(len(m), m == nil)
	for _, k := range sortedKeys(m) {
		e.Int(int(k))
		e.Int(m[k])
	}
}

func decodeNodeRefIntMap(d *wire.Dec) map[ir.NodeRef]int {
	n, isNil := d.Len(2)
	if isNil {
		return nil
	}
	m := make(map[ir.NodeRef]int, n)
	for i := 0; i < n; i++ {
		k := ir.NodeRef(d.Int())
		m[k] = d.Int()
	}
	return m
}

func encodeConfig(e *wire.Enc, c pe.Config) {
	// PortSel keyed by [2]int{unit, port}.
	pkeys := make([][2]int, 0, len(c.PortSel))
	for k := range c.PortSel {
		pkeys = append(pkeys, k)
	}
	sort.Slice(pkeys, func(i, j int) bool {
		if pkeys[i][0] != pkeys[j][0] {
			return pkeys[i][0] < pkeys[j][0]
		}
		return pkeys[i][1] < pkeys[j][1]
	})
	e.Len(len(pkeys), c.PortSel == nil)
	for _, k := range pkeys {
		e.Int(k[0])
		e.Int(k[1])
		e.Int(c.PortSel[k])
	}
	e.Len(len(c.OpSel), c.OpSel == nil)
	for _, k := range sortedKeys(c.OpSel) {
		e.Int(k)
		e.Byte(byte(c.OpSel[k]))
	}
	e.Len(len(c.ConstVals), c.ConstVals == nil)
	for _, k := range sortedKeys(c.ConstVals) {
		e.Int(k)
		e.Uvarint(uint64(c.ConstVals[k]))
	}
	e.Len(len(c.OutSel), c.OutSel == nil)
	for _, k := range sortedKeys(c.OutSel) {
		e.Int(k)
		e.Int(c.OutSel[k])
	}
}

func decodeConfig(d *wire.Dec) pe.Config {
	c := pe.NewConfig()
	if n, isNil := d.Len(3); isNil {
		c.PortSel = nil
	} else {
		for i := 0; i < n; i++ {
			u, p := d.Int(), d.Int()
			c.PortSel[[2]int{u, p}] = d.Int()
		}
	}
	if n, isNil := d.Len(2); isNil {
		c.OpSel = nil
	} else {
		for i := 0; i < n; i++ {
			u := d.Int()
			c.OpSel[u] = ir.Op(d.Byte())
		}
	}
	if n, isNil := d.Len(2); isNil {
		c.ConstVals = nil
	} else {
		for i := 0; i < n; i++ {
			u := d.Int()
			c.ConstVals[u] = uint16(d.Uvarint())
		}
	}
	if n, isNil := d.Len(2); isNil {
		c.OutSel = nil
	} else {
		for i := 0; i < n; i++ {
			u := d.Int()
			c.OutSel[u] = d.Int()
		}
	}
	return c
}

func encodeRule(e *wire.Enc, r *rewrite.Rule) {
	e.String(r.Name)
	encodeIRGraph(e, r.Pattern)
	e.Int(int(r.Root))
	encodeConfig(e, r.Config)
	encodeNodeRefIntMap(e, r.InputPorts)
	encodeNodeRefIntMap(e, r.BitPorts)
	encodeNodeRefIntMap(e, r.ConstRegs)
	encodeNodeRefIntMap(e, r.LUTUnits)
	e.Int(r.OutUnit)
	e.Len(len(r.Ops), r.Ops == nil)
	for _, op := range r.Ops {
		e.Byte(byte(op))
	}
	e.Int(r.Size)
}

// decodeRule reads one rule and validates it against spec: a rule that
// parses but names units or pattern nodes outside its PE is an error.
func decodeRule(d *wire.Dec, spec *pe.Spec) *rewrite.Rule {
	r := &rewrite.Rule{Name: d.Str(), Spec: spec}
	r.Pattern = decodeIRGraph(d)
	r.Root = ir.NodeRef(d.Int())
	r.Config = decodeConfig(d)
	r.InputPorts = decodeNodeRefIntMap(d)
	r.BitPorts = decodeNodeRefIntMap(d)
	r.ConstRegs = decodeNodeRefIntMap(d)
	r.LUTUnits = decodeNodeRefIntMap(d)
	r.OutUnit = d.Int()
	if nops, opsNil := d.Len(1); !opsNil {
		r.Ops = make([]ir.Op, nops)
		for i := range r.Ops {
			r.Ops[i] = ir.Op(d.Byte())
		}
	}
	r.Size = d.Int()
	if d.Err() == nil {
		if err := r.Validate(); err != nil {
			d.Failf("%v", err)
		}
	}
	return r
}

// EncodeVariant serializes a PE variant: name, baseline flag, merged
// datapath, and the synthesized rule set.
func EncodeVariant(v *core.PEVariant) []byte {
	e := &wire.Enc{}
	e.String(v.Name)
	e.Bool(v.Baseline)
	encodeDatapath(e, v.Spec.DP)
	e.Len(len(v.Rules.Rules), v.Rules.Rules == nil)
	for _, r := range v.Rules.Rules {
		encodeRule(e, r)
	}
	e.Len(len(v.Rules.Failed), v.Rules.Failed == nil)
	for _, f := range v.Rules.Failed {
		e.String(f)
	}
	return e.Buf
}

// DecodeVariant is the inverse of EncodeVariant. The Spec is rebuilt
// from the stored datapath and the pipelining from the rebuilt spec
// under the given technology model — both deterministic, so a decoded
// variant is indistinguishable from a freshly generated one. Every rule
// must pass rewrite.Rule.Validate against the rebuilt spec.
func DecodeVariant(data []byte, m *tech.Model) (*core.PEVariant, error) {
	d := wire.NewDec(data)
	name := d.Str()
	baseline := d.Bool()
	dp := decodeDatapath(d)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("store: decode variant: %w", err)
	}
	spec := pe.FromDatapath(name, dp)
	rules := &rewrite.RuleSet{Spec: spec}
	if nr, rulesNil := d.Len(1); !rulesNil {
		rules.Rules = make([]*rewrite.Rule, 0, nr)
		for i := 0; i < nr; i++ {
			rules.Rules = append(rules.Rules, decodeRule(d, spec))
		}
	}
	if nf, failedNil := d.Len(1); !failedNil {
		rules.Failed = make([]string, nf)
		for i := range rules.Failed {
			rules.Failed[i] = d.Str()
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("store: decode variant: %w", err)
	}
	return &core.PEVariant{
		Name:      name,
		Spec:      spec,
		Pipelined: pipeline.PipelinePE(spec, m, pipeline.Options{}),
		Rules:     rules,
		Baseline:  baseline,
	}, nil
}

// --- core.Result ------------------------------------------------------

// EncodeResult serializes the reported scalars of an evaluation result.
// The Mapped/Balanced/Routing artifacts are not stored (see the package
// comment); Routed preserves the ok-vs-estimate provenance the tables
// report.
func EncodeResult(r *core.Result) []byte {
	e := &wire.Enc{}
	e.String(r.App)
	e.String(r.Variant)
	for _, v := range []int{r.NumPEs, r.NumMems, r.NumRFs, r.NumIOs, r.NumRegs, r.RoutingTiles} {
		e.Int(v)
	}
	for _, v := range []float64{r.PECoreArea, r.TotalPEArea, r.SBArea, r.CBArea, r.MemArea, r.RFArea,
		r.TotalArea, r.PEEnergy, r.SBEnergy, r.CBEnergy, r.MemEnergy, r.TotalEnergy} {
		e.Float64(v)
	}
	e.Int(r.PELatency)
	e.Float64(r.PeriodPS)
	e.Int(r.LatencyCyc)
	e.Float64(r.CyclesPerRun)
	e.Float64(r.RuntimeMS)
	e.Float64(r.PerfPerMM2)
	e.Bool(r.Routed)
	e.Bool(r.Degraded)
	e.String(r.DegradedReason)
	e.Int(r.PnRAttempts)
	return e.Buf
}

// DecodeResult is the inverse of EncodeResult.
func DecodeResult(data []byte) (*core.Result, error) {
	d := wire.NewDec(data)
	r := &core.Result{App: d.Str(), Variant: d.Str()}
	for _, p := range []*int{&r.NumPEs, &r.NumMems, &r.NumRFs, &r.NumIOs, &r.NumRegs, &r.RoutingTiles} {
		*p = d.Int()
	}
	for _, p := range []*float64{&r.PECoreArea, &r.TotalPEArea, &r.SBArea, &r.CBArea, &r.MemArea, &r.RFArea,
		&r.TotalArea, &r.PEEnergy, &r.SBEnergy, &r.CBEnergy, &r.MemEnergy, &r.TotalEnergy} {
		*p = d.Float64()
	}
	r.PELatency = d.Int()
	r.PeriodPS = d.Float64()
	r.LatencyCyc = d.Int()
	r.CyclesPerRun = d.Float64()
	r.RuntimeMS = d.Float64()
	r.PerfPerMM2 = d.Float64()
	r.Routed = d.Bool()
	r.Degraded = d.Bool()
	r.DegradedReason = d.Str()
	r.PnRAttempts = d.Int()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("store: decode result: %w", err)
	}
	return r, nil
}
