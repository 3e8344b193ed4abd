package store

import (
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/mining"
	"repro/internal/mis"
	"repro/internal/pe"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/internal/tech"
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

func encodeIRGraph(e *enc, g *ir.Graph) {
	e.str(g.Name)
	e.lenN(len(g.Nodes), g.Nodes == nil)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		e.byte(byte(n.Op))
		e.lenN(len(n.Args), n.Args == nil)
		for _, a := range n.Args {
			e.int(int(a))
		}
		e.u16(n.Val)
		e.str(n.Name)
	}
}

func decodeIRGraph(d *dec) *ir.Graph {
	g := &ir.Graph{Name: d.str("ir.name")}
	n, isNil := d.lenN("ir.nodes")
	if d.err != nil || isNil {
		return g
	}
	g.Nodes = make([]ir.Node, n)
	for i := range g.Nodes {
		node := ir.Node{Op: ir.Op(d.byte("ir.op"))}
		na, argsNil := d.lenN("ir.args")
		if !argsNil {
			node.Args = make([]ir.NodeRef, na)
			for j := range node.Args {
				node.Args[j] = ir.NodeRef(d.int("ir.arg"))
			}
		}
		node.Val = d.u16("ir.val")
		node.Name = d.str("ir.nodename")
		g.Nodes[i] = node
	}
	return g
}

// --- graph.Graph / embeddings ----------------------------------------

func encodeGraph(e *enc, g *graph.Graph) { e.buf = g.AppendBinary(e.buf) }

func decodeGraph(d *dec) *graph.Graph {
	if d.err != nil {
		return nil
	}
	g, rest, err := graph.DecodeBinaryGraph(d.data)
	if err != nil {
		d.err = err
		return nil
	}
	d.data = rest
	return g
}

func encodeEmbeddings(e *enc, l *graph.EmbeddingList) { e.buf = l.AppendBinary(e.buf) }

func decodeEmbeddings(d *dec) *graph.EmbeddingList {
	if d.err != nil {
		return nil
	}
	l, rest, err := graph.DecodeBinaryEmbeddingList(d.data)
	if err != nil {
		d.err = err
		return nil
	}
	d.data = rest
	return l
}

// --- core.Analysis ----------------------------------------------------

// EncodeAnalysis serializes a mined analysis.
func EncodeAnalysis(a *core.Analysis) []byte {
	e := &enc{}
	encodeGraph(e, a.View)
	e.lenN(len(a.Ranked), a.Ranked == nil)
	for i := range a.Ranked {
		r := &a.Ranked[i]
		encodeGraph(e, r.Pattern.Graph)
		e.str(r.Pattern.Code)
		encodeEmbeddings(e, r.Pattern.Embeddings)
		e.int(r.Pattern.Support)
		e.lenN(len(r.Occurrences), r.Occurrences == nil)
		for _, occ := range r.Occurrences {
			e.lenN(len(occ), occ == nil)
			for _, v := range occ {
				e.int(int(v))
			}
		}
		e.int(r.MISSize)
		e.ints(r.Independent)
		e.bool(r.Exact)
	}
	return e.buf
}

// DecodeAnalysis is the inverse of EncodeAnalysis.
func DecodeAnalysis(data []byte) (*core.Analysis, error) {
	d := &dec{data: data}
	a := &core.Analysis{View: decodeGraph(d)}
	n, rankedNil := d.lenN("analysis.ranked")
	if !rankedNil {
		a.Ranked = make([]mis.Ranked, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		r := mis.Ranked{
			Pattern: mining.Pattern{
				Graph: decodeGraph(d),
			},
		}
		r.Pattern.Code = d.str("pattern.code")
		r.Pattern.Embeddings = decodeEmbeddings(d)
		r.Pattern.Support = d.int("pattern.support")
		no, occsNil := d.lenN("ranked.occurrences")
		if !occsNil {
			r.Occurrences = make([]graph.Embedding, no)
			for j := range r.Occurrences {
				k, occNil := d.lenN("occurrence")
				if occNil {
					continue
				}
				occ := make(graph.Embedding, k)
				for p := range occ {
					occ[p] = graph.NodeID(d.int("occurrence.node"))
				}
				r.Occurrences[j] = occ
			}
		}
		r.MISSize = d.int("ranked.mis")
		r.Independent = d.ints("ranked.independent")
		r.Exact = d.bool("ranked.exact")
		a.Ranked[i] = r
	}
	if err := d.finish("analysis"); err != nil {
		return nil, err
	}
	return a, nil
}

// --- core.PEVariant ---------------------------------------------------

func encodeDatapath(e *enc, dp *merge.Datapath) {
	e.lenN(len(dp.Units), dp.Units == nil)
	for i := range dp.Units {
		u := &dp.Units[i]
		e.byte(byte(u.Kind))
		e.lenN(len(u.Ops), u.Ops == nil)
		for _, op := range u.Ops {
			e.byte(byte(op))
		}
		e.str(u.Class)
		e.bool(u.Bit)
	}
	e.lenN(len(dp.Wires), dp.Wires == nil)
	for _, w := range dp.Wires {
		e.int(w.From)
		e.int(w.To)
		e.int(w.Port)
	}
	e.lenN(len(dp.Sources), dp.Sources == nil)
	for _, s := range dp.Sources {
		e.str(s)
	}
}

func decodeDatapath(d *dec) *merge.Datapath {
	dp := &merge.Datapath{}
	nu, unitsNil := d.lenN("dp.units")
	if !unitsNil {
		dp.Units = make([]merge.Unit, nu)
	}
	for i := 0; i < nu && d.err == nil; i++ {
		u := merge.Unit{Kind: merge.UnitKind(d.byte("unit.kind"))}
		no, opsNil := d.lenN("unit.ops")
		if !opsNil {
			u.Ops = make([]ir.Op, no)
			for j := range u.Ops {
				u.Ops[j] = ir.Op(d.byte("unit.op"))
			}
		}
		u.Class = d.str("unit.class")
		u.Bit = d.bool("unit.bit")
		dp.Units[i] = u
	}
	nw, wiresNil := d.lenN("dp.wires")
	if !wiresNil {
		dp.Wires = make([]merge.Wire, nw)
		for i := range dp.Wires {
			w := merge.Wire{From: d.int("wire.from"), To: d.int("wire.to"), Port: d.int("wire.port")}
			// The spec and pipelining rebuilt from the datapath index
			// units by wire endpoint: reject dangling wires here.
			if w.From < 0 || w.From >= nu || w.To < 0 || w.To >= nu || w.Port < 0 {
				d.fail("wire")
			}
			dp.Wires[i] = w
		}
	}
	ns, sourcesNil := d.lenN("dp.sources")
	if !sourcesNil {
		dp.Sources = make([]string, ns)
		for i := range dp.Sources {
			dp.Sources[i] = d.str("dp.source")
		}
	}
	return dp
}

// nodeRefIntMap serializes a map[ir.NodeRef]int in sorted key order.
func encodeNodeRefIntMap(e *enc, m map[ir.NodeRef]int) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	e.lenN(len(keys), m == nil)
	for _, k := range keys {
		e.int(k)
		e.int(m[ir.NodeRef(k)])
	}
}

func decodeNodeRefIntMap(d *dec, what string) map[ir.NodeRef]int {
	n, isNil := d.lenN(what)
	if isNil {
		return nil
	}
	m := make(map[ir.NodeRef]int, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.int(what)
		m[ir.NodeRef(k)] = d.int(what)
	}
	return m
}

func encodeConfig(e *enc, c pe.Config) {
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
	e.lenN(len(pkeys), c.PortSel == nil)
	for _, k := range pkeys {
		e.int(k[0])
		e.int(k[1])
		e.int(c.PortSel[k])
	}
	ikeys := make([]int, 0, len(c.OpSel))
	for k := range c.OpSel {
		ikeys = append(ikeys, k)
	}
	sort.Ints(ikeys)
	e.lenN(len(ikeys), c.OpSel == nil)
	for _, k := range ikeys {
		e.int(k)
		e.byte(byte(c.OpSel[k]))
	}
	ckeys := make([]int, 0, len(c.ConstVals))
	for k := range c.ConstVals {
		ckeys = append(ckeys, k)
	}
	sort.Ints(ckeys)
	e.lenN(len(ckeys), c.ConstVals == nil)
	for _, k := range ckeys {
		e.int(k)
		e.u16(c.ConstVals[k])
	}
	okeys := make([]int, 0, len(c.OutSel))
	for k := range c.OutSel {
		okeys = append(okeys, k)
	}
	sort.Ints(okeys)
	e.lenN(len(okeys), c.OutSel == nil)
	for _, k := range okeys {
		e.int(k)
		e.int(c.OutSel[k])
	}
}

func decodeConfig(d *dec) pe.Config {
	c := pe.NewConfig()
	if n, isNil := d.lenN("config.portsel"); isNil {
		c.PortSel = nil
	} else {
		for i := 0; i < n && d.err == nil; i++ {
			u, p := d.int("portsel.unit"), d.int("portsel.port")
			c.PortSel[[2]int{u, p}] = d.int("portsel.src")
		}
	}
	if n, isNil := d.lenN("config.opsel"); isNil {
		c.OpSel = nil
	} else {
		for i := 0; i < n && d.err == nil; i++ {
			u := d.int("opsel.unit")
			c.OpSel[u] = ir.Op(d.byte("opsel.op"))
		}
	}
	if n, isNil := d.lenN("config.constvals"); isNil {
		c.ConstVals = nil
	} else {
		for i := 0; i < n && d.err == nil; i++ {
			u := d.int("constvals.unit")
			c.ConstVals[u] = d.u16("constvals.val")
		}
	}
	if n, isNil := d.lenN("config.outsel"); isNil {
		c.OutSel = nil
	} else {
		for i := 0; i < n && d.err == nil; i++ {
			u := d.int("outsel.unit")
			c.OutSel[u] = d.int("outsel.src")
		}
	}
	return c
}

func encodeRule(e *enc, r *rewrite.Rule) {
	e.str(r.Name)
	encodeIRGraph(e, r.Pattern)
	e.int(int(r.Root))
	encodeConfig(e, r.Config)
	encodeNodeRefIntMap(e, r.InputPorts)
	encodeNodeRefIntMap(e, r.BitPorts)
	encodeNodeRefIntMap(e, r.ConstRegs)
	encodeNodeRefIntMap(e, r.LUTUnits)
	e.int(r.OutUnit)
	e.lenN(len(r.Ops), r.Ops == nil)
	for _, op := range r.Ops {
		e.byte(byte(op))
	}
	e.int(r.Size)
}

func decodeRule(d *dec, spec *pe.Spec) *rewrite.Rule {
	r := &rewrite.Rule{Name: d.str("rule.name"), Spec: spec}
	r.Pattern = decodeIRGraph(d)
	r.Root = ir.NodeRef(d.int("rule.root"))
	r.Config = decodeConfig(d)
	r.InputPorts = decodeNodeRefIntMap(d, "rule.inputports")
	r.BitPorts = decodeNodeRefIntMap(d, "rule.bitports")
	r.ConstRegs = decodeNodeRefIntMap(d, "rule.constregs")
	r.LUTUnits = decodeNodeRefIntMap(d, "rule.lutunits")
	r.OutUnit = d.int("rule.outunit")
	nops, opsNil := d.lenN("rule.ops")
	if !opsNil {
		r.Ops = make([]ir.Op, nops)
		for i := range r.Ops {
			r.Ops[i] = ir.Op(d.byte("rule.op"))
		}
	}
	r.Size = d.int("rule.size")
	return r
}

// EncodeVariant serializes a PE variant: name, baseline flag, merged
// datapath, and the synthesized rule set.
func EncodeVariant(v *core.PEVariant) []byte {
	e := &enc{}
	e.str(v.Name)
	e.bool(v.Baseline)
	encodeDatapath(e, v.Spec.DP)
	e.lenN(len(v.Rules.Rules), v.Rules.Rules == nil)
	for _, r := range v.Rules.Rules {
		encodeRule(e, r)
	}
	e.lenN(len(v.Rules.Failed), v.Rules.Failed == nil)
	for _, f := range v.Rules.Failed {
		e.str(f)
	}
	return e.buf
}

// DecodeVariant is the inverse of EncodeVariant. The Spec is rebuilt
// from the stored datapath and the pipelining from the rebuilt spec
// under the given technology model — both deterministic, so a decoded
// variant is indistinguishable from a freshly generated one.
func DecodeVariant(data []byte, m *tech.Model) (*core.PEVariant, error) {
	d := &dec{data: data}
	name := d.str("variant.name")
	baseline := d.bool("variant.baseline")
	dp := decodeDatapath(d)
	if d.err != nil {
		return nil, d.err
	}
	spec := pe.FromDatapath(name, dp)
	rules := &rewrite.RuleSet{Spec: spec}
	nr, rulesNil := d.lenN("variant.rules")
	if !rulesNil {
		rules.Rules = make([]*rewrite.Rule, 0, nr)
	}
	for i := 0; i < nr && d.err == nil; i++ {
		rules.Rules = append(rules.Rules, decodeRule(d, spec))
	}
	nf, failedNil := d.lenN("variant.failed")
	if !failedNil {
		rules.Failed = make([]string, 0, nf)
	}
	for i := 0; i < nf && d.err == nil; i++ {
		rules.Failed = append(rules.Failed, d.str("variant.failedname"))
	}
	if err := d.finish("variant"); err != nil {
		return nil, err
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
	e := &enc{}
	e.str(r.App)
	e.str(r.Variant)
	e.int(r.NumPEs)
	e.int(r.NumMems)
	e.int(r.NumRFs)
	e.int(r.NumIOs)
	e.int(r.NumRegs)
	e.int(r.RoutingTiles)
	e.f64(r.PECoreArea)
	e.f64(r.TotalPEArea)
	e.f64(r.SBArea)
	e.f64(r.CBArea)
	e.f64(r.MemArea)
	e.f64(r.RFArea)
	e.f64(r.TotalArea)
	e.f64(r.PEEnergy)
	e.f64(r.SBEnergy)
	e.f64(r.CBEnergy)
	e.f64(r.MemEnergy)
	e.f64(r.TotalEnergy)
	e.int(r.PELatency)
	e.f64(r.PeriodPS)
	e.int(r.LatencyCyc)
	e.f64(r.CyclesPerRun)
	e.f64(r.RuntimeMS)
	e.f64(r.PerfPerMM2)
	e.bool(r.Routed)
	e.bool(r.Degraded)
	e.str(r.DegradedReason)
	e.int(r.PnRAttempts)
	return e.buf
}

// DecodeResult is the inverse of EncodeResult.
func DecodeResult(data []byte) (*core.Result, error) {
	d := &dec{data: data}
	r := &core.Result{}
	r.App = d.str("result.app")
	r.Variant = d.str("result.variant")
	r.NumPEs = d.int("result.numpes")
	r.NumMems = d.int("result.nummems")
	r.NumRFs = d.int("result.numrfs")
	r.NumIOs = d.int("result.numios")
	r.NumRegs = d.int("result.numregs")
	r.RoutingTiles = d.int("result.routingtiles")
	r.PECoreArea = d.f64("result.pecorearea")
	r.TotalPEArea = d.f64("result.totalpearea")
	r.SBArea = d.f64("result.sbarea")
	r.CBArea = d.f64("result.cbarea")
	r.MemArea = d.f64("result.memarea")
	r.RFArea = d.f64("result.rfarea")
	r.TotalArea = d.f64("result.totalarea")
	r.PEEnergy = d.f64("result.peenergy")
	r.SBEnergy = d.f64("result.sbenergy")
	r.CBEnergy = d.f64("result.cbenergy")
	r.MemEnergy = d.f64("result.memenergy")
	r.TotalEnergy = d.f64("result.totalenergy")
	r.PELatency = d.int("result.pelatency")
	r.PeriodPS = d.f64("result.periodps")
	r.LatencyCyc = d.int("result.latencycyc")
	r.CyclesPerRun = d.f64("result.cyclesperrun")
	r.RuntimeMS = d.f64("result.runtimems")
	r.PerfPerMM2 = d.f64("result.perfpermm2")
	r.Routed = d.bool("result.routed")
	r.Degraded = d.bool("result.degraded")
	r.DegradedReason = d.str("result.degradedreason")
	r.PnRAttempts = d.int("result.pnrattempts")
	if err := d.finish("result"); err != nil {
		return nil, err
	}
	return r, nil
}
