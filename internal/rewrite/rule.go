// Package rewrite implements compiler generation for APEX PEs: rewrite
// rule synthesis (paper Section 4.1.1) and instruction selection (Section
// 4.1.2).
//
// The paper synthesizes rules with an SMT query (does a configuration x
// exist such that for all inputs y, PE(x, y) = Op(y)?) solved by
// Boolector. This reproduction decides the same question by structural
// search over the finite configuration space — match the operation pattern
// onto the datapath respecting unit classes, ports, and wires — and then
// *proves* the found configuration correct on the PE's formal model:
// the canonical symbolic expression of the configured datapath must equal
// the pattern's, and randomized simulation cross-checks the functional
// model. Both sides of the paper's flow (existence search + semantic
// proof) are preserved; only the proof engine differs.
package rewrite

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/pe"
)

// Rule is a synthesized rewrite rule: how to configure the PE to execute
// one operation pattern.
type Rule struct {
	Name    string
	Spec    *pe.Spec
	Pattern *ir.Graph
	Root    ir.NodeRef
	// Config holds port/op/output selections. Constant unit values are
	// bound per application site (pattern constants are parameters).
	Config pe.Config
	// InputPorts maps pattern input nodes to PE data-input positions;
	// BitPorts maps pattern 1-bit inputs to PE bit-input positions.
	InputPorts map[ir.NodeRef]int
	BitPorts   map[ir.NodeRef]int
	// ConstRegs maps pattern constant nodes to constant unit indices.
	ConstRegs map[ir.NodeRef]int
	// LUTUnits maps pattern LUT nodes to their functional units; the LUT
	// truth table is a per-site parameter like constant values.
	LUTUnits map[ir.NodeRef]int
	// OutUnit is the PE output unit carrying the result.
	OutUnit int
	// Ops lists the operations the rule exercises (for energy roll-ups).
	Ops []ir.Op
	// Size is the number of compute nodes covered (mapping priority).
	Size int
}

// String renders a compact description.
func (r *Rule) String() string {
	return fmt.Sprintf("rule %s (size %d, %d inputs)", r.Name, r.Size, len(r.InputPorts))
}

// Validate checks that the rule is consistent with its Spec: the pattern
// is a valid graph, Root and every pattern node the port and register
// maps name exist, every PE position and unit index they and OutUnit
// name is in range, and the configuration is legal for the spec. A
// synthesized rule always passes; the store runs it on decoded rules so
// a tampered entry is an error, not an out-of-range index later.
func (r *Rule) Validate() error {
	if err := r.Pattern.Validate(); err != nil {
		return fmt.Errorf("rewrite: rule %s: %w", r.Name, err)
	}
	nodes, units := len(r.Pattern.Nodes), len(r.Spec.DP.Units)
	in := func(i, n int) bool { return i >= 0 && i < n }
	if !in(int(r.Root), nodes) || !in(r.OutUnit, units) {
		return fmt.Errorf("rewrite: rule %s: root %d or output unit %d out of range", r.Name, r.Root, r.OutUnit)
	}
	for _, m := range []struct {
		refs map[ir.NodeRef]int
		n    int
	}{
		{r.InputPorts, len(r.Spec.Inputs)},
		{r.BitPorts, len(r.Spec.InputsB)},
		{r.ConstRegs, units},
		{r.LUTUnits, units},
	} {
		for ref, i := range m.refs {
			if !in(int(ref), nodes) || !in(i, m.n) {
				return fmt.Errorf("rewrite: rule %s: binding %d -> %d out of range", r.Name, ref, i)
			}
		}
	}
	for u := range r.Config.ConstVals {
		if !in(u, units) {
			return fmt.Errorf("rewrite: rule %s: constant for unit %d out of range", r.Name, u)
		}
	}
	if err := r.Spec.Validate(r.Config); err != nil {
		return fmt.Errorf("rewrite: rule %s: %w", r.Name, err)
	}
	return nil
}

// patternRoot finds the single result node of a pattern graph: the node
// feeding its first output.
func patternRoot(g *ir.Graph) (ir.NodeRef, error) {
	outs := g.Outputs()
	if len(outs) == 0 {
		return -1, fmt.Errorf("rewrite: pattern has no output")
	}
	if len(outs) > 1 {
		return -1, fmt.Errorf("rewrite: pattern has %d outputs; rules are single-output", len(outs))
	}
	return g.Nodes[outs[0]].Args[0], nil
}

// SynthesizeRule searches the PE configuration space for an implementation
// of the pattern; it returns nil (no error) when the PE cannot implement
// the pattern. The search is complete over the structural configuration
// space: it backtracks through every consistent assignment of pattern
// nodes to units and operands to wires (continuation-passing, so interior
// choices are revisited when later constraints fail), and the final
// verification runs inside the search — a configuration that matches
// structurally but fails the formal check sends the search onward.
func SynthesizeRule(spec *pe.Spec, pattern *ir.Graph, name string) (*Rule, error) {
	root, err := patternRoot(pattern)
	if err != nil {
		return nil, err
	}
	st := newSynthState(spec, pattern)
	var found *Rule
	// The root must reach some output unit.
	for _, out := range spec.Outputs {
		for _, drv := range spec.PortSources(out, 0) {
			out, drv := out, drv
			ok := st.bind(root, drv, func() bool {
				rule, ok := st.finish(name, root, out, drv)
				if ok {
					found = rule
				}
				return ok
			})
			if ok {
				return found, nil
			}
			if st.steps > maxSynthSteps {
				return nil, nil // budget exhausted; treat as not implementable
			}
		}
	}
	return nil, nil
}

// maxSynthSteps bounds the structural search (generous: realistic
// patterns finish in far fewer steps).
const maxSynthSteps = 2_000_000

type synthState struct {
	spec      *pe.Spec
	pat       *ir.Graph
	mapFU     map[ir.NodeRef]int
	usedFU    map[int]bool
	mapConst  map[ir.NodeRef]int
	usedConst map[int]bool
	mapIn     map[ir.NodeRef]int // pattern input node -> unit index
	usedIn    map[int]bool
	portSel   map[[2]int]int
	steps     int
	ver       ruleVerifier // reused by every candidate the search verifies
}

func newSynthState(spec *pe.Spec, pattern *ir.Graph) *synthState {
	return &synthState{
		spec:      spec,
		pat:       pattern,
		mapFU:     map[ir.NodeRef]int{},
		usedFU:    map[int]bool{},
		mapConst:  map[ir.NodeRef]int{},
		usedConst: map[int]bool{},
		mapIn:     map[ir.NodeRef]int{},
		usedIn:    map[int]bool{},
		portSel:   map[[2]int]int{},
	}
}

// bind tries to map pattern node v onto datapath unit u and then invokes
// cont; it explores every consistent way to bind v's operand subtree,
// calling cont for each, and undoes all bindings before returning false.
func (s *synthState) bind(v ir.NodeRef, u int, cont func() bool) bool {
	s.steps++
	if s.steps > maxSynthSteps {
		return false
	}
	n := &s.pat.Nodes[v]
	unit := &s.spec.DP.Units[u]

	bindLeaf := func(m map[ir.NodeRef]int, used map[int]bool) bool {
		if prev, ok := m[v]; ok {
			if prev != u {
				return false
			}
			return cont()
		}
		if used[u] {
			return false
		}
		m[v] = u
		used[u] = true
		if cont() {
			return true
		}
		delete(m, v)
		delete(used, u)
		return false
	}

	switch n.Op {
	case ir.OpConst:
		if unit.Kind != merge.UnitConst || unit.Bit {
			return false
		}
		return bindLeaf(s.mapConst, s.usedConst)
	case ir.OpConstB:
		if unit.Kind != merge.UnitConst || !unit.Bit {
			return false
		}
		return bindLeaf(s.mapConst, s.usedConst)
	case ir.OpInput:
		if unit.Kind != merge.UnitInput {
			return false
		}
		return bindLeaf(s.mapIn, s.usedIn)
	case ir.OpInputB:
		if unit.Kind != merge.UnitInputB {
			return false
		}
		return bindLeaf(s.mapIn, s.usedIn)
	}
	if !n.Op.IsCompute() {
		return false
	}
	if unit.Kind != merge.UnitOp || !unit.SupportsOp(n.Op) {
		return false
	}
	if prev, ok := s.mapFU[v]; ok {
		if prev != u {
			return false
		}
		return cont()
	}
	if s.usedFU[u] {
		return false
	}
	s.mapFU[v] = u
	s.usedFU[u] = true

	// Operand orders to try: identity, plus the swap for commutative
	// 2-operand ops.
	if s.bindArgs(v, u, false, 0, cont) {
		return true
	}
	if n.Op.Commutative() && len(n.Args) == 2 && s.bindArgs(v, u, true, 0, cont) {
		return true
	}
	delete(s.mapFU, v)
	delete(s.usedFU, u)
	return false
}

// bindArgs assigns v's operands (swapped, for a commutative 2-operand
// op, when swap is set) starting at position p to wires feeding unit u,
// invoking cont when all are bound.
func (s *synthState) bindArgs(v ir.NodeRef, u int, swap bool, p int, cont func() bool) bool {
	n := &s.pat.Nodes[v]
	if p == len(n.Args) {
		return cont()
	}
	child := n.Args[p]
	if swap {
		child = n.Args[1-p]
	}
	key := [2]int{u, p}
	for _, src := range s.spec.PortSources(u, p) {
		if prev, had := s.portSel[key]; had && prev != src {
			continue
		}
		_, had := s.portSel[key]
		s.portSel[key] = src
		ok := s.bind(child, src, func() bool {
			return s.bindArgs(v, u, swap, p+1, cont)
		})
		if ok {
			return true
		}
		if !had {
			delete(s.portSel, key)
		}
	}
	return false
}

func copyRefRefIntMap(m map[ir.NodeRef]int) map[ir.NodeRef]int {
	c := make(map[ir.NodeRef]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// finish assembles and verifies the rule after a successful bind; a
// candidate that fails verification sends the search onward.
func (s *synthState) finish(name string, root ir.NodeRef, out, drv int) (*Rule, bool) {
	rule := s.assemble(name, root, out, drv)
	if verifyRule(rule, &s.ver) != nil {
		return nil, false
	}
	return rule, true
}

// assemble builds the candidate rule from the current bindings.
func (s *synthState) assemble(name string, root ir.NodeRef, out, drv int) *Rule {
	cfg := pe.NewConfig()
	for k, v := range s.portSel {
		cfg.PortSel[k] = v
	}
	var ops []ir.Op
	for v, u := range s.mapFU {
		op := s.pat.Nodes[v].Op
		cfg.OpSel[u] = op
		ops = append(ops, op)
		if op == ir.OpLUT {
			cfg.ConstVals[u] = s.pat.Nodes[v].Val
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	cfg.OutSel[out] = drv

	rule := &Rule{
		Name:       name,
		Spec:       s.spec,
		Pattern:    s.pat,
		Root:       root,
		Config:     cfg,
		InputPorts: map[ir.NodeRef]int{},
		BitPorts:   map[ir.NodeRef]int{},
		ConstRegs:  copyRefRefIntMap(s.mapConst),
		LUTUnits:   map[ir.NodeRef]int{},
		OutUnit:    out,
		Ops:        ops,
		Size:       len(s.mapFU),
	}
	for v, u := range s.mapFU {
		if s.pat.Nodes[v].Op == ir.OpLUT {
			rule.LUTUnits[v] = u
		}
	}
	for v, u := range s.mapIn {
		if s.pat.Nodes[v].Op == ir.OpInput {
			rule.InputPorts[v] = indexOf(s.spec.Inputs, u)
		} else {
			rule.BitPorts[v] = indexOf(s.spec.InputsB, u)
		}
	}
	return rule
}

// verifyTrials is the number of randomized simulation trials per rule.
const verifyTrials = 32

// verifyDraws is the fixed random sequence every rule's simulation
// trials draw from: the Int31 stream of rand.NewSource(0xA9E5), computed
// once and extended when a rule needs more draws than any before it.
// Extending never rewrites a drawn value, so a prefix handed out earlier
// stays valid.
var verifyDraws struct {
	mu   sync.Mutex
	src  rand.Source
	vals []int32
}

// verifyDrawPrefix returns the first n values of the verification
// sequence.
func verifyDrawPrefix(n int) []int32 {
	d := &verifyDraws
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.src == nil {
		d.src = rand.NewSource(0xA9E5)
	}
	for len(d.vals) < n {
		d.vals = append(d.vals, int32(d.src.Int63()>>32))
	}
	return d.vals[:n:n]
}

// formalCheck requires the configured PE's canonical output expression
// to equal the pattern's.
func formalCheck(r *Rule) error {
	// Build the pattern's expression with the rule's naming: pattern
	// inputs become in<pos>/inb<pos>, pattern constants become c<unit>.
	rename := map[string]string{}
	for v, pos := range r.InputPorts {
		rename[r.Pattern.Nodes[v].Name] = fmt.Sprintf("in%d", pos)
	}
	for v, pos := range r.BitPorts {
		rename[r.Pattern.Nodes[v].Name] = fmt.Sprintf("inb%d", pos)
	}
	patExpr, err := patternExpr(r.Pattern, r.Root, rename, r.ConstRegs)
	if err != nil {
		return err
	}
	peExprs, err := r.Spec.SymbolicEval(r.Config, false)
	if err != nil {
		return err
	}
	peExpr := peExprs[r.OutUnit]
	if peExpr == nil {
		return fmt.Errorf("rewrite: configured PE produced no output expression")
	}
	if peExpr.Key() != patExpr.Key() {
		return fmt.Errorf("rewrite: formal mismatch: PE %s vs pattern %s", peExpr, patExpr)
	}
	return nil
}

// ruleVerifier is the reusable working state of rule verification. The
// simulation trials evaluate the pattern straight into a value slice
// indexed by pattern node and the PE through index-addressed unit
// values, so after the per-rule setup (the leaf list, the evaluation
// order, one configuration clone) a trial allocates nothing.
type ruleVerifier struct {
	leaves  []ruleLeaf   // bound pattern leaves, ascending node order
	order   []ir.NodeRef // compute nodes feeding the root, producers first
	seen    []bool       // per pattern node, while building order
	patVals []uint16     // per pattern node
	in      []uint16     // per PE data input
	bits    []uint16     // per PE bit input
	uv      pe.UnitValues
}

// ruleLeaf is one pattern leaf the trials randomize: a data input (port
// is its PE data-input position), a bit input (PE bit-input position),
// or a constant parameter (port is its constant unit).
type ruleLeaf struct {
	node ir.NodeRef
	kind ir.Op // OpInput, OpInputB, OpConst or OpConstB
	port int
}

// verifyRule proves the configuration implements the pattern: canonical
// symbolic equality on the formal model, then randomized simulation on
// the functional model. v is reusable working state.
func verifyRule(r *Rule, v *ruleVerifier) error {
	if err := formalCheck(r); err != nil {
		return err
	}
	if err := r.Pattern.Err(); err != nil {
		return err
	}
	v.prepare(r)
	// The configuration is cloned once; each trial overwrites the same
	// constant-unit entries. LUT immediates stay as the rule set them.
	cfg := r.Config.Clone()
	draws := verifyDrawPrefix(verifyTrials * len(v.leaves))
	for trial := 0; trial < verifyTrials; trial++ {
		v.drawTrial(cfg, draws[trial*len(v.leaves):])
		want := v.evalPattern(r.Pattern)[r.Root]
		got, err := r.Spec.Evaluate(cfg, v.in, v.bits, &v.uv)
		if err != nil {
			return err
		}
		if got[r.OutUnit] != want {
			return fmt.Errorf("rewrite: simulation mismatch: PE %d vs pattern %d", got[r.OutUnit], want)
		}
	}
	return nil
}

// prepare lists r's randomized leaves in ascending pattern-node order —
// so a rule's trial inputs never depend on map iteration — and the
// evaluation order of the compute nodes feeding its root.
func (v *ruleVerifier) prepare(r *Rule) {
	nodes := r.Pattern.Nodes
	v.leaves = v.leaves[:0]
	for i := range nodes {
		ref := ir.NodeRef(i)
		if pos, ok := r.InputPorts[ref]; ok {
			v.leaves = append(v.leaves, ruleLeaf{ref, ir.OpInput, pos})
		} else if pos, ok := r.BitPorts[ref]; ok {
			v.leaves = append(v.leaves, ruleLeaf{ref, ir.OpInputB, pos})
		} else if cu, ok := r.ConstRegs[ref]; ok {
			v.leaves = append(v.leaves, ruleLeaf{ref, nodes[i].Op, cu})
		}
	}
	v.seen = resize(v.seen, len(nodes))
	clear(v.seen)
	v.order = v.order[:0]
	v.visit(nodes, r.Root)
	v.patVals = resize(v.patVals, len(nodes))
	for i := range nodes {
		v.patVals[i] = nodes[i].Val // unbound leaves keep their immediates
	}
	v.in = resize(v.in, r.Spec.NumDataInputs())
	clear(v.in)
	v.bits = resize(v.bits, r.Spec.NumBitInputs())
	clear(v.bits)
}

// visit appends the compute nodes feeding x (x included) to v.order in
// post-order.
func (v *ruleVerifier) visit(nodes []ir.Node, x ir.NodeRef) {
	if v.seen[x] || !nodes[x].Op.IsCompute() {
		return
	}
	v.seen[x] = true
	for _, a := range nodes[x].Args {
		v.visit(nodes, a)
	}
	v.order = append(v.order, x)
}

// drawTrial assigns one trial's values to the leaves, in leaf order,
// from draws: a word input or constant takes the low 16 bits of its
// draw, a bit input or 1-bit constant the low bit.
func (v *ruleVerifier) drawTrial(cfg pe.Config, draws []int32) {
	for i, l := range v.leaves {
		x := uint16(draws[i] & (1<<16 - 1))
		switch l.kind {
		case ir.OpInput:
			v.in[l.port] = x
		case ir.OpInputB:
			x &= 1
			v.bits[l.port] = x
		case ir.OpConst:
			cfg.ConstVals[l.port] = x
		case ir.OpConstB:
			x &= 1
			cfg.ConstVals[l.port] = x
		}
		v.patVals[l.node] = x
	}
}

// evalPattern evaluates the pattern's compute nodes on the leaf values
// drawn into v.patVals and returns them, indexed by pattern node.
func (v *ruleVerifier) evalPattern(g *ir.Graph) []uint16 {
	var buf [3]uint16 // ir ops take at most three operands
	for _, x := range v.order {
		n := &g.Nodes[x]
		args := buf[:len(n.Args)]
		for i, a := range n.Args {
			args[i] = v.patVals[a]
		}
		v.patVals[x] = ir.EvalOp(n.Op, args, n.Val)
	}
	return v.patVals
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// patternExpr computes the canonical expression of the pattern rooted at
// root with inputs renamed and constants symbolic per their const unit.
func patternExpr(g *ir.Graph, root ir.NodeRef, rename map[string]string, constRegs map[ir.NodeRef]int) (*ir.Expr, error) {
	memo := map[ir.NodeRef]*ir.Expr{}
	var eval func(v ir.NodeRef) (*ir.Expr, error)
	eval = func(v ir.NodeRef) (*ir.Expr, error) {
		if e, ok := memo[v]; ok {
			return e, nil
		}
		n := &g.Nodes[v]
		var e *ir.Expr
		switch n.Op {
		case ir.OpInput, ir.OpInputB:
			name := n.Name
			if rn, ok := rename[name]; ok {
				name = rn
			}
			e = ir.Var(name)
		case ir.OpConst, ir.OpConstB:
			if cu, ok := constRegs[v]; ok {
				e = ir.Var(fmt.Sprintf("c%d", cu))
			} else {
				e = ir.ConstExpr(n.Val)
			}
		default:
			args := make([]*ir.Expr, len(n.Args))
			for i, a := range n.Args {
				ae, err := eval(a)
				if err != nil {
					return nil, err
				}
				args[i] = ae
			}
			e = ir.Apply(n.Op, n.Val, args...)
		}
		memo[v] = e
		return e, nil
	}
	return eval(root)
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
