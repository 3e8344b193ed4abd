package rewrite

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/pe"
)

// NodeKind discriminates mapped-graph nodes (tile-level entities).
type NodeKind uint8

const (
	KindInput NodeKind = iota
	KindInputB
	KindOutput
	KindMem     // memory tile
	KindReg     // pipeline register (lives in the interconnect)
	KindRegFile // register file used as a FIFO (lives in a PE tile)
	KindRom     // constant table in a memory tile
	KindPE      // configured processing element
)

func (k NodeKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindInputB:
		return "inputb"
	case KindOutput:
		return "output"
	case KindMem:
		return "mem"
	case KindReg:
		return "reg"
	case KindRegFile:
		return "regfile"
	case KindRom:
		return "rom"
	case KindPE:
		return "pe"
	}
	return "?"
}

// MNode is one node of the mapped graph.
type MNode struct {
	Kind NodeKind
	Name string // IO name for inputs/outputs

	// PE fields.
	Rule      *Rule
	DataIn    map[int]int    // PE data-input position -> producer node
	BitIn     map[int]int    // PE bit-input position -> producer node
	ConstVals map[int]uint16 // constant unit -> per-site value
	LUTTables map[int]uint16 // LUT functional unit -> per-site table

	// Single-producer fields (mem/reg/regfile/rom/output).
	Arg   int // producer node index, -1 for sources
	Depth int // FIFO depth for KindRegFile
	Val   uint16
}

// Producers returns the indices of all producer nodes feeding n, in
// ascending port-position order. The order must be deterministic: the
// placer and router derive topological order, net enumeration, and
// annealing proposals from it, so map-iteration order here would make
// place-and-route results vary run to run.
func (n *MNode) Producers() []int {
	switch n.Kind {
	case KindPE:
		ps := make([]int, 0, len(n.DataIn)+len(n.BitIn))
		for _, pos := range sortedPositions(n.DataIn) {
			ps = append(ps, n.DataIn[pos])
		}
		for _, pos := range sortedPositions(n.BitIn) {
			ps = append(ps, n.BitIn[pos])
		}
		return ps
	case KindInput, KindInputB:
		return nil
	default:
		if n.Arg < 0 {
			return nil
		}
		return []int{n.Arg}
	}
}

// sortedPositions returns the keys of a position-indexed map in
// ascending order.
func sortedPositions(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Mapped is an application mapped onto a PE architecture: a graph of PE,
// memory, register, and I/O nodes ready for pipelining and place-and-
// route.
type Mapped struct {
	Name  string
	Spec  *pe.Spec
	Nodes []MNode
}

// NumPEs counts PE nodes.
func (m *Mapped) NumPEs() int { return m.countKind(KindPE) }

// NumMems counts memory-tile nodes (mem + rom).
func (m *Mapped) NumMems() int { return m.countKind(KindMem) + m.countKind(KindRom) }

// NumIO counts input and output nodes.
func (m *Mapped) NumIO() int {
	return m.countKind(KindInput) + m.countKind(KindInputB) + m.countKind(KindOutput)
}

// NumRegs counts interconnect pipeline registers.
func (m *Mapped) NumRegs() int { return m.countKind(KindReg) }

// NumRegFiles counts register-file FIFOs.
func (m *Mapped) NumRegFiles() int { return m.countKind(KindRegFile) }

func (m *Mapped) countKind(k NodeKind) int {
	n := 0
	for i := range m.Nodes {
		if m.Nodes[i].Kind == k {
			n++
		}
	}
	return n
}

// Validate checks producer indices and acyclicity.
func (m *Mapped) Validate() error {
	for i := range m.Nodes {
		for _, p := range m.Nodes[i].Producers() {
			if p < 0 || p >= len(m.Nodes) {
				return fmt.Errorf("rewrite: mapped node %d references %d out of range", i, p)
			}
		}
	}
	// Cycle check via DFS.
	state := make([]uint8, len(m.Nodes))
	var visit func(i int) error
	visit = func(i int) error {
		if state[i] == 2 {
			return nil
		}
		if state[i] == 1 {
			return fmt.Errorf("rewrite: mapped graph cycle at node %d", i)
		}
		state[i] = 1
		for _, p := range m.Nodes[i].Producers() {
			if err := visit(p); err != nil {
				return err
			}
		}
		state[i] = 2
		return nil
	}
	for i := range m.Nodes {
		if err := visit(i); err != nil {
			return err
		}
	}
	return nil
}

// TopoOrder returns node indices in dependency order.
func (m *Mapped) TopoOrder() []int {
	state := make([]uint8, len(m.Nodes))
	order := make([]int, 0, len(m.Nodes))
	var visit func(i int)
	visit = func(i int) {
		if state[i] != 0 {
			return
		}
		state[i] = 1
		for _, p := range m.Nodes[i].Producers() {
			visit(p)
		}
		state[i] = 2
		order = append(order, i)
	}
	for i := range m.Nodes {
		visit(i)
	}
	return order
}

// Eval runs the mapped graph's functional model combinationally (memory
// and registers transparent): every PE evaluates its configured spec. The
// result must match the original application graph's Eval — the core
// correctness property of the compiler.
func (m *Mapped) Eval(inputs map[string]uint16) (map[string]uint16, error) {
	vals := make([]uint16, len(m.Nodes))
	outs := map[string]uint16{}
	var uv pe.UnitValues
	for _, i := range m.TopoOrder() {
		n := &m.Nodes[i]
		switch n.Kind {
		case KindInput:
			vals[i] = inputs[n.Name]
		case KindInputB:
			vals[i] = inputs[n.Name] & 1
		case KindMem, KindReg, KindRegFile:
			vals[i] = vals[n.Arg]
		case KindRom:
			vals[i] = ir.EvalOp(ir.OpRom, []uint16{vals[n.Arg]}, n.Val)
		case KindOutput:
			vals[i] = vals[n.Arg]
			outs[n.Name] = vals[i]
		case KindPE:
			v, err := m.EvalPE(n, vals, &uv)
			if err != nil {
				return nil, fmt.Errorf("rewrite: PE node %d (%s): %w", i, n.Rule.Name, err)
			}
			vals[i] = v
		}
	}
	return outs, nil
}

// EvalPE evaluates PE node n of the mapped graph: its rule's
// configuration with the node's per-site constants and LUT tables bound,
// on the values vals (indexed by mapped node) of its producers. uv is the
// evaluator's reusable working state (see pe.UnitValues).
func (m *Mapped) EvalPE(n *MNode, vals []uint16, uv *pe.UnitValues) (uint16, error) {
	cfg := n.Rule.Config.Clone()
	for cu, v := range n.ConstVals {
		cfg.ConstVals[cu] = v
	}
	for fu, tbl := range n.LUTTables {
		cfg.ConstVals[fu] = tbl
	}
	in := make([]uint16, m.Spec.NumDataInputs())
	for pos, p := range n.DataIn {
		in[pos] = vals[p]
	}
	bits := make([]uint16, m.Spec.NumBitInputs())
	for pos, p := range n.BitIn {
		bits[pos] = vals[p]
	}
	res, err := m.Spec.Evaluate(cfg, in, bits, uv)
	if err != nil {
		return 0, err
	}
	return res[n.Rule.OutUnit], nil
}

// match records one committed rule application.
type match struct {
	rule *Rule
	root ir.NodeRef
	// bind maps each pattern node the match uses to its app node, -1 for
	// the rest: compute and constant nodes to the app nodes they absorb,
	// input nodes to the app producers they read.
	bind []ir.NodeRef
}

// MapApp covers the application graph with the rule set's patterns,
// complex rules first (the paper's greedy LLVM-style instruction
// selection), and returns the mapped graph.
func MapApp(app *ir.Graph, rs *RuleSet, name string) (*Mapped, error) {
	m := newMapper(app, rs)
	var matches []*match
	order := reverseTopo(app)
	for _, rule := range rs.Rules {
		rootOp := app0Op(rule)
		for _, av := range order {
			n := &app.Nodes[av]
			if n.Op != rootOp || m.covered[av] != nil {
				continue
			}
			mt := m.tryMatch(rule, av)
			if mt == nil {
				continue
			}
			// Commit.
			matches = append(matches, mt)
			for pv, anode := range mt.bind {
				if anode < 0 {
					continue
				}
				switch op := rule.Pattern.Nodes[pv].Op; {
				case op.IsCompute():
					m.covered[anode] = mt
				case op == ir.OpInput || op == ir.OpInputB:
					if app.Nodes[anode].Op.IsCompute() {
						m.required[anode] = true
					}
				}
			}
		}
	}

	// Every compute node must be covered.
	for i, n := range app.Nodes {
		if n.Op.IsCompute() && m.covered[i] == nil {
			return nil, fmt.Errorf("rewrite: no rule covers node %d (%s) — PE lacks op %s",
				i, n.Op, n.Op)
		}
	}

	return buildMapped(app, m.covered, matches, rs.Spec, name)
}

// mapper is the instruction selector's state for one MapApp call. The
// match search keeps its bindings in two flat slices — bind (pattern
// node → app node) and rev (app node → pattern compute node), -1 for
// unbound — and records every write on an undo trail: backtracking from
// a failed operand order pops the trail back to a mark instead of
// restoring copied maps, and every attempt ends by popping it empty, so
// the scratch is clean for the next one and a failed attempt allocates
// nothing.
type mapper struct {
	app      *ir.Graph
	users    [][]ir.NodeRef
	covered  []*match
	required []bool

	rule  *Rule // the attempt's rule
	root  ir.NodeRef
	bind  []ir.NodeRef
	rev   []ir.NodeRef
	trail []binding
}

// binding is one undo-trail entry: slot at of bind (or of rev) held old.
type binding struct {
	rev bool
	at  ir.NodeRef
	old ir.NodeRef
}

func newMapper(app *ir.Graph, rs *RuleSet) *mapper {
	m := &mapper{
		app:      app,
		users:    make([][]ir.NodeRef, len(app.Nodes)),
		covered:  make([]*match, len(app.Nodes)),
		required: make([]bool, len(app.Nodes)),
		rev:      make([]ir.NodeRef, len(app.Nodes)),
	}
	for i, n := range app.Nodes {
		for _, a := range n.Args {
			m.users[a] = append(m.users[a], ir.NodeRef(i))
		}
		// Values consumed by structural nodes must be exposed on the fabric.
		switch n.Op {
		case ir.OpOutput, ir.OpMem, ir.OpReg, ir.OpRegFileFIFO, ir.OpRom:
			for _, a := range n.Args {
				m.required[a] = true
			}
		}
	}
	maxPattern := 0
	for _, r := range rs.Rules {
		maxPattern = max(maxPattern, len(r.Pattern.Nodes))
	}
	m.bind = make([]ir.NodeRef, maxPattern)
	for i := range m.bind {
		m.bind[i] = -1
	}
	for i := range m.rev {
		m.rev[i] = -1
	}
	return m
}

func app0Op(rule *Rule) ir.Op { return rule.Pattern.Nodes[rule.Root].Op }

func reverseTopo(app *ir.Graph) []ir.NodeRef {
	// Reverse topological: users before producers, so bigger matches
	// claim downstream roots first.
	order := appTopo(app)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// tryMatch attempts to match the rule's pattern rooted at app node av,
// returning the match or nil.
func (m *mapper) tryMatch(rule *Rule, av ir.NodeRef) *match {
	m.rule, m.root = rule, av
	var mt *match
	if m.bindNode(rule.Root, av) && m.closed() {
		bind := m.bind[:len(rule.Pattern.Nodes)]
		mt = &match{rule: rule, root: av, bind: append([]ir.NodeRef(nil), bind...)}
	}
	m.undo(0)
	return mt
}

// set records slot at of bind (or rev) on the trail and overwrites it.
func (m *mapper) set(rev bool, at, val ir.NodeRef) {
	tab := m.bind
	if rev {
		tab = m.rev
	}
	m.trail = append(m.trail, binding{rev: rev, at: at, old: tab[at]})
	tab[at] = val
}

// undo pops the trail back to length mark, restoring each slot.
func (m *mapper) undo(mark int) {
	for len(m.trail) > mark {
		b := m.trail[len(m.trail)-1]
		m.trail = m.trail[:len(m.trail)-1]
		if b.rev {
			m.rev[b.at] = b.old
		} else {
			m.bind[b.at] = b.old
		}
	}
}

// bindNode binds pattern node pv to app node anode and, for a compute
// node, its operand subtree; on failure the bindings are as before.
func (m *mapper) bindNode(pv, anode ir.NodeRef) bool {
	pn := &m.rule.Pattern.Nodes[pv]
	an := &m.app.Nodes[anode]
	switch pn.Op {
	case ir.OpInput, ir.OpInputB:
		// Wildcard: any producer except constants and outputs.
		if an.Op == ir.OpConst || an.Op == ir.OpConstB || an.Op == ir.OpOutput {
			return false
		}
		// The producer's value must be exposable: it must not be
		// interior to another committed match.
		if cm := m.covered[anode]; cm != nil && cm.root != anode {
			return false
		}
		if prev := m.bind[pv]; prev >= 0 {
			return prev == anode
		}
		m.set(false, pv, anode)
		return true
	case ir.OpConst, ir.OpConstB:
		if an.Op != pn.Op {
			return false
		}
		m.set(false, pv, anode)
		return true
	}
	// Compute node.
	if an.Op != pn.Op {
		return false
	}
	if m.covered[anode] != nil {
		return false
	}
	// Interior nodes must be absorbable: not required on the fabric.
	if anode != m.root && m.required[anode] {
		return false
	}
	if prev := m.bind[pv]; prev >= 0 {
		return prev == anode
	}
	if prevP := m.rev[anode]; prevP >= 0 && prevP != pv {
		return false
	}
	m.set(false, pv, anode)
	m.set(true, anode, pv)
	// Operand orders: identity, then the swap for commutative 2-operand
	// ops; a failed order leaves only this node's own binding.
	mark := len(m.trail)
	if m.bindArgs(pn, an, false) {
		return true
	}
	m.undo(mark)
	if pn.Op.Commutative() && len(pn.Args) == 2 {
		if m.bindArgs(pn, an, true) {
			return true
		}
		m.undo(mark)
	}
	m.undo(mark - 2)
	return false
}

// bindArgs binds pattern node pn's operands to app node an's, swapped
// when swap is set.
func (m *mapper) bindArgs(pn, an *ir.Node, swap bool) bool {
	for p, parg := range pn.Args {
		ai := p
		if swap {
			ai = 1 - p
		}
		if !m.bindNode(parg, an.Args[ai]) {
			return false
		}
	}
	return true
}

// closed checks a bound match can be committed: interior compute nodes
// have every user inside the match, and no wildcard operand reads a
// node this very match absorbs as interior (its value would not exist
// on the fabric).
func (m *mapper) closed() bool {
	nodes := m.rule.Pattern.Nodes
	for pv, anode := range m.bind[:len(nodes)] {
		if anode < 0 || anode == m.root {
			continue
		}
		switch op := nodes[pv].Op; {
		case op.IsCompute():
			for _, u := range m.users[anode] {
				if m.rev[u] < 0 {
					return false
				}
			}
		case op == ir.OpInput || op == ir.OpInputB:
			if m.rev[anode] >= 0 {
				return false
			}
		}
	}
	return true
}

// buildMapped materializes the mapped graph from committed matches.
func buildMapped(app *ir.Graph, covered []*match, matches []*match, spec *pe.Spec, name string) (*Mapped, error) {
	m := &Mapped{Name: name, Spec: spec}
	mappedIdx := make([]int, len(app.Nodes))
	for i := range mappedIdx {
		mappedIdx[i] = -1
	}
	// producerIdx resolves an app producer to its mapped node: compute
	// nodes resolve to their match root's PE node.
	producerIdx := func(a ir.NodeRef) (int, error) {
		if app.Nodes[a].Op.IsCompute() {
			cm := covered[a]
			if cm == nil || cm.root != a {
				return -1, fmt.Errorf("rewrite: producer %d is not an exposed root", a)
			}
			a = cm.root
		}
		if mappedIdx[a] < 0 {
			return -1, fmt.Errorf("rewrite: producer %d not yet materialized", a)
		}
		return mappedIdx[a], nil
	}

	topo := appTopo(app)
	for _, av := range topo {
		n := &app.Nodes[av]
		switch n.Op {
		case ir.OpInput:
			mappedIdx[av] = m.add(MNode{Kind: KindInput, Name: n.Name, Arg: -1})
		case ir.OpInputB:
			mappedIdx[av] = m.add(MNode{Kind: KindInputB, Name: n.Name, Arg: -1})
		case ir.OpConst, ir.OpConstB:
			// Constants are absorbed into PE constant registers.
		case ir.OpMem:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(MNode{Kind: KindMem, Arg: p})
		case ir.OpReg:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(MNode{Kind: KindReg, Arg: p})
		case ir.OpRegFileFIFO:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(MNode{Kind: KindRegFile, Arg: p, Depth: int(n.Val)})
		case ir.OpRom:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(MNode{Kind: KindRom, Arg: p, Val: n.Val})
		case ir.OpOutput:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(MNode{Kind: KindOutput, Name: n.Name, Arg: p})
		default:
			// Compute node: materialize a PE at its match root.
			cm := covered[av]
			if cm == nil || cm.root != av {
				continue // interior node, absorbed
			}
			pn := MNode{
				Kind:      KindPE,
				Rule:      cm.rule,
				DataIn:    map[int]int{},
				BitIn:     map[int]int{},
				ConstVals: map[int]uint16{},
				LUTTables: map[int]uint16{},
				Arg:       -1,
			}
			for pv, anode := range cm.bind {
				if anode < 0 {
					continue
				}
				switch cm.rule.Pattern.Nodes[pv].Op {
				case ir.OpInput, ir.OpInputB:
					p, err := producerIdx(anode)
					if err != nil {
						return nil, err
					}
					if pos, ok := cm.rule.InputPorts[ir.NodeRef(pv)]; ok {
						pn.DataIn[pos] = p
					} else if pos, ok := cm.rule.BitPorts[ir.NodeRef(pv)]; ok {
						pn.BitIn[pos] = p
					} else {
						return nil, fmt.Errorf("rewrite: pattern input %d has no PE port", pv)
					}
				case ir.OpConst, ir.OpConstB:
					pn.ConstVals[cm.rule.ConstRegs[ir.NodeRef(pv)]] = app.Nodes[anode].Val
				case ir.OpLUT:
					pn.LUTTables[cm.rule.LUTUnits[ir.NodeRef(pv)]] = app.Nodes[anode].Val
				}
			}
			mappedIdx[av] = m.add(pn)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Mapped) add(n MNode) int {
	m.Nodes = append(m.Nodes, n)
	return len(m.Nodes) - 1
}

func appTopo(app *ir.Graph) []ir.NodeRef {
	n := len(app.Nodes)
	state := make([]uint8, n)
	var order []ir.NodeRef
	var visit func(v ir.NodeRef)
	visit = func(v ir.NodeRef) {
		if state[v] != 0 {
			return
		}
		state[v] = 1
		for _, a := range app.Nodes[v].Args {
			visit(a)
		}
		state[v] = 2
		order = append(order, v)
	}
	for v := 0; v < n; v++ {
		visit(ir.NodeRef(v))
	}
	return order
}
