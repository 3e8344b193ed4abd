package rewrite

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/pe"
)

// refMatch records one committed rule application.
type refMatch struct {
	rule     *Rule
	root     ir.NodeRef
	nodeMap  map[ir.NodeRef]ir.NodeRef // pattern compute/const -> app node
	inputMap map[ir.NodeRef]ir.NodeRef // pattern input -> app producer
}

// mapAppReference is the frozen map-based MapApp: the same greedy
// instruction selection with tryMatchReference copying its three
// binding maps at every compute node and buildMappedReference reading
// the maps back. Kept verbatim so TestMapAppMatchesReference can pin the
// flat-scratch mapper to it field for field.
func mapAppReference(app *ir.Graph, rs *RuleSet, name string) (*Mapped, error) {
	users := make([][]ir.NodeRef, len(app.Nodes))
	for i, n := range app.Nodes {
		for _, a := range n.Args {
			users[a] = append(users[a], ir.NodeRef(i))
		}
	}
	covered := make([]*refMatch, len(app.Nodes))
	isRoot := make([]bool, len(app.Nodes))
	required := make([]bool, len(app.Nodes))
	// Values consumed by structural nodes must be exposed on the fabric.
	for _, n := range app.Nodes {
		switch n.Op {
		case ir.OpOutput, ir.OpMem, ir.OpReg, ir.OpRegFileFIFO, ir.OpRom:
			for _, a := range n.Args {
				required[a] = true
			}
		}
	}

	var matches []*refMatch
	order := reverseTopoReference(app)
	for _, rule := range rs.Rules {
		rootOp := app0Op(rule)
		for _, av := range order {
			n := &app.Nodes[av]
			if n.Op != rootOp || covered[av] != nil {
				continue
			}
			mt := tryMatchReference(app, users, covered, required, isRoot, rule, av)
			if mt == nil {
				continue
			}
			// Commit.
			matches = append(matches, mt)
			for pv, anode := range mt.nodeMap {
				if rule.Pattern.Nodes[pv].Op.IsCompute() {
					covered[anode] = mt
				}
			}
			isRoot[mt.root] = true
			for _, anode := range mt.inputMap {
				if app.Nodes[anode].Op.IsCompute() {
					required[anode] = true
				}
			}
		}
	}

	// Every compute node must be covered.
	for i, n := range app.Nodes {
		if n.Op.IsCompute() && covered[i] == nil {
			return nil, fmt.Errorf("rewrite: no rule covers node %d (%s) — PE lacks op %s",
				i, n.Op, n.Op)
		}
	}

	return buildMappedReference(app, covered, matches, rs.Spec, name)
}

func reverseTopoReference(app *ir.Graph) []ir.NodeRef {
	// Reverse topological: users before producers, so bigger matches
	// claim downstream roots first.
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
	// order is topological (producers first); reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// tryMatch attempts to match the rule's pattern rooted at app node av.
func tryMatchReference(app *ir.Graph, users [][]ir.NodeRef, covered []*refMatch, required, isRoot []bool, rule *Rule, av ir.NodeRef) *refMatch {
	mt := &refMatch{
		rule:     rule,
		root:     av,
		nodeMap:  map[ir.NodeRef]ir.NodeRef{},
		inputMap: map[ir.NodeRef]ir.NodeRef{},
	}
	rev := map[ir.NodeRef]ir.NodeRef{}
	var bind func(pv, anode ir.NodeRef) bool
	bind = func(pv, anode ir.NodeRef) bool {
		pn := &rule.Pattern.Nodes[pv]
		an := &app.Nodes[anode]
		switch pn.Op {
		case ir.OpInput:
			// Wildcard: any producer except constants and outputs.
			if an.Op == ir.OpConst || an.Op == ir.OpConstB || an.Op == ir.OpOutput {
				return false
			}
			// The producer's value must be exposable: it must not be
			// interior to another committed match.
			if cm := covered[anode]; cm != nil && cm.root != anode {
				return false
			}
			if prev, ok := mt.inputMap[pv]; ok {
				return prev == anode
			}
			mt.inputMap[pv] = anode
			return true
		case ir.OpInputB:
			if an.Op == ir.OpConst || an.Op == ir.OpConstB || an.Op == ir.OpOutput {
				return false
			}
			if cm := covered[anode]; cm != nil && cm.root != anode {
				return false
			}
			if prev, ok := mt.inputMap[pv]; ok {
				return prev == anode
			}
			mt.inputMap[pv] = anode
			return true
		case ir.OpConst:
			if an.Op != ir.OpConst {
				return false
			}
			mt.nodeMap[pv] = anode
			return true
		case ir.OpConstB:
			if an.Op != ir.OpConstB {
				return false
			}
			mt.nodeMap[pv] = anode
			return true
		}
		// Compute node.
		if an.Op != pn.Op {
			return false
		}
		if covered[anode] != nil {
			return false
		}
		// Interior nodes must be absorbable: not required on the fabric.
		if anode != av && required[anode] {
			return false
		}
		if prev, ok := mt.nodeMap[pv]; ok {
			return prev == anode
		}
		if prevP, ok := rev[anode]; ok && prevP != pv {
			return false
		}
		mt.nodeMap[pv] = anode
		rev[anode] = pv

		orders := [][]int{identityOrderReference(len(pn.Args))}
		if pn.Op.Commutative() && len(pn.Args) == 2 {
			orders = append(orders, []int{1, 0})
		}
		for _, ord := range orders {
			ok := true
			// Snapshot for backtracking across operand orders.
			snapNode := copyRefRefMapReference(mt.nodeMap)
			snapIn := copyRefRefMapReference(mt.inputMap)
			snapRev := copyRefRefMapReference(rev)
			for p := range pn.Args {
				if !bind(pn.Args[p], an.Args[ord[p]]) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
			mt.nodeMap = snapNode
			mt.inputMap = snapIn
			rev = snapRev
			// Re-establish this node's own binding after restore.
			mt.nodeMap[pv] = anode
			rev[anode] = pv
		}
		delete(mt.nodeMap, pv)
		delete(rev, anode)
		return false
	}
	if !bind(rule.Root, av) {
		return nil
	}
	// Interior compute nodes must have every user inside the match.
	for pv, anode := range mt.nodeMap {
		if !rule.Pattern.Nodes[pv].Op.IsCompute() || anode == av {
			continue
		}
		for _, u := range users[anode] {
			if _, ok := rev[u]; !ok {
				return nil
			}
		}
	}
	// A wildcard operand must not point at a node this very match
	// absorbs as interior (its value would not exist on the fabric).
	for _, anode := range mt.inputMap {
		if _, interior := rev[anode]; interior && anode != av {
			return nil
		}
	}
	return mt
}

func copyRefRefMapReference(m map[ir.NodeRef]ir.NodeRef) map[ir.NodeRef]ir.NodeRef {
	c := make(map[ir.NodeRef]ir.NodeRef, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// buildMapped materializes the mapped graph from committed matches.
func buildMappedReference(app *ir.Graph, covered []*refMatch, matches []*refMatch, spec *pe.Spec, name string) (*Mapped, error) {
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
			for pv, anode := range cm.inputMap {
				p, err := producerIdx(anode)
				if err != nil {
					return nil, err
				}
				if pos, ok := cm.rule.InputPorts[pv]; ok {
					pn.DataIn[pos] = p
				} else if pos, ok := cm.rule.BitPorts[pv]; ok {
					pn.BitIn[pos] = p
				} else {
					return nil, fmt.Errorf("rewrite: pattern input %d has no PE port", pv)
				}
			}
			for pv, anode := range cm.nodeMap {
				pnode := &cm.rule.Pattern.Nodes[pv]
				switch pnode.Op {
				case ir.OpConst, ir.OpConstB:
					pn.ConstVals[cm.rule.ConstRegs[pv]] = app.Nodes[anode].Val
				case ir.OpLUT:
					pn.LUTTables[cm.rule.LUTUnits[pv]] = app.Nodes[anode].Val
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

func identityOrderReference(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}
