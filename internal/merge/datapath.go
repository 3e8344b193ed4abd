// Package merge implements datapath graph merging (paper Section 3.3,
// after Moreano et al.): given several subgraphs, produce one datapath
// that can be configured to implement each of them, with minimal area.
//
// The algorithm enumerates merge candidates between two graphs (node pairs
// implementable on the same hardware block, and edge pairs with matching
// destination ports), builds a compatibility graph over the candidates,
// finds its maximum-weight clique (weights = area saved by the merge), and
// reconstructs the merged datapath, inserting multiplexers where a port
// can receive more than one source.
package merge

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/tech"
)

// UnitKind discriminates datapath units.
type UnitKind uint8

const (
	UnitOp     UnitKind = iota // functional unit executing one of Ops
	UnitConst                  // configurable constant register
	UnitInput                  // PE data input (16-bit)
	UnitInputB                 // PE predicate input (1-bit)
	UnitOutput                 // PE output port
)

// Unit is one element of a merged datapath.
type Unit struct {
	Kind UnitKind
	// Ops lists the operations this unit must support; all share one
	// hardware class. Sorted, no duplicates.
	Ops []ir.Op
	// Class is the hardware block family (ir.Op.HWClass) for UnitOp.
	Class string
	// Bit marks constants that are 1-bit (from OpConstB).
	Bit bool
}

// MaxPorts returns the number of operand ports the unit needs (the widest
// op it supports).
func (u *Unit) MaxPorts() int {
	p := 0
	for _, op := range u.Ops {
		if a := op.Arity(); a > p {
			p = a
		}
	}
	return p
}

// SupportsOp reports whether op is in the unit's op list.
func (u *Unit) SupportsOp(op ir.Op) bool {
	for _, o := range u.Ops {
		if o == op {
			return true
		}
	}
	return false
}

func (u *Unit) String() string {
	switch u.Kind {
	case UnitConst:
		if u.Bit {
			return "constb"
		}
		return "const"
	case UnitInput:
		return "in"
	case UnitInputB:
		return "inb"
	case UnitOutput:
		return "out"
	default:
		s := ""
		for i, op := range u.Ops {
			if i > 0 {
				s += "/"
			}
			s += op.Name()
		}
		return s
	}
}

// Wire is a possible connection in the datapath: the output of unit From
// may drive operand port Port of unit To. Multiple wires into the same
// (To, Port) imply a multiplexer.
type Wire struct {
	From int
	To   int
	Port int
}

// Datapath is a merged datapath graph: the hardware structure of a PE
// before pipelining.
type Datapath struct {
	Units []Unit
	Wires []Wire
	// Sources records, for provenance, the names of the subgraphs merged
	// into this datapath.
	Sources []string
}

// Clone deep-copies the datapath.
func (d *Datapath) Clone() *Datapath {
	c := &Datapath{
		Units:   make([]Unit, len(d.Units)),
		Wires:   append([]Wire(nil), d.Wires...),
		Sources: append([]string(nil), d.Sources...),
	}
	for i, u := range d.Units {
		c.Units[i] = u
		c.Units[i].Ops = append([]ir.Op(nil), u.Ops...)
	}
	return c
}

// HasWire reports whether an identical wire already exists.
func (d *Datapath) HasWire(w Wire) bool {
	for _, x := range d.Wires {
		if x == w {
			return true
		}
	}
	return false
}

// Counts summarizes the datapath composition.
type Counts struct {
	FUs      int // functional units
	Consts   int
	Inputs   int // 16-bit data inputs
	InputsB  int // 1-bit inputs
	Outputs  int
	Muxes    int // ports with >1 candidate source
	MuxFanin int // total extra mux inputs (inputs beyond the first per port)
}

// Count tallies the datapath composition.
func (d *Datapath) Count() Counts {
	var c Counts
	for _, u := range d.Units {
		switch u.Kind {
		case UnitOp:
			c.FUs++
		case UnitConst:
			c.Consts++
		case UnitInput:
			c.Inputs++
		case UnitInputB:
			c.InputsB++
		case UnitOutput:
			c.Outputs++
		}
	}
	fanin := map[[2]int]int{}
	for _, w := range d.Wires {
		fanin[[2]int{w.To, w.Port}]++
	}
	for _, n := range fanin {
		if n > 1 {
			c.Muxes++
			c.MuxFanin += n - 1
		}
	}
	return c
}

// Area computes the datapath's PE-core area under the technology model:
// functional units, constant registers, operand multiplexers, and
// configuration overhead.
func (d *Datapath) Area(m *tech.Model) float64 {
	a := 0.0
	cfgBits := 0
	for _, u := range d.Units {
		switch u.Kind {
		case UnitOp:
			a += m.HWClassCost(u.Class).Area
			if len(u.Ops) > 1 {
				cfgBits += bitsFor(len(u.Ops))
			}
		case UnitConst:
			if u.Bit {
				a += m.Unit("creg1").Area
				cfgBits++
			} else {
				a += m.Unit("creg16").Area
				cfgBits += 16
			}
		}
	}
	c := d.Count()
	a += float64(c.MuxFanin) * m.Unit("mux16").Area
	cfgBits += c.MuxFanin // ~1 select bit per extra mux input
	a += float64(cfgBits) * m.Unit("cfgbit").Area
	if c.FUs > 0 {
		a += m.Unit("decode").Area
	}
	return a
}

// Energy estimates the per-operation dynamic energy of the datapath when
// active (all functional units toggle; this is the PE-core energy used in
// the evaluation roll-ups, scaled by activity at the CGRA level).
func (d *Datapath) Energy(m *tech.Model) float64 {
	e := 0.0
	for _, u := range d.Units {
		if u.Kind == UnitOp {
			e += m.HWClassCost(u.Class).Energy
		}
	}
	c := d.Count()
	e += float64(c.MuxFanin) * m.Unit("mux16").Energy
	if c.FUs > 0 {
		e += m.Unit("decode").Energy
	}
	return e
}

// Validate checks wire endpoints and port ranges.
func (d *Datapath) Validate() error {
	for i, w := range d.Wires {
		if w.From < 0 || w.From >= len(d.Units) || w.To < 0 || w.To >= len(d.Units) {
			return fmt.Errorf("merge: wire %d endpoints out of range", i)
		}
		to := &d.Units[w.To]
		switch to.Kind {
		case UnitInput, UnitInputB, UnitConst:
			return fmt.Errorf("merge: wire %d drives a source unit", i)
		case UnitOutput:
			if w.Port != 0 {
				return fmt.Errorf("merge: wire %d output port %d != 0", i, w.Port)
			}
		case UnitOp:
			if w.Port < 0 || w.Port >= to.MaxPorts() {
				return fmt.Errorf("merge: wire %d port %d out of range for %s", i, w.Port, to.String())
			}
		}
		from := &d.Units[w.From]
		if from.Kind == UnitOutput {
			return fmt.Errorf("merge: wire %d driven by an output unit", i)
		}
	}
	return nil
}

// FromPattern converts a pattern IR graph (as produced by ir.FromLabeled,
// or any single-operation IR graph) into a datapath implementing exactly
// that subgraph.
func FromPattern(g *ir.Graph, name string) (*Datapath, error) {
	d := &Datapath{Sources: []string{name}}
	refToUnit := make(map[ir.NodeRef]int, len(g.Nodes))
	for i, n := range g.Nodes {
		ref := ir.NodeRef(i)
		switch {
		case n.Op == ir.OpInput:
			refToUnit[ref] = d.addUnit(Unit{Kind: UnitInput})
		case n.Op == ir.OpInputB:
			refToUnit[ref] = d.addUnit(Unit{Kind: UnitInputB})
		case n.Op == ir.OpConst:
			refToUnit[ref] = d.addUnit(Unit{Kind: UnitConst})
		case n.Op == ir.OpConstB:
			refToUnit[ref] = d.addUnit(Unit{Kind: UnitConst, Bit: true})
		case n.Op == ir.OpOutput:
			refToUnit[ref] = d.addUnit(Unit{Kind: UnitOutput})
		case n.Op.IsCompute():
			refToUnit[ref] = d.addUnit(Unit{Kind: UnitOp, Ops: []ir.Op{n.Op}, Class: n.Op.HWClass()})
		default:
			return nil, fmt.Errorf("merge: node %d op %s cannot appear in a PE datapath", i, n.Op)
		}
	}
	for i, n := range g.Nodes {
		for p, a := range n.Args {
			d.Wires = append(d.Wires, Wire{From: refToUnit[a], To: refToUnit[ir.NodeRef(i)], Port: p})
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// bitsFor returns the number of selection bits needed to pick one of n
// alternatives.
func bitsFor(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}

func (d *Datapath) addUnit(u Unit) int {
	d.Units = append(d.Units, u)
	return len(d.Units) - 1
}

// BaselinePE constructs the datapath of the paper's Fig. 1 baseline PE
// restricted to the given operation set ("PE 1" keeps only the operations
// the application needs): one functional unit per hardware class, two
// 16-bit data inputs and one 1-bit input routable to every operand port,
// two 16-bit constant registers, and one output multiplexed across all
// units.
func BaselinePE(ops []ir.Op) *Datapath {
	d := &Datapath{Sources: []string{"baseline"}}
	in0 := d.addUnit(Unit{Kind: UnitInput})
	in1 := d.addUnit(Unit{Kind: UnitInput})
	// Three 1-bit inputs and three 1-bit constant registers, as in the
	// paper's Fig. 1 baseline PE.
	inbs := []int{
		d.addUnit(Unit{Kind: UnitInputB}),
		d.addUnit(Unit{Kind: UnitInputB}),
		d.addUnit(Unit{Kind: UnitInputB}),
	}
	c0 := d.addUnit(Unit{Kind: UnitConst})
	c1 := d.addUnit(Unit{Kind: UnitConst})
	cbs := []int{
		d.addUnit(Unit{Kind: UnitConst, Bit: true}),
		d.addUnit(Unit{Kind: UnitConst, Bit: true}),
		d.addUnit(Unit{Kind: UnitConst, Bit: true}),
	}
	out := d.addUnit(Unit{Kind: UnitOutput})

	// Group ops by hardware class into shared units.
	byClass := map[string][]ir.Op{}
	var classes []string
	for _, op := range ops {
		cl := op.HWClass()
		if cl == "" {
			continue
		}
		if _, ok := byClass[cl]; !ok {
			classes = append(classes, cl)
		}
		byClass[cl] = append(byClass[cl], op)
	}
	sort.Strings(classes)
	ins := []int{in0, in1}
	cregs := []int{c0, c1}
	for _, cl := range classes {
		opList := dedupOps(byClass[cl])
		u := d.addUnit(Unit{Kind: UnitOp, Ops: opList, Class: cl})
		ports := d.Units[u].MaxPorts()
		for p := 0; p < ports; p++ {
			// Lean intraconnect: each word port selects between one PE
			// input and the two shared constant registers. Operand order
			// is free at the fabric level (the mapper routes application
			// signals to either PE input), so full input crossbars are
			// unnecessary; both constant registers reach every port so
			// that two constant operands never contend for one register.
			// The 1-bit sources reach predicate ports (port 0 of sel,
			// any LUT port).
			if cl == "lut" || (cl == "sel" && p == 0) {
				d.Wires = append(d.Wires,
					Wire{From: inbs[p], To: u, Port: p},
					Wire{From: cbs[p], To: u, Port: p},
				)
				continue
			}
			d.Wires = append(d.Wires,
				Wire{From: ins[p%2], To: u, Port: p},
				Wire{From: cregs[0], To: u, Port: p},
				Wire{From: cregs[1], To: u, Port: p},
			)
		}
		d.Wires = append(d.Wires, Wire{From: u, To: out, Port: 0})
	}
	return d
}

func dedupOps(ops []ir.Op) []ir.Op {
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	out := ops[:0:0]
	var last ir.Op
	for i, op := range ops {
		if i == 0 || op != last {
			out = append(out, op)
		}
		last = op
	}
	return out
}
