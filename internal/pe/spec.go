// Package pe turns merged datapaths into processing element
// specifications — the role the PEak DSL plays in the APEX paper. A Spec
// carries the datapath structure, its configuration space (operand mux
// selects, operation selects, constant registers), a functional model
// (Evaluate), and a formal model (SymbolicEval over canonical
// expressions). The rewrite-rule synthesizer in internal/rewrite uses the
// formal model to prove that a configuration implements an operation.
package pe

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/tech"
)

// Spec is a complete PE specification derived from a merged datapath.
type Spec struct {
	Name string
	DP   *merge.Datapath

	// Inputs, InputsB, Consts, Outputs list unit indices by role, in
	// ascending order. Their positions define the PE's port numbering:
	// data input k of the PE is unit Inputs[k].
	Inputs  []int
	InputsB []int
	Consts  []int
	Outputs []int
	// FUs lists functional unit indices in ascending order.
	FUs []int

	// portSources[(unit,port)] lists candidate source units.
	portSources map[[2]int][]int
	// portOf[u] is the PE port position of input unit u (its index in
	// Inputs or InputsB); -1 for every other unit.
	portOf []int
}

// FromDatapath builds a Spec from a merged datapath.
func FromDatapath(name string, dp *merge.Datapath) *Spec {
	s := &Spec{Name: name, DP: dp, portSources: map[[2]int][]int{}, portOf: make([]int, len(dp.Units))}
	for i, u := range dp.Units {
		s.portOf[i] = -1
		switch u.Kind {
		case merge.UnitInput:
			s.portOf[i] = len(s.Inputs)
			s.Inputs = append(s.Inputs, i)
		case merge.UnitInputB:
			s.portOf[i] = len(s.InputsB)
			s.InputsB = append(s.InputsB, i)
		case merge.UnitConst:
			s.Consts = append(s.Consts, i)
		case merge.UnitOutput:
			s.Outputs = append(s.Outputs, i)
		case merge.UnitOp:
			s.FUs = append(s.FUs, i)
		}
	}
	for _, w := range dp.Wires {
		k := [2]int{w.To, w.Port}
		s.portSources[k] = append(s.portSources[k], w.From)
	}
	for k := range s.portSources {
		sort.Ints(s.portSources[k])
	}
	return s
}

// PortSources returns the candidate sources for (unit, port).
func (s *Spec) PortSources(unit, port int) []int { return s.portSources[[2]int{unit, port}] }

// NumDataInputs returns the number of 16-bit PE inputs (which is also the
// number of 16-bit connection boxes the PE tile needs).
func (s *Spec) NumDataInputs() int { return len(s.Inputs) }

// NumBitInputs returns the number of 1-bit PE inputs.
func (s *Spec) NumBitInputs() int { return len(s.InputsB) }

// Area returns the PE core area under the technology model.
func (s *Spec) Area(m *tech.Model) float64 { return s.DP.Area(m) }

// Config is one configuration of the PE: a point in its control space.
type Config struct {
	// PortSel maps (unit, port) to the selected source unit. Ports not in
	// the map are unconfigured (their unit is inactive).
	PortSel map[[2]int]int
	// OpSel maps a functional unit index to its selected operation.
	OpSel map[int]ir.Op
	// ConstVals maps a constant unit index to its register value.
	ConstVals map[int]uint16
	// OutSel maps an output unit index to the unit driving it.
	OutSel map[int]int
}

// NewConfig returns an empty configuration.
func NewConfig() Config {
	return Config{
		PortSel:   map[[2]int]int{},
		OpSel:     map[int]ir.Op{},
		ConstVals: map[int]uint16{},
		OutSel:    map[int]int{},
	}
}

// Clone deep-copies a configuration.
func (c Config) Clone() Config {
	n := NewConfig()
	for k, v := range c.PortSel {
		n.PortSel[k] = v
	}
	for k, v := range c.OpSel {
		n.OpSel[k] = v
	}
	for k, v := range c.ConstVals {
		n.ConstVals[k] = v
	}
	for k, v := range c.OutSel {
		n.OutSel[k] = v
	}
	return n
}

// Validate checks that every configured selection is a legal wire/op.
func (s *Spec) Validate(c Config) error {
	for k, src := range c.PortSel {
		legal := false
		for _, cand := range s.PortSources(k[0], k[1]) {
			if cand == src {
				legal = true
				break
			}
		}
		if !legal {
			return fmt.Errorf("pe: illegal port selection unit %d port %d <- %d", k[0], k[1], src)
		}
	}
	for u, op := range c.OpSel {
		if u < 0 || u >= len(s.DP.Units) || !s.DP.Units[u].SupportsOp(op) {
			return fmt.Errorf("pe: unit %d cannot execute %s", u, op)
		}
	}
	for out, src := range c.OutSel {
		legal := false
		for _, cand := range s.PortSources(out, 0) {
			if cand == src {
				legal = true
				break
			}
		}
		if !legal {
			return fmt.Errorf("pe: illegal output selection %d <- %d", out, src)
		}
	}
	return nil
}

// UnitValues is the reusable working state of Evaluate, indexed by
// datapath unit: after a successful Evaluate, Vals[u] holds the value of
// every unit feeding a configured output (other entries are stale).
// Reusing one UnitValues across evaluations of a spec keeps them free of
// allocation.
type UnitValues struct {
	Vals  []uint16
	state []uint8 // 1 = in progress, 2 = done
}

// Evaluate runs the functional model: in[k] is the value on PE data
// input k and bits[k] the value on bit input k (positions past the end
// of either slice read 0). Every configured output is evaluated; the
// result is uv.Vals, indexed by unit, so the value of output unit o is
// Evaluate(...)[o]. uv may be nil, in which case fresh state is
// allocated.
func (s *Spec) Evaluate(c Config, in, bits []uint16, uv *UnitValues) ([]uint16, error) {
	if uv == nil {
		uv = &UnitValues{}
	}
	n := len(s.DP.Units)
	if len(uv.Vals) != n {
		uv.Vals = make([]uint16, n)
		uv.state = make([]uint8, n)
	} else {
		clear(uv.state)
	}
	for _, o := range s.Outputs {
		if _, ok := c.OutSel[o]; !ok {
			continue // unconfigured outputs are idle
		}
		if _, err := uv.eval(s, &c, in, bits, o); err != nil {
			return nil, err
		}
	}
	return uv.Vals, nil
}

// eval computes unit u's value, memoized in uv.Vals.
func (uv *UnitValues) eval(s *Spec, c *Config, in, bits []uint16, u int) (uint16, error) {
	switch uv.state[u] {
	case 2:
		return uv.Vals[u], nil
	case 1:
		return 0, fmt.Errorf("pe: configured datapath has a combinational cycle at unit %d", u)
	}
	uv.state[u] = 1
	unit := &s.DP.Units[u]
	var v uint16
	switch unit.Kind {
	case merge.UnitInput:
		if pos := s.portOf[u]; pos < len(in) {
			v = in[pos]
		}
	case merge.UnitInputB:
		if pos := s.portOf[u]; pos < len(bits) {
			v = bits[pos] & 1
		}
	case merge.UnitConst:
		v = c.ConstVals[u]
		if unit.Bit {
			v &= 1
		}
	case merge.UnitOp:
		op, ok := c.OpSel[u]
		if !ok {
			if len(unit.Ops) == 1 {
				op = unit.Ops[0]
			} else {
				return 0, fmt.Errorf("pe: unit %d (%s) has no op selected", u, unit)
			}
		}
		var buf [3]uint16 // ir ops take at most three operands
		args := buf[:op.Arity()]
		// Operand ports beyond the op's arity are ignored; the op
		// consumes its operands from the low ports.
		for p := range args {
			src, ok := c.PortSel[[2]int{u, p}]
			if !ok {
				return 0, fmt.Errorf("pe: unit %d port %d unconfigured", u, p)
			}
			av, err := uv.eval(s, c, in, bits, src)
			if err != nil {
				return 0, err
			}
			args[p] = av
		}
		// The immediate (LUT table) rides on the op selection; LUT
		// tables are stored as the constant value of the unit's
		// config — encode via ConstVals keyed by the FU index.
		v = ir.EvalOp(op, args, c.ConstVals[u])
	case merge.UnitOutput:
		src, ok := c.OutSel[u]
		if !ok {
			return 0, fmt.Errorf("pe: output %d unconfigured", u)
		}
		sv, err := uv.eval(s, c, in, bits, src)
		if err != nil {
			return 0, err
		}
		v = sv
	}
	uv.Vals[u] = v
	uv.state[u] = 2
	return v, nil
}

// SymbolicEval computes the canonical expression of each configured
// output. Data input k appears as Var("in<k>"), bit input k as
// Var("inb<k>"), and constant unit u as Var("c<u>") unless the
// configuration pins its value (then the constant folds in).
func (s *Spec) SymbolicEval(c Config, pinConsts bool) (map[int]*ir.Expr, error) {
	memo := map[int]*ir.Expr{}
	state := map[int]uint8{}
	var eval func(u int) (*ir.Expr, error)
	eval = func(u int) (*ir.Expr, error) {
		if state[u] == 2 {
			return memo[u], nil
		}
		if state[u] == 1 {
			return nil, fmt.Errorf("pe: combinational cycle at unit %d", u)
		}
		state[u] = 1
		unit := &s.DP.Units[u]
		var e *ir.Expr
		switch unit.Kind {
		case merge.UnitInput:
			e = ir.Var(fmt.Sprintf("in%d", s.portOf[u]))
		case merge.UnitInputB:
			e = ir.Var(fmt.Sprintf("inb%d", s.portOf[u]))
		case merge.UnitConst:
			if v, ok := c.ConstVals[u]; ok && pinConsts {
				e = ir.ConstExpr(v)
			} else {
				e = ir.Var(fmt.Sprintf("c%d", u))
			}
		case merge.UnitOp:
			op, ok := c.OpSel[u]
			if !ok {
				if len(unit.Ops) == 1 {
					op = unit.Ops[0]
				} else {
					return nil, fmt.Errorf("pe: unit %d has no op selected", u)
				}
			}
			args := make([]*ir.Expr, op.Arity())
			for p := 0; p < op.Arity(); p++ {
				src, ok := c.PortSel[[2]int{u, p}]
				if !ok {
					return nil, fmt.Errorf("pe: unit %d port %d unconfigured", u, p)
				}
				ae, err := eval(src)
				if err != nil {
					return nil, err
				}
				args[p] = ae
			}
			e = ir.Apply(op, c.ConstVals[u], args...)
		case merge.UnitOutput:
			src, ok := c.OutSel[u]
			if !ok {
				return nil, fmt.Errorf("pe: output %d unconfigured", u)
			}
			se, err := eval(src)
			if err != nil {
				return nil, err
			}
			e = se
		}
		memo[u] = e
		state[u] = 2
		return e, nil
	}
	outs := map[int]*ir.Expr{}
	for _, o := range s.Outputs {
		if _, ok := c.OutSel[o]; !ok {
			continue
		}
		e, err := eval(o)
		if err != nil {
			return nil, err
		}
		outs[o] = e
	}
	return outs, nil
}

// ConfigBits returns the size of the PE's configuration word.
func (s *Spec) ConfigBits() int {
	bits := 0
	for k, srcs := range s.portSources {
		_ = k
		if len(srcs) > 1 {
			bits += bitsFor(len(srcs))
		}
	}
	for _, f := range s.FUs {
		if n := len(s.DP.Units[f].Ops); n > 1 {
			bits += bitsFor(n)
		}
		for _, op := range s.DP.Units[f].Ops {
			if op == ir.OpLUT {
				bits += 8 // truth table
				break
			}
		}
	}
	for _, cu := range s.Consts {
		if s.DP.Units[cu].Bit {
			bits++
		} else {
			bits += 16
		}
	}
	return bits
}

func bitsFor(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}
