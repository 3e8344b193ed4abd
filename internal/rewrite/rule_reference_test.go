package rewrite

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/pe"
)

// synthesizeRuleSetReference is SynthesizeRuleSet over
// synthesizeRuleReference: the rule sets the synthesizer produced before
// rule verification moved onto flat scratch, which
// TestSynthesizeRuleSetMatchesReference requires it to reproduce.
func synthesizeRuleSetReference(spec *pe.Spec, complex []NamedPattern, ops []ir.Op) (*RuleSet, error) {
	rs := &RuleSet{Spec: spec}
	var expanded []NamedPattern
	for _, np := range complex {
		expanded = append(expanded, ConstVariants(np)...)
	}
	all := append(expanded, SingleOpPatterns(ops)...)
	seen := map[string]bool{}
	for _, np := range all {
		if seen[np.Name] {
			continue
		}
		seen[np.Name] = true
		rule, err := synthesizeRuleReference(spec, np.Graph, np.Name)
		if err != nil {
			return nil, fmt.Errorf("rewrite: pattern %s: %w", np.Name, err)
		}
		if rule == nil {
			rs.Failed = append(rs.Failed, np.Name)
			continue
		}
		rs.Rules = append(rs.Rules, rule)
	}
	sort.SliceStable(rs.Rules, func(i, j int) bool {
		a, b := rs.Rules[i], rs.Rules[j]
		if a.Size != b.Size {
			return a.Size > b.Size
		}
		ai, bi := len(a.InputPorts)+len(a.BitPorts), len(b.InputPorts)+len(b.BitPorts)
		if ai != bi {
			return ai < bi
		}
		return a.Name < b.Name
	})
	return rs, nil
}

// synthesizeRuleReference is SynthesizeRule with every candidate the
// structural search completes judged by verifyRuleReference.
func synthesizeRuleReference(spec *pe.Spec, pattern *ir.Graph, name string) (*Rule, error) {
	root, err := patternRoot(pattern)
	if err != nil {
		return nil, err
	}
	st := newSynthState(spec, pattern)
	var found *Rule
	for _, out := range spec.Outputs {
		for _, drv := range spec.PortSources(out, 0) {
			out, drv := out, drv
			ok := st.bind(root, drv, func() bool {
				rule := st.assemble(name, root, out, drv)
				if verifyRuleReference(rule) != nil {
					return false
				}
				found = rule
				return true
			})
			if ok {
				return found, nil
			}
			if st.steps > maxSynthSteps {
				return nil, nil
			}
		}
	}
	return nil, nil
}

// verifyRuleReference is the frozen pre-scratch verifyRule: a fresh
// rand.Source per call, draws assigned by ranging over the rule's port
// and constant maps, and per trial a Config clone, a pattern Graph clone
// plus probe output, and the map-based functional model.
func verifyRuleReference(r *Rule) error {
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
	// Randomized cross-check of the functional model.
	rng := rand.New(rand.NewSource(0xA9E5))
	for trial := 0; trial < 32; trial++ {
		inputs := map[string]uint16{}
		inVals := map[int]uint16{}
		bitVals := map[int]uint16{}
		cfg := r.Config.Clone()
		for v, pos := range r.InputPorts {
			x := uint16(rng.Intn(1 << 16))
			inputs[r.Pattern.Nodes[v].Name] = x
			inVals[pos] = x
		}
		for v, pos := range r.BitPorts {
			x := uint16(rng.Intn(2))
			inputs[r.Pattern.Nodes[v].Name] = x
			bitVals[pos] = x
		}
		patG := r.Pattern.Clone()
		for v, cu := range r.ConstRegs {
			x := uint16(rng.Intn(1 << 16))
			if patG.Nodes[v].Op == ir.OpConstB {
				x &= 1
			}
			patG.Nodes[v].Val = x
			cfg.ConstVals[cu] = x
		}
		// Keep LUT immediates from the rule config.
		for u, val := range r.Config.ConstVals {
			cfg.ConstVals[u] = val
		}
		want, err := evalAtReference(patG, r.Root, inputs)
		if err != nil {
			return err
		}
		got, err := evaluateReference(r.Spec, cfg, inVals, bitVals)
		if err != nil {
			return err
		}
		if got[r.OutUnit] != want {
			return fmt.Errorf("rewrite: simulation mismatch: PE %d vs pattern %d", got[r.OutUnit], want)
		}
	}
	return nil
}

// evalAtReference evaluates the value of a single node in a graph.
func evalAtReference(g *ir.Graph, node ir.NodeRef, inputs map[string]uint16) (uint16, error) {
	tmp := g.Clone()
	tmp.Output("__rule_probe", node)
	outs, err := tmp.Eval(inputs)
	if err != nil {
		return 0, err
	}
	return outs["__rule_probe"], nil
}

// evaluateReference is the frozen map-based pe.Spec.Evaluate: memo and
// visit state in maps, a fresh operand slice per unit, inputs and
// results keyed by position and unit.
func evaluateReference(s *pe.Spec, c pe.Config, inputVals map[int]uint16, bitVals map[int]uint16) (map[int]uint16, error) {
	memo := map[int]uint16{}
	state := map[int]uint8{}
	var eval func(u int) (uint16, error)
	eval = func(u int) (uint16, error) {
		if state[u] == 2 {
			return memo[u], nil
		}
		if state[u] == 1 {
			return 0, fmt.Errorf("pe: configured datapath has a combinational cycle at unit %d", u)
		}
		state[u] = 1
		unit := &s.DP.Units[u]
		var v uint16
		switch unit.Kind {
		case merge.UnitInput:
			pos := indexOf(s.Inputs, u)
			v = inputVals[pos]
		case merge.UnitInputB:
			pos := indexOf(s.InputsB, u)
			v = bitVals[pos] & 1
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
			args := make([]uint16, op.Arity())
			for p := 0; p < op.Arity(); p++ {
				src, ok := c.PortSel[[2]int{u, p}]
				if !ok {
					return 0, fmt.Errorf("pe: unit %d port %d unconfigured", u, p)
				}
				av, err := eval(src)
				if err != nil {
					return 0, err
				}
				args[p] = av
			}
			v = ir.EvalOp(op, args, c.ConstVals[u])
		case merge.UnitOutput:
			src, ok := c.OutSel[u]
			if !ok {
				return 0, fmt.Errorf("pe: output %d unconfigured", u)
			}
			sv, err := eval(src)
			if err != nil {
				return 0, err
			}
			v = sv
		}
		memo[u] = v
		state[u] = 2
		return v, nil
	}
	outs := map[int]uint16{}
	for _, o := range s.Outputs {
		if _, ok := c.OutSel[o]; !ok {
			continue
		}
		v, err := eval(o)
		if err != nil {
			return nil, err
		}
		outs[o] = v
	}
	return outs, nil
}
