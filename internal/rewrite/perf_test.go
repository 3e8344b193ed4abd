package rewrite

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/ir"
)

// macRuleSet synthesizes the MAC pattern (with its constant-operand
// variants) and the plain ops on the merged MAC PE.
func macRuleSet(t *testing.T) *RuleSet {
	t.Helper()
	g := ir.NewGraph("mac")
	g.Output("o", g.OpNode(ir.OpAdd, g.OpNode(ir.OpMul, g.Input("a"), g.Input("b")), g.Input("c")))
	return mustRuleSet(t, macSpec(t), []NamedPattern{{Name: "mac", Graph: g}},
		[]ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAshr})
}

// TestTryMatchAllocs gates the instruction selector's scratch
// discipline: once the undo trail has grown to its working size, a
// failed match attempt allocates nothing — no binding maps, no
// per-operand-order snapshots. Every failing (rule, root) attempt on the
// camera pipeline is measured.
func TestTryMatchAllocs(t *testing.T) {
	app := apps.Camera().Graph
	rs := macRuleSet(t)
	m := newMapper(app, rs)
	type attempt struct {
		rule *Rule
		av   ir.NodeRef
	}
	var failing []attempt
	for _, rule := range rs.Rules {
		for av := range app.Nodes {
			if app.Nodes[av].Op == app0Op(rule) && m.tryMatch(rule, ir.NodeRef(av)) == nil {
				failing = append(failing, attempt{rule, ir.NodeRef(av)})
			}
		}
	}
	if len(failing) < 20 {
		t.Fatalf("only %d failing attempts — fixture too small", len(failing))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, a := range failing {
			m.tryMatch(a.rule, a.av)
		}
	})
	t.Logf("%d failing attempts: %.0f allocs", len(failing), allocs)
	if allocs != 0 {
		t.Errorf("%d failed match attempts allocate %.0f times, want 0", len(failing), allocs)
	}
}

// TestVerifyRuleAllocs gates rule verification: beyond the formal
// check's expression building, a rule costs one configuration clone and
// nothing per simulation trial, so its allocation count stays far below
// the number of trials.
func TestVerifyRuleAllocs(t *testing.T) {
	const perRule = 12 // the configuration clone
	if verifyTrials <= 2*perRule {
		t.Fatalf("verifyTrials = %d: too few trials for the gate to tell per-trial from per-rule", verifyTrials)
	}
	var v ruleVerifier
	for _, r := range macRuleSet(t).Rules {
		if err := verifyRule(r, &v); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		formal := testing.AllocsPerRun(5, func() { formalCheck(r) })   //nolint:errcheck // verified above
		total := testing.AllocsPerRun(5, func() { verifyRule(r, &v) }) //nolint:errcheck // verified above
		t.Logf("%s: %.0f allocs (formal check %.0f)", r.Name, total, formal)
		if total-formal > perRule {
			t.Errorf("%s: verification allocates %.0f times beyond the formal check's %.0f, want <= %d",
				r.Name, total-formal, formal, perRule)
		}
	}
}

// trialInputs returns, per simulation trial, the PE data inputs, bit
// inputs and pattern leaf values verification would draw for r.
func trialInputs(r *Rule) [][]uint16 {
	var v ruleVerifier
	v.prepare(r)
	cfg := r.Config.Clone()
	n := len(v.leaves)
	draws := verifyDrawPrefix(verifyTrials * n)
	var rows [][]uint16
	for trial := 0; trial < verifyTrials; trial++ {
		v.drawTrial(cfg, draws[trial*n:])
		row := slices.Concat(v.in, v.bits)
		for _, l := range v.leaves {
			row = append(row, v.patVals[l.node], cfg.ConstVals[l.port])
		}
		rows = append(rows, row)
	}
	return rows
}

// TestVerifyRuleTrialsDeterministic: verification draws its random
// trial inputs in ascending pattern-node order, so synthesizing the same
// rule again (fresh port and constant maps, so a fresh map iteration
// order) yields identical trial inputs every time.
func TestVerifyRuleTrialsDeterministic(t *testing.T) {
	spec := macSpec(t)
	g := ir.NewGraph("mac_k")
	g.Output("o", g.OpNode(ir.OpAdd, g.OpNode(ir.OpMul, g.Input("a"), g.Const(0)), g.Input("c")))
	var first [][]uint16
	for i := 0; i < 20; i++ {
		r, err := SynthesizeRule(spec, g, "mac_k")
		if err != nil || r == nil {
			t.Fatalf("synthesis failed: %v", err)
		}
		if len(r.InputPorts)+len(r.ConstRegs) < 3 {
			t.Fatalf("rule binds %d leaves; the test needs several", len(r.InputPorts)+len(r.ConstRegs))
		}
		got := trialInputs(r)
		if i == 0 {
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("synthesis %d drew different trial inputs:\n got %v\nwant %v", i, got[0], first[0])
		}
	}
}
