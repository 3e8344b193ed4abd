package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/pe"
)

// randomApp builds a random, well-typed application graph: word-valued
// compute ops over inputs/constants, comparisons producing bits, selects
// and LUTs consuming them, plus memory/register structure.
func randomApp(rng *rand.Rand, nOps int) *ir.Graph {
	g := ir.NewGraph("fuzz")
	var words []ir.NodeRef
	var bits []ir.NodeRef

	nIn := 2 + rng.Intn(4)
	for i := 0; i < nIn; i++ {
		words = append(words, g.Input(fmt.Sprintf("w%d", i)))
	}
	bits = append(bits, g.InputB("b0"))

	word := func() ir.NodeRef { return words[rng.Intn(len(words))] }
	bit := func() ir.NodeRef { return bits[rng.Intn(len(bits))] }
	wordOrConst := func() ir.NodeRef {
		if rng.Float64() < 0.25 {
			return g.Const(uint16(rng.Intn(1 << 16)))
		}
		return word()
	}

	binOps := []ir.Op{
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpLshr, ir.OpAshr,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpSMin, ir.OpSMax, ir.OpUMin, ir.OpUMax,
	}
	cmpOps := []ir.Op{ir.OpEq, ir.OpNeq, ir.OpSlt, ir.OpSge, ir.OpUlt, ir.OpUge}

	for i := 0; i < nOps; i++ {
		switch r := rng.Float64(); {
		case r < 0.60:
			op := binOps[rng.Intn(len(binOps))]
			words = append(words, g.OpNode(op, word(), wordOrConst()))
		case r < 0.72:
			op := cmpOps[rng.Intn(len(cmpOps))]
			bits = append(bits, g.OpNode(op, word(), wordOrConst()))
		case r < 0.82:
			words = append(words, g.OpNode(ir.OpSel, bit(), word(), wordOrConst()))
		case r < 0.88:
			bits = append(bits, g.LUT(uint8(rng.Intn(256)), bit(), bit(), bit()))
		case r < 0.94:
			words = append(words, g.OpNode(ir.OpAbs, word()))
		default:
			// Structural: a memory or register on a word value.
			if rng.Intn(2) == 0 {
				words = append(words, g.Mem(word()))
			} else {
				words = append(words, g.Reg(word()))
			}
		}
	}
	// Expose a handful of sinks as outputs (always including the last
	// word so the newest logic is observable).
	g.Output("out0", words[len(words)-1])
	for i := 1; i <= 2 && i < len(words); i++ {
		g.Output(fmt.Sprintf("out%d", i), words[rng.Intn(len(words))])
	}
	if len(bits) > 1 {
		g.Output("outb", bits[len(bits)-1])
	}
	return g
}

// TestFuzzMapBaselineEquivalence maps randomized applications onto the
// baseline PE and checks functional equivalence — the compiler must never
// miscompile, whatever the graph shape.
func TestFuzzMapBaselineEquivalence(t *testing.T) {
	spec := pe.FromDatapath("base", merge.BaselinePE(ir.BaselineALUOps()))
	rs, err := SynthesizeRuleSet(spec, nil, ir.BaselineALUOps())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		app := randomApp(rng, 8+rng.Intn(30))
		if err := app.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid graph: %v", trial, err)
		}
		m, err := MapApp(app, rs, "fuzz")
		if err != nil {
			t.Fatalf("trial %d: map failed: %v\n%d nodes", trial, err, app.NumNodes())
		}
		for check := 0; check < 8; check++ {
			inputs := map[string]uint16{}
			for _, in := range app.Inputs() {
				inputs[app.Nodes[in].Name] = uint16(rng.Intn(1 << 16))
			}
			want, err := app.Eval(inputs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Eval(inputs)
			if err != nil {
				t.Fatalf("trial %d: mapped eval: %v", trial, err)
			}
			for name, w := range want {
				if got[name] != w {
					t.Fatalf("trial %d: output %s: mapped %d != reference %d", trial, name, got[name], w)
				}
			}
		}
	}
}

// TestFuzzMapMergedPEEquivalence repeats the fuzz with a merged PE that
// has complex rules: larger coverage of the matcher's absorption logic.
func TestFuzzMapMergedPEEquivalence(t *testing.T) {
	// MAC + select-accumulate patterns merged into the full baseline.
	mkPattern := func(build func(g *ir.Graph) ir.NodeRef) NamedPattern {
		g := ir.NewGraph("p")
		g.Output("o", build(g))
		return NamedPattern{Name: fmt.Sprintf("pat%d", g.NumNodes()), Graph: g}
	}
	p1 := mkPattern(func(g *ir.Graph) ir.NodeRef {
		return g.OpNode(ir.OpAdd, g.OpNode(ir.OpMul, g.Input("a"), g.Input("b")), g.Input("c"))
	})
	p2 := mkPattern(func(g *ir.Graph) ir.NodeRef {
		return g.OpNode(ir.OpSel, g.InputB("s"), g.OpNode(ir.OpAdd, g.Input("x"), g.Input("y")), g.Input("y"))
	})
	dp := merge.BaselinePE(ir.BaselineALUOps())
	for _, np := range []NamedPattern{p1, p2} {
		pdp, err := merge.FromPattern(np.Graph, np.Name)
		if err != nil {
			t.Fatal(err)
		}
		dp = merge.Merge(dp, pdp, merge.Options{})
	}
	spec := pe.FromDatapath("merged", dp)
	rs, err := SynthesizeRuleSet(spec, []NamedPattern{p1, p2}, ir.BaselineALUOps())
	if err != nil {
		t.Fatal(err)
	}
	hasComplex := false
	for _, r := range rs.Rules {
		if r.Size > 1 {
			hasComplex = true
		}
	}
	if !hasComplex {
		t.Fatal("merged PE synthesized no complex rules")
	}

	rng := rand.New(rand.NewSource(7777))
	for trial := 0; trial < 40; trial++ {
		app := randomApp(rng, 10+rng.Intn(25))
		m, err := MapApp(app, rs, "fuzz-merged")
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for check := 0; check < 6; check++ {
			inputs := map[string]uint16{}
			for _, in := range app.Inputs() {
				inputs[app.Nodes[in].Name] = uint16(rng.Intn(1 << 16))
			}
			want, _ := app.Eval(inputs)
			got, err := m.Eval(inputs)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for name, w := range want {
				if got[name] != w {
					t.Fatalf("trial %d: output %s: %d != %d", trial, name, got[name], w)
				}
			}
		}
	}
}

// randomPattern builds a small single-output compute pattern: a random
// expression tree over fresh inputs and constant parameters.
func randomPattern(rng *rand.Rand, maxDepth int) *ir.Graph {
	g := ir.NewGraph("pat")
	inputs := 0
	binOps := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpAshr, ir.OpUMin, ir.OpSMax, ir.OpXor}
	var gen func(depth int) ir.NodeRef
	gen = func(depth int) ir.NodeRef {
		if depth == 0 || rng.Float64() < 0.35 {
			if rng.Float64() < 0.3 {
				return g.Const(0)
			}
			inputs++
			return g.Input(fmt.Sprintf("p%d", inputs))
		}
		op := binOps[rng.Intn(len(binOps))]
		return g.OpNode(op, gen(depth-1), gen(depth-1))
	}
	g.Output("o", gen(maxDepth))
	return g
}

// TestFuzzRuleSynthesisNeverWrong: for random small patterns, if a rule
// synthesizes on the baseline PE, its configuration must be semantically
// correct (verifyRule runs inside synthesis; this re-validates from the
// outside via the functional model with fresh random constants).
func TestFuzzRuleSynthesisNeverWrong(t *testing.T) {
	spec := pe.FromDatapath("base", merge.BaselinePE(ir.BaselineALUOps()))
	rng := rand.New(rand.NewSource(31337))
	synthesized := 0
	for trial := 0; trial < 120; trial++ {
		pat := randomPattern(rng, 1+rng.Intn(2))
		if err := pat.Validate(); err != nil {
			t.Fatalf("trial %d: bad pattern: %v", trial, err)
		}
		rule, err := SynthesizeRule(spec, pat, fmt.Sprintf("fz%d", trial))
		if err != nil || rule == nil {
			continue // baseline PE has one FU per class: multi-op trees won't fit
		}
		synthesized++
		if err := verifyRule(rule, new(ruleVerifier)); err != nil {
			t.Fatalf("trial %d: synthesized rule fails re-verification: %v", trial, err)
		}
	}
	if synthesized < 10 {
		t.Fatalf("only %d rules synthesized — generator or synthesis broken", synthesized)
	}
}
