package rewrite_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ir"
	"repro/internal/rewrite"
)

// suiteVariant is one PE variant of the evaluation suite together with
// the inputs its rule set was synthesized from.
type suiteVariant struct {
	v     *core.PEVariant
	named []rewrite.NamedPattern
	ops   []ir.Op
}

// suiteVariants builds every PE variant the evaluation suite uses — the
// baseline, camera PE 1–4, the specialized PE of each of the nine apps,
// and the four domain PEs — through the harness, and reconstructs each
// one's synthesis inputs the way core.GeneratePE and eval.DomainPE
// assemble them.
func suiteVariants(t *testing.T) []suiteVariant {
	t.Helper()
	h := eval.NewHarness()
	h.FastMode = true
	var out []suiteVariant
	add := func(v *core.PEVariant, err error, named []rewrite.NamedPattern, ops []ir.Op) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, suiteVariant{v: v, named: named, ops: ops})
	}
	mined := func(name string, chosen []*apps.App, perApp int, extra map[string]int) []rewrite.NamedPattern {
		t.Helper()
		var named []rewrite.NamedPattern
		seen := map[string]bool{}
		for _, a := range chosen {
			for i, r := range core.SelectPatterns(h.Analysis(a), perApp+extra[a.Name]) {
				label := fmt.Sprintf("%s_sg%d", name, i)
				if len(chosen) > 1 {
					if seen[r.Pattern.Code] {
						continue
					}
					seen[r.Pattern.Code] = true
					label = fmt.Sprintf("%s_%s%d", name, a.Name, i)
				}
				np, err := rewrite.PatternFromMined(r.Pattern.Graph, label)
				if err != nil {
					t.Fatal(err)
				}
				named = append(named, np)
			}
		}
		return named
	}

	base, err := h.Baseline()
	add(base, err, nil, ir.BaselineALUOps())
	camera := apps.Camera()
	for k := 1; k <= 4; k++ {
		v, err := h.LadderPE(camera, k)
		add(v, err, mined(v.Name, []*apps.App{camera}, k-1, nil), withControlOps(camera.UsedOps()))
	}
	for _, a := range apps.All() {
		v, err := h.SpecializedPE(a)
		add(v, err, mined("spec_"+a.Name, []*apps.App{a}, 3, nil), withControlOps(a.UsedOps()))
	}
	domain := func(v *core.PEVariant, err error, members []*apps.App, perApp int, extra map[string]int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		add(v, err, mined(v.Name, members, perApp, extra), withControlOps(core.UnionOps(members)))
	}
	v, err := h.PEIP()
	domain(v, err, apps.AnalyzedIP(), 1, nil)
	v, err = h.PEIP2()
	domain(v, err, apps.AnalyzedIP(), 2, nil)
	v, err = h.PEIP3()
	domain(v, err, apps.AnalyzedIP(), 1, map[string]int{"camera": 2})
	v, err = h.PEML()
	domain(v, err, apps.AnalyzedML(), 2, nil)
	return out
}

// withControlOps mirrors core's: ops deduplicated in order, then the
// control ops not already present.
func withControlOps(ops []ir.Op) []ir.Op {
	seen := map[ir.Op]bool{}
	var out []ir.Op
	for _, op := range append(append([]ir.Op(nil), ops...), core.ControlOps...) {
		if !seen[op] {
			seen[op] = true
			out = append(out, op)
		}
	}
	return out
}

// TestSynthesizeRuleSetMatchesReference requires rule synthesis with the
// flat-scratch verifier to produce, for every suite variant, exactly the
// rule set (names, configurations, port and constant bindings, failed
// patterns) that synthesis with the frozen map-based verifier produces.
// It first checks the reconstructed inputs reproduce the suite's own
// rule set, so the comparison covers what the suite runs.
func TestSynthesizeRuleSetMatchesReference(t *testing.T) {
	for _, sv := range suiteVariants(t) {
		got, err := rewrite.SynthesizeRuleSet(sv.v.Spec, sv.named, sv.ops)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sv.v.Rules) {
			t.Fatalf("%s: reconstructed synthesis inputs do not reproduce the suite's rule set", sv.v.Name)
		}
		want, err := rewrite.SynthesizeRuleSetReference(sv.v.Spec, sv.named, sv.ops)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rule set differs from the reference:\n got %s\nwant %s",
				sv.v.Name, ruleSetSummary(got), ruleSetSummary(want))
		}
	}
}

func ruleSetSummary(rs *rewrite.RuleSet) string {
	s := fmt.Sprintf("failed %v;", rs.Failed)
	for _, r := range rs.Rules {
		s += fmt.Sprintf(" %s%v", r.Name, r.Config)
	}
	return s
}

// TestMapAppMatchesReference requires the flat-scratch instruction
// selector to produce, for all nine apps on every suite variant, a
// mapped graph identical to the frozen map-based mapper's — node kinds,
// rules, DataIn/BitIn producers, per-site constants and LUT tables — or
// the same error.
func TestMapAppMatchesReference(t *testing.T) {
	mapped := 0
	for _, sv := range suiteVariants(t) {
		for _, a := range apps.All() {
			name := a.Name + "@" + sv.v.Name
			got, gotErr := rewrite.MapApp(a.Graph, sv.v.Rules, name)
			want, wantErr := rewrite.MapAppReference(a.Graph, sv.v.Rules, name)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			mapped++
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: mapped graph differs from the reference", name)
			}
		}
	}
	// Specialized PEs lack other apps' ops, so most cross pairs fail
	// (identically); the baseline and domain PEs map the rest.
	if mapped < 40 {
		t.Fatalf("only %d app/variant pairs mapped — suite construction broken", mapped)
	}
}
