package rewrite

// The frozen references, for the suite-wide differential tests in
// equivalence_test.go (package rewrite_test, which can build the
// evaluation suite's PE variants without an import cycle).
var (
	MapAppReference            = mapAppReference
	SynthesizeRuleSetReference = synthesizeRuleSetReference
)
