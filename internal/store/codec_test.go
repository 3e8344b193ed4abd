package store

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/rewrite"
)

// The codecs must round-trip *exactly*: downstream algorithms (occurrence
// dedup, MIS ranking, pattern selection, instruction selection) are
// order-sensitive, so a decoded value that is merely equivalent — same
// sets, different order — would change published numbers. These tests
// push real pipeline artifacts through encode/decode and require deep
// equality.

func pipelineFixtures(t testing.TB) (*core.Framework, *apps.App, *core.Analysis, *core.PEVariant, *core.Result) {
	t.Helper()
	fw := core.New()
	fw.MineWorkers = 1
	app := apps.Harris()
	a, err := fw.Analyze(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	v, err := fw.GeneratePE(context.Background(), "codec_test_pe", app.UsedOps(), core.SelectPatterns(a, 2))
	if err != nil {
		t.Fatal(err)
	}
	r, err := fw.Evaluate(context.Background(), app, v, core.PostMapping)
	if err != nil {
		t.Fatal(err)
	}
	return fw, app, a, v, r
}

func TestAnalysisRoundTrip(t *testing.T) {
	_, _, a, _, _ := pipelineFixtures(t)
	dec, err := DecodeAnalysis(EncodeAnalysis(a))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, dec) {
		t.Fatal("analysis did not round-trip exactly")
	}
	// Re-encoding the decoded value must be byte-identical (canonical
	// encoding — no map-order leakage).
	if string(EncodeAnalysis(dec)) != string(EncodeAnalysis(a)) {
		t.Fatal("re-encoding is not canonical")
	}
}

func TestVariantRoundTrip(t *testing.T) {
	fw, _, _, v, _ := pipelineFixtures(t)
	dec, err := DecodeVariant(EncodeVariant(v), fw.Tech)
	if err != nil {
		t.Fatal(err)
	}
	// Spec and Pipelined are rebuilt (not stored); the rebuild is
	// deterministic, so the whole variant must still compare deep-equal.
	if !reflect.DeepEqual(v, dec) {
		t.Fatal("variant did not round-trip exactly")
	}
	if string(EncodeVariant(dec)) != string(EncodeVariant(v)) {
		t.Fatal("re-encoding is not canonical")
	}
}

func TestResultRoundTrip(t *testing.T) {
	_, _, _, _, r := pipelineFixtures(t)
	dec, err := DecodeResult(EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	// The artifacts are dropped by design; everything else must survive.
	want := *r
	want.Mapped, want.Balanced, want.Routing = nil, nil, nil
	if !reflect.DeepEqual(&want, dec) {
		t.Fatalf("result did not round-trip exactly:\nwant %+v\ngot  %+v", &want, dec)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	_, _, a, _, _ := pipelineFixtures(t)
	data := EncodeAnalysis(a)
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := DecodeAnalysis(data[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	if _, err := DecodeAnalysis(append(append([]byte{}, data...), 0xFF)); err == nil {
		t.Fatal("trailing byte not detected")
	}
}

func TestKeySensitivity(t *testing.T) {
	fw := core.New()
	app := apps.Camera()
	ah := AppHash(app)
	base := AnalysisKey(ah, fw)

	fw2 := core.New()
	fw2.MinSupport = 7
	if AnalysisKey(ah, fw2) == base {
		t.Fatal("analysis key ignores MinSupport")
	}
	fw3 := core.New()
	fw3.MaxPatternNodes = 5
	if AnalysisKey(ah, fw3) == base {
		t.Fatal("analysis key ignores MaxPatternNodes")
	}
	if AppHash(apps.Harris()) == ah {
		t.Fatal("app hash ignores the app")
	}

	reg := RegistryHash()
	vk := VariantKey("pe", reg, fw)
	rk := ResultKey(ah, vk, fw, true, true)
	if ResultKey(ah, vk, fw, false, true) == rk {
		t.Fatal("result key ignores the evaluation level")
	}
	fw4 := core.New()
	fw4.PlaceSeed = 99
	if ResultKey(ah, vk, fw4, true, true) == rk {
		t.Fatal("result key ignores the placement seed")
	}
	fw5 := core.New()
	fw5.Fabric.W = 16
	if ResultKey(ah, vk, fw5, true, true) == rk {
		t.Fatal("result key ignores the fabric size")
	}
}

// oomPayload declares an enormous node count in six bytes. The graph
// decoder used to make() the node slices before reading any of them,
// which killed the process with an unrecoverable out-of-memory error.
var oomPayload = []byte{0xcb, 0xcb, 0xcb, 0xcb, 0xff, 0x7f}

func TestDecodeHugeCountIsError(t *testing.T) {
	if _, err := DecodeAnalysis(oomPayload); err == nil {
		t.Fatal("payload declaring a huge node count decoded without error")
	}
}

// FuzzDecode feeds arbitrary bytes to the store's Decode* functions
// (the first byte picks which): hostile or corrupt payloads must come
// back as errors, never as a panic or an unbounded allocation, and every
// variant that does decode carries only rules valid for its spec. The
// seed corpus is real pipeline encodings plus the OOM regression payload.
func FuzzDecode(f *testing.F) {
	fw, _, a, v, r := pipelineFixtures(f)
	for kind, payload := range [][]byte{EncodeAnalysis(a), EncodeVariant(v), EncodeResult(r)} {
		f.Add(byte(kind), payload)
	}
	f.Add(byte(0), oomPayload)
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		switch kind % 3 {
		case 0:
			DecodeAnalysis(data)
		case 1:
			v, err := DecodeVariant(data, fw.Tech)
			if err != nil {
				return
			}
			for _, r := range v.Rules.Rules {
				if err := r.Validate(); err != nil {
					t.Fatalf("decoded variant holds an invalid rule: %v", err)
				}
			}
		case 2:
			DecodeResult(data)
		}
	})
}

// TestDecodeVariantRejectsOutOfSpecRule encodes a well-formed variant
// whose first rule points outside its PE — an output unit far past the
// datapath and an operation select on a unit that does not exist. The
// bytes parse, but the rule could never configure the spec it is stored
// with, so decoding must fail rather than hand the rule to the mapper.
func TestDecodeVariantRejectsOutOfSpecRule(t *testing.T) {
	fw, _, _, v, _ := pipelineFixtures(t)
	r := *v.Rules.Rules[0]
	r.OutUnit = 1 << 20
	r.Config = r.Config.Clone()
	r.Config.OpSel[len(v.Spec.DP.Units)+5] = ir.OpAdd
	tampered := *v
	tampered.Rules = &rewrite.RuleSet{Spec: v.Spec, Rules: append([]*rewrite.Rule{&r}, v.Rules.Rules[1:]...)}
	if _, err := DecodeVariant(EncodeVariant(&tampered), fw.Tech); err == nil {
		t.Fatal("variant with an out-of-range rule decoded without error")
	}
}
