package costmodel

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"
)

// lcg is a tiny deterministic generator for synthetic feature vectors —
// test inputs must not depend on math/rand's global state.
type lcg struct{ s uint64 }

func (l *lcg) next() float64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return float64(l.s>>11) / float64(1<<53)
}

// synthSamples builds n samples whose labels are a known function of the
// features: area = linear combo, routability = step function (so stumps
// have something a linear model cannot express).
func synthSamples(n int, seed uint64) []Sample {
	r := &lcg{s: seed}
	nf := NumFeatures()
	out := make([]Sample, n)
	for i := range out {
		f := make([]float64, nf)
		for j := range f {
			f[j] = r.next() * 10
		}
		s := Sample{Features: f}
		s.Labels[TargetArea] = 1.0 + 0.05*f[0] - 0.02*f[3] + 0.01*f[7]
		s.Labels[TargetEnergy] = 1.2 + 0.03*f[1]
		s.Labels[TargetRuntime] = 1.0 + 0.01*f[2]
		if f[5] > 5 {
			s.Labels[TargetRoutability] = 0.2
		} else {
			s.Labels[TargetRoutability] = 1.0
		}
		out[i] = s
	}
	return out
}

func TestTrainRecoversLinearFunction(t *testing.T) {
	samples := synthSamples(200, 1)
	m, err := Train(context.Background(), samples, TrainOptions{Stumps: -1, Ridge: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[:50] {
		got := m.Predict(s.Features).AreaRatio
		if math.Abs(got-s.Labels[TargetArea]) > 0.02 {
			t.Fatalf("linear target not recovered: got %.4f want %.4f", got, s.Labels[TargetArea])
		}
	}
}

func TestStumpsImproveNonlinearTarget(t *testing.T) {
	samples := synthSamples(300, 2)
	linear, err := Train(context.Background(), samples, TrainOptions{Stumps: -1})
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := Train(context.Background(), samples, TrainOptions{Stumps: 40})
	if err != nil {
		t.Fatal(err)
	}
	lm := linear.Validate(samples)[TargetRoutability].MAE
	bm := boosted.Validate(samples)[TargetRoutability].MAE
	if bm >= lm {
		t.Fatalf("stumps did not reduce step-function error: linear MAE %.4f, boosted MAE %.4f", lm, bm)
	}
	if bm > 0.6*lm {
		t.Fatalf("stumps barely helped: linear MAE %.4f, boosted MAE %.4f", lm, bm)
	}
}

func TestTrainIsDeterministic(t *testing.T) {
	samples := synthSamples(120, 3)
	var prev []byte
	for i := 0; i < 3; i++ {
		m, err := Train(context.Background(), samples, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		enc := m.Encode()
		if prev != nil && !bytes.Equal(enc, prev) {
			t.Fatalf("run %d produced different model bytes", i)
		}
		prev = enc
	}
}

func TestModelCodecRoundTrip(t *testing.T) {
	samples := synthSamples(80, 4)
	m, err := Train(context.Background(), samples, TrainOptions{Stumps: 8})
	if err != nil {
		t.Fatal(err)
	}
	enc := m.Encode()
	got, err := DecodeModel(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("decode/encode round trip is not byte-identical")
	}
	for _, s := range samples[:10] {
		a, b := m.Predict(s.Features), got.Predict(s.Features)
		if a != b {
			t.Fatalf("decoded model predicts differently: %+v vs %+v", a, b)
		}
	}
	if _, err := DecodeModel(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated model decoded without error")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := DecodeModel(bad); err == nil {
		t.Fatal("bad magic decoded without error")
	}
}

func TestSampleCodecRoundTrip(t *testing.T) {
	s := synthSamples(1, 5)[0]
	enc := s.Encode()
	got, err := DecodeSample(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("sample round trip is not byte-identical")
	}
	if _, err := DecodeSample(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated sample decoded without error")
	}
}

// hugeSamplePayload is a 9-byte sample that declares 1<<20 features:
// magic, codec version 1, feature schema 1, then the uvarint count.
var hugeSamplePayload = []byte{'A', 'P', 'X', 'S', 1, 1, 0x80, 0x80, 0x40}

func TestDecodeSampleHugeCountIsError(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeSample(hugeSamplePayload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("sample declaring 1<<20 features in 9 bytes decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("rejecting a 9-byte sample allocated %d bytes", grew)
	}
}

func TestPredictClamps(t *testing.T) {
	samples := synthSamples(60, 6)
	m, err := Train(context.Background(), samples, TrainOptions{Stumps: -1})
	if err != nil {
		t.Fatal(err)
	}
	// A wildly out-of-distribution point must stay inside the clamps.
	far := make([]float64, NumFeatures())
	for j := range far {
		far[j] = 1e9
	}
	p := m.Predict(far)
	for _, v := range []float64{p.AreaRatio, p.EnergyRatio, p.RuntimeRatio} {
		if v < minRatio || v > maxRatio {
			t.Fatalf("ratio prediction %v escaped clamp [%v, %v]", v, minRatio, maxRatio)
		}
	}
	if p.Routability < 0 || p.Routability > 1 {
		t.Fatalf("routability %v escaped [0, 1]", p.Routability)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(context.Background(), nil, TrainOptions{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	bad := []Sample{{Features: []float64{1, 2, 3}}}
	if _, err := Train(context.Background(), bad, TrainOptions{}); err == nil {
		t.Fatal("wrong feature count accepted")
	}
}

func TestImportancesSumToOneAndSorted(t *testing.T) {
	samples := synthSamples(150, 7)
	m, err := Train(context.Background(), samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	imps := m.Importances()
	if len(imps) != NumFeatures() {
		t.Fatalf("got %d importances, want %d", len(imps), NumFeatures())
	}
	sum := 0.0
	for i, im := range imps {
		sum += im.Weight
		if i > 0 && im.Weight > imps[i-1].Weight {
			t.Fatal("importances not sorted descending")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v, want 1", sum)
	}
	// f[0] has the largest true coefficient on area; it should rank highly.
	top := map[string]bool{}
	for _, im := range imps[:8] {
		top[im.Name] = true
	}
	if !top[FeatureNames()[0]] {
		t.Fatalf("dominant feature %q not in top importances %v", FeatureNames()[0], imps[:8])
	}
}

func TestHyperStringReflectsResolvedDefaults(t *testing.T) {
	if (TrainOptions{}).Hyper() != (TrainOptions{Ridge: 1, Stumps: 24, Shrinkage: 0.3}).Hyper() {
		t.Fatal("zero-value options do not resolve to the defaults")
	}
	if (TrainOptions{Stumps: -1}).Hyper() == (TrainOptions{}).Hyper() {
		t.Fatal("disabled stumps indistinguishable from defaults")
	}
}

// decodeWithinBudget runs decode on data and fails t if it allocates
// more than a small multiple of the input: hostile bytes must be an
// error, never a huge allocation.
func decodeWithinBudget(t *testing.T, data []byte, decode func([]byte) error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode(data)
	runtime.ReadMemStats(&after)
	if grew, budget := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+8*len(data)); grew > budget {
		t.Fatalf("decoding %d bytes allocated %d bytes (budget %d)", len(data), grew, budget)
	}
	return err
}

// FuzzDecodeModel feeds arbitrary bytes to DecodeModel: an error or a
// model, never a panic or a huge allocation, and a model that decodes
// re-encodes to bytes that decode to the same encoding.
func FuzzDecodeModel(f *testing.F) {
	m, err := Train(context.Background(), synthSamples(40, 8), TrainOptions{Stumps: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m.Encode())
	f.Add([]byte{'A', 'P', 'X', 'M', 1, 1, 0, 0x80, 0x80, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Model
		err := decodeWithinBudget(t, data, func(b []byte) (err error) {
			got, err = DecodeModel(b)
			return err
		})
		if err != nil {
			return
		}
		enc := got.Encode()
		again, err := DecodeModel(enc)
		if err != nil || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("decoded model does not round-trip: %v", err)
		}
	})
}

// FuzzDecodeSample is FuzzDecodeModel for training samples.
func FuzzDecodeSample(f *testing.F) {
	f.Add(synthSamples(1, 9)[0].Encode())
	f.Add(hugeSamplePayload)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Sample
		err := decodeWithinBudget(t, data, func(b []byte) (err error) {
			got, err = DecodeSample(b)
			return err
		})
		if err != nil {
			return
		}
		enc := got.Encode()
		again, err := DecodeSample(enc)
		if err != nil || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("decoded sample does not round-trip: %v", err)
		}
	})
}
