package costmodel

import (
	"fmt"

	"repro/internal/wire"
)

// Deterministic binary codec for models and training samples, on the
// shared internal/wire encoding. The encoding is a pure function of the
// value (fixed field order, float64 bit patterns), so byte-identical
// models are exactly the models with identical weights — the determinism
// tests compare encoded bytes directly. Integers are uvarints and float
// slices carry a plain uvarint length: the format predates the shared
// codec, and stored models and samples keep their bytes.

const (
	modelMagic  = "APXM"
	sampleMagic = "APXS"
	codecVer    = 1
)

func putInt(e *wire.Enc, v int) { e.Uvarint(uint64(v)) }
func getInt(d *wire.Dec) int    { return int(d.Uvarint()) }

func putFloats(e *wire.Enc, vs []float64) {
	putInt(e, len(vs))
	for _, v := range vs {
		e.Float64(v)
	}
}

func getFloats(d *wire.Dec) []float64 {
	vs := make([]float64, d.Count(8))
	for i := range vs {
		vs[i] = d.Float64()
	}
	return vs
}

// newDec checks a payload's magic and codec version and returns a
// decoder over the rest.
func newDec(data []byte, magic string) (*wire.Dec, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("costmodel: decode: bad magic, want %s", magic)
	}
	d := wire.NewDec(data[len(magic):])
	if v := getInt(d); v != codecVer {
		return nil, fmt.Errorf("costmodel: decode %s: codec version %d, want %d", magic, v, codecVer)
	}
	return d, nil
}

// Encode serializes the model deterministically.
func (m *Model) Encode() []byte {
	e := &wire.Enc{Buf: []byte(modelMagic)}
	putInt(e, codecVer)
	putInt(e, m.Schema)
	putInt(e, m.SampleCount)
	putInt(e, len(m.Names))
	for _, n := range m.Names {
		e.String(n)
	}
	putFloats(e, m.Mean)
	putFloats(e, m.Scale)
	for t := 0; t < NumTargets; t++ {
		tm := &m.Targets[t]
		e.Float64(tm.Intercept)
		putFloats(e, tm.Weights)
		putInt(e, len(tm.Stumps))
		for _, s := range tm.Stumps {
			putInt(e, s.Feature)
			e.Float64(s.Threshold)
			e.Float64(s.Left)
			e.Float64(s.Right)
		}
	}
	return e.Buf
}

// DecodeModel parses a model encoded by Encode. A schema mismatch with
// the running binary is an error: a model trained on a different
// feature layout must be retrained, not misread.
func DecodeModel(data []byte) (*Model, error) {
	d, err := newDec(data, modelMagic)
	if err != nil {
		return nil, err
	}
	m := &Model{}
	m.Schema = getInt(d)
	m.SampleCount = getInt(d)
	if n := d.Count(1); n > 0 {
		m.Names = make([]string, n)
		for i := range m.Names {
			m.Names[i] = d.Str()
		}
	}
	m.Mean = getFloats(d)
	m.Scale = getFloats(d)
	for t := 0; t < NumTargets; t++ {
		tm := &m.Targets[t]
		tm.Intercept = d.Float64()
		tm.Weights = getFloats(d)
		if n := d.Count(25); n > 0 { // a uvarint and three float64s
			tm.Stumps = make([]Stump, n)
			for i := range tm.Stumps {
				tm.Stumps[i] = Stump{Feature: getInt(d), Threshold: d.Float64(), Left: d.Float64(), Right: d.Float64()}
			}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("costmodel: decode model: %w", err)
	}
	if m.Schema != FeatureSchemaVersion {
		return nil, fmt.Errorf("costmodel: model has feature schema %d, binary wants %d",
			m.Schema, FeatureSchemaVersion)
	}
	if len(m.Names) != NumFeatures() || len(m.Mean) != NumFeatures() || len(m.Scale) != NumFeatures() {
		return nil, fmt.Errorf("costmodel: model shape mismatch (%d names)", len(m.Names))
	}
	return m, nil
}

// Encode serializes one training sample deterministically.
func (s *Sample) Encode() []byte {
	e := &wire.Enc{Buf: []byte(sampleMagic)}
	putInt(e, codecVer)
	putInt(e, FeatureSchemaVersion)
	putFloats(e, s.Features)
	for _, l := range s.Labels {
		e.Float64(l)
	}
	return e.Buf
}

// DecodeSample parses a sample encoded by Sample.Encode. Samples from a
// different feature schema decode to an error — the trainer skips them.
func DecodeSample(data []byte) (*Sample, error) {
	d, err := newDec(data, sampleMagic)
	if err != nil {
		return nil, err
	}
	schema := getInt(d)
	s := &Sample{Features: getFloats(d)}
	for t := range s.Labels {
		s.Labels[t] = d.Float64()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("costmodel: decode sample: %w", err)
	}
	if schema != FeatureSchemaVersion {
		return nil, fmt.Errorf("costmodel: sample has feature schema %d, binary wants %d",
			schema, FeatureSchemaVersion)
	}
	if len(s.Features) != NumFeatures() {
		return nil, fmt.Errorf("costmodel: sample has %d features, want %d", len(s.Features), NumFeatures())
	}
	return s, nil
}
