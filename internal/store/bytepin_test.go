package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/mining"
	"repro/internal/mis"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/codec_digests.txt")

// codecDigests returns the sha256 of every pinned payload, in a fixed
// order. The payloads cover each binary codec a cache entry can hold:
// the store's analysis, variant and result codecs on real pipeline
// artifacts, a trained cost model and a training sample, and a graph and
// an embedding list on their own. The graph and the embedding list go
// through EncodeAnalysis, the store's public entry to them: a bare
// graph is the analysis {View: g} minus its trailing nil-Ranked byte.
func codecDigests(t *testing.T) [][2]string {
	_, _, a, v, r := pipelineFixtures(t)

	samples := make([]costmodel.Sample, 40)
	seed := uint64(7)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(1<<53)
	}
	for i := range samples {
		f := make([]float64, costmodel.NumFeatures())
		for j := range f {
			f[j] = next() * 10
		}
		samples[i].Features = f
		for k := range samples[i].Labels {
			samples[i].Labels[k] = 0.5 + f[k]/10
		}
	}
	model, err := costmodel.Train(context.Background(), samples, costmodel.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}

	g := graph.New()
	x, y, z := g.AddNode("input"), g.AddNode("const"), g.AddNode("add")
	g.AddEdge(x, z, 0)
	g.AddEdge(y, z, 1)
	g.AddNode("output")
	graphPayload := EncodeAnalysis(&core.Analysis{View: g})
	graphPayload = graphPayload[:len(graphPayload)-1]

	emb := graph.EmbeddingListFromRows(3, []graph.Embedding{{0, 1, 2}, {2, 1, 0}, {1, 200, 3}})
	embPayload := EncodeAnalysis(&core.Analysis{View: graph.New(), Ranked: []mis.Ranked{
		{Pattern: mining.Pattern{Graph: g, Embeddings: emb}},
	}})

	payloads := []struct {
		name string
		data []byte
	}{
		{"analysis", EncodeAnalysis(a)},
		{"variant", EncodeVariant(v)},
		{"result", EncodeResult(r)},
		{"costmodel.model", model.Encode()},
		{"costmodel.sample", samples[0].Encode()},
		{"graph", graphPayload},
		{"graph.embeddings", embPayload},
	}
	out := make([][2]string, len(payloads))
	for i, p := range payloads {
		sum := sha256.Sum256(p.data)
		out[i] = [2]string{p.name, hex.EncodeToString(sum[:])}
	}
	return out
}

// TestCodecBytesPinned pins the exact bytes of every binary codec to
// digests committed under testdata/. Any change to a wire format —
// field order, integer encoding, nil framing — changes a digest; such a
// change must bump the format's version (SchemaVersion, the cost
// model's codec version) and regenerate the file with -update.
func TestCodecBytesPinned(t *testing.T) {
	var b strings.Builder
	for _, d := range codecDigests(t) {
		fmt.Fprintf(&b, "%s %s\n", d[0], d[1])
	}
	path := filepath.Join("testdata", "codec_digests.txt")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("codec bytes changed:\ngot\n%swant\n%s", b.String(), want)
	}
}
