package graph

import (
	"math/rand"
	"testing"
)

// fuzzGraph decodes a small directed ported labeled graph from fuzz
// bytes: byte 0 picks the node count (1..6), then pairs of bytes add
// edges (from, to packed with the port). The decoder is total — every
// input produces a valid graph — so the fuzzer spends its budget on
// structure, not on parsing.
func fuzzGraph(data []byte) *Graph {
	labels := []string{"add", "mul", "sub", "shl", "const", "abs"}
	g := New()
	if len(data) == 0 {
		g.AddNode(labels[0])
		return g
	}
	n := 1 + int(data[0])%6
	for i := 0; i < n; i++ {
		l := 0
		if i+1 < len(data) {
			l = int(data[i+1]) % len(labels)
		}
		g.AddNode(labels[l])
	}
	rest := data[min(1+n, len(data)):]
	for i := 0; i+1 < len(rest); i += 2 {
		from := int(rest[i]) % n
		to := int(rest[i+1]) % n
		port := int(rest[i]>>4) % 3
		g.AddEdge(NodeID(from), NodeID(to), port)
	}
	return g
}

// FuzzCanonicalCode checks the two properties mining relies on:
//
//  1. Invariance — relabeling nodes by any permutation must not change
//     the code (otherwise the same pattern discovered through different
//     extension paths would not deduplicate).
//  2. Soundness — two graphs with equal codes must be isomorphic
//     (otherwise distinct patterns would silently merge and support
//     counts would be wrong).
//
// Graphs stay ≤ 6 nodes, far below the 200k-step safety valve, so the
// exact (non-fallback) code path is always the one under test.
func FuzzCanonicalCode(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0x01, 0x00}, int64(1))
	f.Add([]byte{3, 1, 1, 1, 0x00, 0x01, 0x11, 0x02}, int64(2))
	f.Add([]byte{4, 0, 0, 0, 0, 0x01, 0x02, 0x13, 0x00}, int64(3))
	f.Add([]byte{6, 5, 4, 3, 2, 1, 0}, int64(4))
	f.Add([]byte{1}, int64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		g := fuzzGraph(data)
		code := CanonicalCode(g)
		if code == "" {
			t.Fatalf("empty code for %s", g)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			p := permuteGraph(rng, g)
			if pc := CanonicalCode(p); pc != code {
				t.Fatalf("code not permutation-invariant:\n  %q for %s\n  %q for %s", code, g, pc, p)
			}
		}
		// Soundness against an independently derived second graph: when
		// the codes collide the graphs must really be isomorphic.
		if len(data) > 2 {
			h := fuzzGraph(data[2:])
			if CanonicalCode(h) == code && !Isomorphic(g, h) {
				t.Fatalf("code collision between non-isomorphic graphs:\n  %s\n  %s", g, h)
			}
		}
	})
}

// TestCanonicalCodeSeedPairsDistinct pins a corpus of structurally
// close but non-isomorphic pairs to distinct codes — the cases label
// multisets and degree sequences alone cannot separate.
func TestCanonicalCodeSeedPairsDistinct(t *testing.T) {
	mk := func(build func(g *Graph)) *Graph {
		g := New()
		build(g)
		return g
	}
	pairs := [][2]*Graph{
		{ // chain vs fan-in: same labels, same edge count.
			mk(func(g *Graph) {
				a, b, c := g.AddNode("mul"), g.AddNode("add"), g.AddNode("add")
				g.AddEdge(a, b, 0)
				g.AddEdge(b, c, 0)
			}),
			mk(func(g *Graph) {
				a, b, c := g.AddNode("mul"), g.AddNode("add"), g.AddNode("add")
				g.AddEdge(a, b, 0)
				g.AddEdge(a, c, 0)
			}),
		},
		{ // same shape, different port on one edge.
			mk(func(g *Graph) {
				a, b := g.AddNode("shl"), g.AddNode("sub")
				g.AddEdge(a, b, 0)
			}),
			mk(func(g *Graph) {
				a, b := g.AddNode("shl"), g.AddNode("sub")
				g.AddEdge(a, b, 1)
			}),
		},
		{ // single vs parallel edge (multigraph multiplicity).
			mk(func(g *Graph) {
				a, b := g.AddNode("add"), g.AddNode("add")
				g.AddEdge(a, b, 0)
			}),
			mk(func(g *Graph) {
				a, b := g.AddNode("add"), g.AddNode("add")
				g.AddEdge(a, b, 0)
				g.AddEdge(a, b, 0)
			}),
		},
		{ // direction flip.
			mk(func(g *Graph) {
				a, b := g.AddNode("const"), g.AddNode("mul")
				g.AddEdge(a, b, 1)
			}),
			mk(func(g *Graph) {
				a, b := g.AddNode("const"), g.AddNode("mul")
				g.AddEdge(b, a, 1)
			}),
		},
	}
	for i, pair := range pairs {
		a, b := CanonicalCode(pair[0]), CanonicalCode(pair[1])
		if a == b {
			t.Errorf("pair %d: non-isomorphic graphs share code %q:\n  %s\n  %s", i, a, pair[0], pair[1])
		}
	}
}

// FuzzDecodeBinaryGraph feeds arbitrary bytes to the graph decoder: it
// must return an error or a graph, never panic or allocate from an
// unchecked count. A graph that decodes must re-encode to bytes that
// decode to the same graph. Seeds are real encodings of small graphs.
func FuzzDecodeBinaryGraph(f *testing.F) {
	for _, seed := range [][]byte{{2, 0, 1, 0x01, 0x00}, {3, 1, 1, 1, 0x00, 0x01, 0x11, 0x02}, {6, 5, 4, 3, 2, 1, 0}} {
		f.Add(fuzzGraph(seed).AppendBinary(nil))
	}
	f.Add([]byte{0xcb, 0xcb, 0xcb, 0xcb, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := DecodeBinaryGraph(data)
		if err != nil {
			return
		}
		enc := g.AppendBinary(nil)
		again, rest, err := DecodeBinaryGraph(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded graph does not decode: %v (%d trailing bytes)", err, len(rest))
		}
		if string(again.AppendBinary(nil)) != string(enc) {
			t.Fatal("graph encoding is not stable across a decode")
		}
	})
}
