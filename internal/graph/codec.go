package graph

import "repro/internal/wire"

// Binary codecs for the persistent result store (internal/store), on the
// shared internal/wire encoding. The encodings are exact round-trips:
// out- and in-adjacency lists are serialized separately in their stored
// order, so a decoded graph enumerates nodes, edges, and embeddings in
// byte-identical order to the original — which is what lets cached
// analyses reproduce downstream results (occurrence dedup, MIS ranking,
// pattern selection are all order-sensitive).

// AppendBinary writes the graph. Collection lengths carry nilness: graphs
// mix nil and empty-but-allocated adjacency rows depending on how they
// were built, and the round-trip must reproduce the original exactly —
// the store's codec tests compare with reflect.DeepEqual, which
// distinguishes the two.
func (g *Graph) AppendBinary(e *wire.Enc) {
	e.Len(len(g.labels), g.labels == nil)
	for _, l := range g.labels {
		e.String(l)
	}
	for _, adj := range [2][][]Edge{g.out, g.in} {
		for _, es := range adj {
			e.Len(len(es), es == nil)
			for _, ed := range es {
				e.Uvarint(uint64(ed.From))
				e.Uvarint(uint64(ed.To))
				e.Uvarint(uint64(ed.Port))
			}
		}
	}
}

// DecodeBinaryGraph reads a graph written by AppendBinary; errors are
// recorded in d. Every node takes at least three bytes (label length,
// out row, in row) and every edge three (its uvarint triple).
func DecodeBinaryGraph(d *wire.Dec) *Graph {
	g := &Graph{}
	n, isNil := d.Len(3)
	if !isNil {
		g.labels = make([]string, n)
		g.out = make([][]Edge, n)
		g.in = make([][]Edge, n)
	}
	for i := range g.labels {
		g.labels[i] = d.Str()
	}
	for _, adj := range [2][][]Edge{g.out, g.in} {
		for i := range adj {
			m, rowNil := d.Len(3)
			if rowNil {
				continue // row was nil in the original
			}
			es := make([]Edge, m)
			for j := range es {
				f, t, p := d.Uvarint(), d.Uvarint(), d.Uvarint()
				if f >= uint64(n) || t >= uint64(n) {
					d.Failf("graph edge endpoint out of range")
				}
				es[j] = Edge{From: NodeID(f), To: NodeID(t), Port: int(p)}
			}
			adj[i] = es
		}
	}
	return g
}

// AppendBinary writes the embedding list: its positions k, its count n,
// then the k·n node ids. A nil list encodes like an empty one with zero
// positions.
func (l *EmbeddingList) AppendBinary(e *wire.Enc) {
	if l == nil {
		e.Uvarint(0)
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(l.k))
	e.Uvarint(uint64(l.n))
	for _, v := range l.flat {
		e.Uvarint(uint64(uint32(v)))
	}
}

// DecodeBinaryEmbeddingList reads a list written by AppendBinary; errors
// are recorded in d.
func DecodeBinaryEmbeddingList(d *wire.Dec) *EmbeddingList {
	k, n := d.Dims(1)
	l := &EmbeddingList{k: k, n: n}
	if k*n == 0 {
		return l // keep flat nil, matching a fresh list exactly
	}
	l.flat = make([]int32, k*n)
	for i := range l.flat {
		l.flat[i] = int32(uint32(d.Uvarint()))
	}
	return l
}
