package graph

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary codecs for the persistent result store (internal/store). The
// encodings are exact round-trips: out- and in-adjacency lists are
// serialized separately in their stored order, so a decoded graph
// enumerates nodes, edges, and embeddings in byte-identical order to the
// original — which is what lets cached analyses reproduce downstream
// results (occurrence dedup, MIS ranking, pattern selection are all
// order-sensitive). The format is length-prefixed throughout (uvarint),
// self-delimiting, and versioned by the store envelope, not here.

// AppendBinary appends a self-delimiting binary encoding of the graph.
// Collection lengths carry nilness (0 = nil, n+1 = present): graphs mix
// nil and empty-but-allocated adjacency rows depending on how they were
// built, and the round-trip must reproduce the original exactly — the
// store's codec tests compare with reflect.DeepEqual, which
// distinguishes the two.
func (g *Graph) AppendBinary(buf []byte) []byte {
	appendLen := func(n int, isNil bool) {
		if isNil {
			buf = binary.AppendUvarint(buf, 0)
			return
		}
		buf = binary.AppendUvarint(buf, uint64(n)+1)
	}
	appendLen(len(g.labels), g.labels == nil)
	for _, l := range g.labels {
		buf = binary.AppendUvarint(buf, uint64(len(l)))
		buf = append(buf, l...)
	}
	appendAdj := func(adj [][]Edge) {
		for _, es := range adj {
			appendLen(len(es), es == nil)
			for _, e := range es {
				buf = binary.AppendUvarint(buf, uint64(e.From))
				buf = binary.AppendUvarint(buf, uint64(e.To))
				buf = binary.AppendUvarint(buf, uint64(e.Port))
			}
		}
	}
	appendAdj(g.out)
	appendAdj(g.in)
	return buf
}

// DecodeBinaryGraph decodes a graph produced by AppendBinary and returns
// the remaining bytes. Hostile input is an error, never a huge
// allocation: every node and every edge takes at least one encoded byte,
// so a count larger than the remaining bytes is rejected before make.
func DecodeBinaryGraph(data []byte) (*Graph, []byte, error) {
	nv, data, err := decodeUvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: decode node count: %w", err)
	}
	g := &Graph{}
	var n uint64
	if nv != 0 {
		n = nv - 1
		if n > uint64(len(data)) {
			return nil, nil, fmt.Errorf("graph: node count %d exceeds payload", n)
		}
		g.labels = make([]string, n)
		g.out = make([][]Edge, n)
		g.in = make([][]Edge, n)
	}
	for i := range g.labels {
		var l uint64
		l, data, err = decodeUvarint(data)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: decode label length: %w", err)
		}
		if uint64(len(data)) < l {
			return nil, nil, fmt.Errorf("graph: truncated label")
		}
		g.labels[i] = string(data[:l])
		data = data[l:]
	}
	decodeAdj := func(adj [][]Edge) error {
		for i := range adj {
			var mv uint64
			mv, data, err = decodeUvarint(data)
			if err != nil {
				return fmt.Errorf("graph: decode edge count: %w", err)
			}
			if mv == 0 {
				continue // row was nil in the original
			}
			m := mv - 1
			if m > uint64(len(data)) {
				return fmt.Errorf("graph: edge count %d exceeds payload", m)
			}
			es := make([]Edge, m)
			for j := range es {
				var f, t, p uint64
				if f, data, err = decodeUvarint(data); err != nil {
					return err
				}
				if t, data, err = decodeUvarint(data); err != nil {
					return err
				}
				if p, data, err = decodeUvarint(data); err != nil {
					return err
				}
				if f >= n || t >= n {
					return fmt.Errorf("graph: edge endpoint out of range")
				}
				es[j] = Edge{From: NodeID(f), To: NodeID(t), Port: int(p)}
			}
			adj[i] = es
		}
		return nil
	}
	if err := decodeAdj(g.out); err != nil {
		return nil, nil, err
	}
	if err := decodeAdj(g.in); err != nil {
		return nil, nil, err
	}
	return g, data, nil
}

// AppendBinary appends a self-delimiting encoding of the embedding list.
// A nil list encodes like an empty one with zero positions.
func (l *EmbeddingList) AppendBinary(buf []byte) []byte {
	if l == nil {
		buf = binary.AppendUvarint(buf, 0)
		buf = binary.AppendUvarint(buf, 0)
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(l.k))
	buf = binary.AppendUvarint(buf, uint64(l.n))
	for _, v := range l.flat {
		buf = binary.AppendUvarint(buf, uint64(uint32(v)))
	}
	return buf
}

// DecodeBinaryEmbeddingList decodes a list produced by AppendBinary and
// returns the remaining bytes.
func DecodeBinaryEmbeddingList(data []byte) (*EmbeddingList, []byte, error) {
	k, data, err := decodeUvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: decode embedding positions: %w", err)
	}
	n, data, err := decodeUvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: decode embedding count: %w", err)
	}
	// Each element is at least one byte; the division also keeps k*n
	// from overflowing.
	if k > math.MaxInt32 || n > math.MaxInt32 || (n != 0 && k > uint64(len(data))/n) {
		return nil, nil, fmt.Errorf("graph: truncated embedding list")
	}
	l := &EmbeddingList{k: int(k), n: int(n)}
	total := k * n
	if total == 0 {
		return l, data, nil // keep flat nil, matching a fresh list exactly
	}
	l.flat = make([]int32, total)
	for i := range l.flat {
		var v uint64
		v, data, err = decodeUvarint(data)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: decode embedding element: %w", err)
		}
		l.flat[i] = int32(uint32(v))
	}
	return l, data, nil
}

// decodeUvarint reads one uvarint off the front of data.
func decodeUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("graph: bad uvarint")
	}
	return v, data[n:], nil
}
