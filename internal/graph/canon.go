package graph

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// CanonicalCode returns a string that is identical for isomorphic graphs
// and distinct for non-isomorphic ones. It is intended for the small
// pattern graphs produced by frequent subgraph mining (≤ ~16 nodes); the
// cost is exponential in the worst case but invariant refinement keeps it
// fast for realistic dataflow patterns.
//
// Hot loops that canonicalize many graphs against one workload should
// hold a Canonizer and call Code instead: same bytes, amortized scratch.
// This wrapper draws from a pool, so occasional callers still reuse warm
// scratch without sharing state across goroutines.
func CanonicalCode(g *Graph) string {
	c := canonPool.Get().(*Canonizer)
	code := c.Code(g)
	canonPool.Put(c)
	return code
}

var canonPool = sync.Pool{New: func() any { return &Canonizer{} }}

// Canonizer computes canonical codes with reusable scratch: invariant
// strings are interned in a persistent cache (the same few label/degree
// strings recur across every pattern of one mining run), refinement
// buffers and the ordering-search state are reused across calls, and
// candidate orderings are compared as bytes so only the winning code is
// materialized. The emitted bytes are exactly CanonicalCode's — codes
// appear in mined Pattern values, golden tables, and the reference-miner
// equivalence suite, so the encoding must never drift (see the legacy
// differential test).
//
// A Canonizer is NOT safe for concurrent use.
type Canonizer struct {
	interned map[string]string
	labTab   map[string]*canonLabelTab
	lts      []*canonLabelTab // per-node label table of the current call
	inv      []string
	base     []string
	nextB    [][]byte // per-node composite invariant, built in place
	chunks   [][]byte // per-edge neighbor descriptors of the current node
	keysB    [][]byte // distinct composites, sorted (aliases into nextB)
	keyNode  []int32  // a representative node per keysB entry
	classStr []string // interned per-class invariant, aligned with keysB
	cands    []canonCand
	perm     []NodeID
	used     []bool
	best     []byte
	enc      canonEncoder
}

type canonCand struct {
	v   NodeID
	inv string
}

// canonLabelTab caches the derived invariant strings of one label: the
// seed invariant by (in-degree, out-degree) and the per-class string by
// class index. Steady state turns per-node string interning into array
// indexing — labels, degrees, and class counts all come from tiny sets.
type canonLabelTab struct {
	seed  []string // indexed din*canonDegCap+dout; "" = not built yet
	class []string // indexed by class index; "" = not built yet
}

const canonDegCap = 16 // seed cache covers degrees < 16; larger fall back

// intern returns the canonical string for b, allocating only the first
// time a value is seen.
func (c *Canonizer) intern(b []byte) string {
	if s, ok := c.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	c.interned[s] = s
	return s
}

// appendSeedInv appends the iteration-0 invariant "label/din/dout".
func appendSeedInv(dst []byte, label string, din, dout int) []byte {
	dst = append(dst, label...)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(din), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(dout), 10)
	return dst
}

// appendNeighbors appends one node's neighbor descriptors — "port>inv"
// for outgoing (dir '>'), "port<inv" for incoming (dir '<') — sorted
// bytewise and comma-joined, to dst. Descriptors are built in reused
// per-edge buffers; nothing is allocated in steady state.
func (c *Canonizer) appendNeighbors(dst []byte, edges []Edge, dir byte, out bool, inv []string) []byte {
	for len(c.chunks) < len(edges) {
		c.chunks = append(c.chunks, nil)
	}
	for i, e := range edges {
		other := e.From
		if out {
			other = e.To
		}
		ch := strconv.AppendInt(c.chunks[i][:0], int64(e.Port), 10)
		ch = append(ch, dir)
		ch = append(ch, inv[other]...)
		c.chunks[i] = ch
	}
	ck := c.chunks[:len(edges)]
	for i := 1; i < len(ck); i++ {
		for j := i; j > 0 && bytes.Compare(ck[j], ck[j-1]) < 0; j-- {
			ck[j], ck[j-1] = ck[j-1], ck[j]
		}
	}
	for i, ch := range ck {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, ch...)
	}
	return dst
}

// Code returns the canonical code of g. Byte-identical to CanonicalCode.
func (c *Canonizer) Code(g *Graph) string {
	n := g.NumNodes()
	if n == 0 {
		return "∅"
	}
	if c.interned == nil {
		c.interned = make(map[string]string)
		c.labTab = make(map[string]*canonLabelTab)
	}

	// Iteratively refined node invariants: start from (label, degrees),
	// then fold in neighbor invariants. Nodes with distinct invariants can
	// never map to each other, which prunes the ordering search
	// dramatically. Composite invariants are built and compared as bytes
	// in reused buffers; only the short per-class strings are interned.
	//
	// The legacy formulation ran exactly n refinement iterations (its
	// "changed" test compared a composite against its own strict prefix,
	// so it never broke early). This loop instead stops at the exact
	// string fixed point — refine(inv) == inv — which the remaining
	// iterations would only reproduce, so the final invariant array is
	// byte-identical to running all n.
	if cap(c.inv) < n {
		c.inv = make([]string, n)
		c.base = make([]string, n)
		c.nextB = append(c.nextB, make([][]byte, n-len(c.nextB))...)
	}
	inv, base := c.inv[:n], c.base[:n]
	nextB := c.nextB[:n]
	for len(c.lts) < n {
		c.lts = append(c.lts, nil)
	}
	buf := c.enc.buf
	for v := 0; v < n; v++ {
		label := g.Label(NodeID(v))
		lt := c.labTab[label]
		if lt == nil {
			lt = &canonLabelTab{}
			c.labTab[label] = lt
		}
		c.lts[v] = lt
		din, dout := g.InDegree(NodeID(v)), g.OutDegree(NodeID(v))
		if din < canonDegCap && dout < canonDegCap {
			idx := din*canonDegCap + dout
			for len(lt.seed) <= idx {
				lt.seed = append(lt.seed, "")
			}
			if lt.seed[idx] == "" {
				buf = appendSeedInv(buf[:0], label, din, dout)
				lt.seed[idx] = c.intern(buf)
			}
			inv[v] = lt.seed[idx]
			continue
		}
		buf = appendSeedInv(buf[:0], label, din, dout)
		inv[v] = c.intern(buf)
	}
	for iter := 0; iter < n; iter++ {
		for v := 0; v < n; v++ {
			nb := append(nextB[v][:0], inv[v]...)
			nb = append(nb, '{')
			nb = c.appendNeighbors(nb, g.Out(NodeID(v)), '>', true, inv)
			nb = append(nb, '|')
			nb = c.appendNeighbors(nb, g.In(NodeID(v)), '<', false, inv)
			nb = append(nb, '}')
			nextB[v] = nb
		}
		// Compress composite invariants to class indices to keep them
		// short: distinct composites, sorted, define the class order.
		// Nodes in one class share a label (the composite starts with the
		// node's invariant, which starts with its label), so the class
		// string is interned once per class, not once per node.
		c.keysB = c.keysB[:0]
		c.keyNode = c.keyNode[:0]
		for v := 0; v < n; v++ {
			dup := false
			for _, k := range c.keysB {
				if bytes.Equal(k, nextB[v]) {
					dup = true
					break
				}
			}
			if !dup {
				c.keysB = append(c.keysB, nextB[v])
				c.keyNode = append(c.keyNode, int32(v))
			}
		}
		for i := 1; i < len(c.keysB); i++ {
			for j := i; j > 0 && bytes.Compare(c.keysB[j], c.keysB[j-1]) < 0; j-- {
				c.keysB[j], c.keysB[j-1] = c.keysB[j-1], c.keysB[j]
				c.keyNode[j], c.keyNode[j-1] = c.keyNode[j-1], c.keyNode[j]
			}
		}
		c.classStr = c.classStr[:0]
		for i := range c.keysB {
			rep := c.keyNode[i]
			lt := c.lts[rep]
			for len(lt.class) <= i {
				lt.class = append(lt.class, "")
			}
			if lt.class[i] == "" {
				buf = append(buf[:0], g.Label(NodeID(rep))...)
				buf = append(buf, "·c"...)
				buf = strconv.AppendInt(buf, int64(i), 10)
				lt.class[i] = c.intern(buf)
			}
			c.classStr = append(c.classStr, lt.class[i])
		}
		stable := true
		for v := 0; v < n; v++ {
			idx := 0
			for ; !bytes.Equal(c.keysB[idx], nextB[v]); idx++ {
			}
			base[v] = c.classStr[idx]
			if base[v] != inv[v] {
				stable = false
			}
		}
		if stable {
			break // refine(inv) == inv: further iterations are no-ops
		}
		inv, base = base, inv
	}
	c.enc.buf = buf

	// Backtracking search over orderings consistent with the invariant
	// classes; keep the lexicographically smallest code. Candidates are
	// ordered by (invariant, id) — a total order, so the insertion sort
	// reproduces exactly what any comparison sort would.
	if cap(c.cands) < n {
		c.cands = make([]canonCand, n)
	}
	cands := c.cands[:n]
	for v := 0; v < n; v++ {
		cands[v] = canonCand{NodeID(v), inv[v]}
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := &cands[j-1], &cands[j]
			if a.inv < b.inv || (a.inv == b.inv && a.v < b.v) {
				break
			}
			*a, *b = *b, *a
		}
	}

	c.enc.prepare(g, n)
	if cap(c.perm) < n {
		c.perm = make([]NodeID, 0, n)
		c.used = make([]bool, n)
	}
	perm := c.perm[:0]
	used := c.used[:n]
	for v := range used {
		used[v] = false
	}
	c.best = c.best[:0]
	found := false
	var rec func()
	steps := 0
	rec = func() {
		steps++
		if steps > 200_000 {
			return // safety valve; dedup falls back to a coarser key
		}
		if len(perm) == n {
			code := c.enc.encode(perm)
			if !found || bytes.Compare(code, c.best) < 0 {
				found = true
				c.best = append(c.best[:0], code...)
			}
			return
		}
		// Only extend with candidates in the lexicographically smallest
		// eligible invariant class to bound branching.
		var classInv string
		for i := range cands {
			if !used[cands[i].v] {
				classInv = cands[i].inv
				break
			}
		}
		for i := range cands {
			cd := cands[i]
			if used[cd.v] || cd.inv != classInv {
				continue
			}
			used[cd.v] = true
			perm = append(perm, cd.v)
			rec()
			perm = perm[:len(perm)-1]
			used[cd.v] = false
		}
	}
	rec()
	if !found {
		// Budget exhausted: fall back to an invariant-multiset key. It is
		// iso-invariant but may (rarely) collide; mining treats collisions
		// as duplicates, which only under-reports a pattern.
		all := make([]string, n)
		copy(all, inv)
		sort.Strings(all)
		return "~" + strings.Join(all, ";")
	}
	// Codes repeat heavily across a mining run (duplicate candidates are
	// the common case), so the final string is interned too.
	return c.intern(c.best)
}

type canonTriple struct{ f, t, p int32 }

// canonEncoder renders one node ordering as a code byte string, sharing
// the edge list and scratch across the permutations one Code call
// explores. The returned slice is valid until the next encode call.
type canonEncoder struct {
	g    *Graph
	all  []Edge
	rank []int32
	es   []canonTriple
	buf  []byte
}

func (c *canonEncoder) prepare(g *Graph, n int) {
	c.g = g
	c.all = c.all[:0]
	for v := 0; v < n; v++ {
		c.all = append(c.all, g.Out(NodeID(v))...)
	}
	if cap(c.rank) < n {
		c.rank = make([]int32, n)
	}
}

func (c *canonEncoder) encode(order []NodeID) []byte {
	rank := c.rank[:len(order)]
	for i, v := range order {
		rank[v] = int32(i)
	}
	b := c.buf[:0]
	for i, v := range order {
		if i > 0 {
			b = append(b, '|')
		}
		b = append(b, c.g.Label(v)...)
	}
	c.es = c.es[:0]
	for _, e := range c.all {
		c.es = append(c.es, canonTriple{rank[e.From], rank[e.To], int32(e.Port)})
	}
	es := c.es
	for i := 1; i < len(es); i++ {
		for j := i; j > 0; j-- {
			a, b := &es[j-1], &es[j]
			if a.f < b.f || (a.f == b.f && (a.t < b.t || (a.t == b.t && a.p <= b.p))) {
				break
			}
			*a, *b = *b, *a
		}
	}
	b = append(b, '#')
	for i, e := range es {
		if i > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendInt(b, int64(e.f), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.t), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.p), 10)
	}
	c.buf = b
	return b
}
