package graph

// Matcher enumerates pattern embeddings into one fixed target graph. It
// precomputes what FindEmbeddings rebuilds on every call — label
// frequencies, per-label node lists, an interned label id per target
// node — and reuses its search scratch across calls, so a mining run
// that matches thousands of candidate patterns against the same target
// pays the indexing cost once and allocates nothing per embedding.
//
// Find emits embeddings in exactly the order FindEmbeddings does: the
// same search-order heuristic, the same anchored-adjacency candidate
// generation, the same depth-first traversal. The frequent-subgraph
// miner's reference-equivalence suite depends on this — embedding order
// is observable through occurrence dedup and pattern selection — so any
// change here must keep the two enumerators in lockstep.
//
// A Matcher is NOT safe for concurrent use: it is mutable scratch.
// Concurrent miners build one Matcher per worker.
type Matcher struct {
	target  *Graph
	labelID []int32          // target node -> interned label
	labels  map[string]int32 // label -> interned id
	names   []string         // interned id -> label
	byLabel [][]NodeID       // interned id -> target nodes, ascending
	freq    []int32          // interned id -> occurrence count

	// Per-Find scratch, grown on demand and reused.
	plabel []int32 // pattern node -> interned target label id
	order  []NodeID
	inOrd  []bool
	asg    []int32 // pattern node -> target node or -1
	usedT  []bool  // target node -> currently assigned

	limit int
	out   *EmbeddingList
	count int
	done  bool
	pat   *Graph
}

// NewMatcher indexes target for repeated embedding enumeration.
func NewMatcher(target *Graph) *Matcher {
	m := &Matcher{
		target:  target,
		labelID: make([]int32, target.NumNodes()),
		labels:  make(map[string]int32),
		usedT:   make([]bool, target.NumNodes()),
	}
	for v := 0; v < target.NumNodes(); v++ {
		l := target.Label(NodeID(v))
		id, ok := m.labels[l]
		if !ok {
			id = int32(len(m.byLabel))
			m.labels[l] = id
			m.names = append(m.names, l)
			m.byLabel = append(m.byLabel, nil)
			m.freq = append(m.freq, 0)
		}
		m.labelID[v] = id
		m.byLabel[id] = append(m.byLabel[id], NodeID(v))
		m.freq[id]++
	}
	return m
}

// Target returns the indexed graph.
func (m *Matcher) Target() *Graph { return m.target }

// TargetLabelID returns the interned label id of target node v.
func (m *Matcher) TargetLabelID(v NodeID) int32 { return m.labelID[v] }

// LabelName returns the label string for an interned id.
func (m *Matcher) LabelName(id int32) string { return m.names[id] }

// Find enumerates the injective embeddings of pattern into the matcher's
// target, in FindEmbeddings order, into a fresh SoA list. limit caps the
// number of embeddings (0 = unlimited), with the same truncation point
// as FindEmbeddings' Limit. The returned list is owned by the caller;
// the matcher retains no reference to it.
func (m *Matcher) Find(pattern *Graph, limit int) *EmbeddingList {
	n := pattern.NumNodes()
	out := NewEmbeddingList(n)
	if n == 0 || n > m.target.NumNodes() {
		return out
	}
	if !m.prepare(pattern) {
		return out
	}
	m.pat = pattern
	m.limit = limit
	m.out = out
	m.count = 0
	m.done = false
	m.search(0)
	m.out = nil
	m.pat = nil
	return out
}

// prepare interns the pattern's labels and computes the match order;
// it reports false when some pattern label is absent from the target
// (no embeddings exist).
func (m *Matcher) prepare(pattern *Graph) bool {
	n := pattern.NumNodes()
	m.plabel = grow(m.plabel, n)
	for v := 0; v < n; v++ {
		id, ok := m.labels[pattern.Label(NodeID(v))]
		if !ok {
			return false
		}
		m.plabel[v] = id
	}
	// Start from the rarest label, ties toward high degree then low id —
	// the same score FindEmbeddings' searchOrder uses.
	start := NodeID(0)
	best := int(^uint(0) >> 1)
	for v := 0; v < n; v++ {
		deg := pattern.OutDegree(NodeID(v)) + pattern.InDegree(NodeID(v))
		score := int(m.freq[m.plabel[v]])*1024 - deg
		if score < best {
			best = score
			start = NodeID(v)
		}
	}
	m.order = m.order[:0]
	m.order = append(m.order, start)
	if cap(m.inOrd) < n {
		m.inOrd = make([]bool, n)
	}
	inOrder := m.inOrd[:n]
	for v := range inOrder {
		inOrder[v] = false
	}
	inOrder[start] = true
	for len(m.order) < n {
		next := NodeID(-1)
		bestScore := int(^uint(0) >> 1)
		for v := 0; v < n; v++ {
			if inOrder[v] {
				continue
			}
			adj := false
			for _, e := range pattern.Out(NodeID(v)) {
				if inOrder[e.To] {
					adj = true
					break
				}
			}
			if !adj {
				for _, e := range pattern.In(NodeID(v)) {
					if inOrder[e.From] {
						adj = true
						break
					}
				}
			}
			score := int(m.freq[m.plabel[v]])
			if !adj {
				score += 1 << 20 // disconnected nodes go last
			}
			if score < bestScore {
				bestScore = score
				next = NodeID(v)
			}
		}
		m.order = append(m.order, next)
		inOrder[next] = true
	}
	m.asg = grow(m.asg, n)
	for i := 0; i < n; i++ {
		m.asg[i] = -1
	}
	return true
}

func (m *Matcher) search(depth int) {
	if m.done {
		return
	}
	if depth == len(m.order) {
		m.emit()
		return
	}
	pv := m.order[depth]
	// Candidate generation mirrors isoState.candidates: anchor on the
	// first pattern edge whose other endpoint is already matched (out
	// edges first), iterating the target adjacency in insertion order;
	// with no anchored neighbor, every target node with the right label
	// is tried in ascending id order.
	label := m.plabel[pv]
	for _, e := range m.pat.Out(pv) {
		if t := m.asg[e.To]; t >= 0 {
			for _, te := range m.target.In(NodeID(t)) {
				if te.Port == e.Port && m.labelID[te.From] == label {
					m.try(pv, te.From, depth)
					if m.done {
						return
					}
				}
			}
			return
		}
	}
	for _, e := range m.pat.In(pv) {
		if t := m.asg[e.From]; t >= 0 {
			for _, te := range m.target.Out(NodeID(t)) {
				if te.Port == e.Port && m.labelID[te.To] == label {
					m.try(pv, te.To, depth)
					if m.done {
						return
					}
				}
			}
			return
		}
	}
	for _, tv := range m.byLabel[label] {
		m.try(pv, tv, depth)
		if m.done {
			return
		}
	}
}

// try assigns pv -> tv if feasible and recurses one level deeper.
func (m *Matcher) try(pv, tv NodeID, depth int) {
	if m.usedT[tv] || !m.feasible(pv, tv) {
		return
	}
	m.asg[pv] = int32(tv)
	m.usedT[tv] = true
	m.search(depth + 1)
	m.usedT[tv] = false
	m.asg[pv] = -1
}

// feasible mirrors isoState.feasible with interned labels.
func (m *Matcher) feasible(pv, tv NodeID) bool {
	if m.plabel[pv] != m.labelID[tv] {
		return false
	}
	if m.pat.OutDegree(pv) > m.target.OutDegree(tv) ||
		m.pat.InDegree(pv) > m.target.InDegree(tv) {
		return false
	}
	for _, e := range m.pat.Out(pv) {
		if t := m.asg[e.To]; t >= 0 && !m.target.HasEdge(tv, NodeID(t), e.Port) {
			return false
		}
	}
	for _, e := range m.pat.In(pv) {
		if t := m.asg[e.From]; t >= 0 && !m.target.HasEdge(NodeID(t), tv, e.Port) {
			return false
		}
	}
	return true
}

func (m *Matcher) emit() {
	m.out.AppendRow(m.asg[:m.pat.NumNodes()])
	m.count++
	if m.limit > 0 && m.count >= m.limit {
		m.done = true
	}
}

// grow returns s with length n, reusing capacity.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
