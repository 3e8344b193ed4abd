package graph

import (
	"sort"

	"repro/internal/fault"
)

// UndirectedAdj is an adjacency structure for the clique and independent
// set solvers: Adj[v] lists the neighbors of v. It must be symmetric
// (u in Adj[v] iff v in Adj[u]); self-loops are ignored.
type UndirectedAdj [][]int

// MaxWeightClique returns a maximum-weight clique of the undirected graph
// with the given per-vertex weights, as a sorted vertex list, plus its
// total weight. Weights must be non-negative. The solver is an exact
// branch-and-bound with a greedy-coloring upper bound, adequate for the
// compatibility graphs produced by datapath merging (typically well under
// a thousand vertices).
//
// maxSteps bounds the number of branch steps; 0 means a generous default.
// If the budget is exhausted, the best clique found so far is returned
// (still a valid clique, possibly suboptimal). A weights slice whose
// length differs from the adjacency's is a fault.ErrInvariant error.
func MaxWeightClique(adj UndirectedAdj, weights []float64, maxSteps int) ([]int, float64, error) {
	n := len(adj)
	if n == 0 {
		return nil, 0, nil
	}
	if len(weights) != n {
		return nil, 0, fault.Invariantf("graph: MaxWeightClique: len(weights)=%d != len(adj)=%d", len(weights), n)
	}
	if maxSteps <= 0 {
		maxSteps = 5_000_000
	}

	// Order vertices by descending weight (heavier first makes the greedy
	// initial incumbent strong and improves the coloring bound).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	pos := make([]int, n) // pos[v] = index of v in order
	for i, v := range order {
		pos[v] = i
	}

	// Adjacency bitsets in the reordered index space, over one backing
	// array.
	words := len(newBitset(n))
	flat := make(bitset, n*words)
	nb := make([]bitset, n)
	for i := range nb {
		nb[i] = flat[i*words : (i+1)*words : (i+1)*words]
	}
	for v, ns := range adj {
		for _, u := range ns {
			if u == v {
				continue
			}
			nb[pos[v]].set(pos[u])
			nb[pos[u]].set(pos[v])
		}
	}
	w := make([]float64, n)
	for i, v := range order {
		w[i] = weights[v]
	}

	s := newCliqueSolver(n, nb, w, maxSteps)
	all := s.level(0).cand
	for i := 0; i < n; i++ {
		all.set(i)
	}
	s.expand(0, 0)

	out := make([]int, len(s.best))
	for i, v := range s.best {
		out[i] = order[v]
	}
	sort.Ints(out)
	return out, s.bestW, nil
}

// cliqueSolver is the branch-and-bound state. Everything the search
// touches per branch step lives in flat scratch allocated once per call:
// the clique stack cur, the incumbent buffer best, the colouring's two
// working sets, and one level per search depth holding that depth's
// candidate set and colour-ordered vertices with their bounds. A level
// is allocated the first time the search reaches its depth and reused
// by every later branch at that depth, so the allocation count of a call
// follows the deepest clique it tries, not the number of branch steps.
type cliqueSolver struct {
	n      int
	nb     []bitset
	w      []float64
	cur    []int
	best   []int
	bestW  float64
	budget int

	remaining, avail bitset // colorBound's working sets
	levels           []cliqueLevel
}

// cliqueLevel is the scratch of one search depth: cand is the candidate
// set the depth expands, verts/bound its colouring (see colorBound).
type cliqueLevel struct {
	cand  bitset
	verts []int
	bound []float64
}

func newCliqueSolver(n int, nb []bitset, w []float64, budget int) *cliqueSolver {
	return &cliqueSolver{
		n:         n,
		nb:        nb,
		w:         w,
		cur:       make([]int, 0, n),
		best:      make([]int, 0, n),
		budget:    budget,
		remaining: newBitset(n),
		avail:     newBitset(n),
	}
}

// level returns the scratch of depth d, allocating it on first use.
func (s *cliqueSolver) level(d int) *cliqueLevel {
	for len(s.levels) <= d {
		s.levels = append(s.levels, cliqueLevel{
			cand:  newBitset(s.n),
			verts: make([]int, 0, s.n),
			bound: make([]float64, 0, s.n),
		})
	}
	return &s.levels[d]
}

// expand grows the current clique s.cur (weight curW) using the
// candidate set of depth d.
func (s *cliqueSolver) expand(d int, curW float64) {
	if s.budget <= 0 {
		return
	}
	s.budget--

	if curW > s.bestW {
		s.bestW = curW
		s.best = append(s.best[:0], s.cur...)
	}
	p := s.level(d).cand
	if p.empty() {
		return
	}
	// Greedy coloring bound: partition p into independent color classes;
	// a clique takes at most one vertex per class, so the sum of class
	// maxima bounds the achievable extra weight.
	s.colorBound(d)
	// The next level may be allocated below, which moves s.levels: hold
	// this level's slices, not a pointer into it.
	lv := s.levels[d]
	// Visit candidates heaviest-bound-last order reversed for pruning.
	for i := len(lv.verts) - 1; i >= 0; i-- {
		v := lv.verts[i]
		if curW+lv.bound[i] <= s.bestW {
			return // remaining candidates cannot beat the incumbent
		}
		np := s.level(d + 1).cand
		copy(np, p)
		np.andWith(s.nb[v])
		s.cur = append(s.cur, v)
		s.expand(d+1, curW+s.w[v])
		s.cur = s.cur[:len(s.cur)-1]
		p.clear(v)
		if s.budget <= 0 {
			return
		}
	}
}

// colorBound greedily colors the candidate set of depth d and leaves the
// candidates ordered by color in the level's verts, along with a
// per-position cumulative weight bound: bound[i] = max achievable weight
// using verts[0..i].
func (s *cliqueSolver) colorBound(d int) {
	lv := &s.levels[d]
	verts, bound := lv.verts[:0], lv.bound[:0]
	remaining, avail := s.remaining, s.avail
	copy(remaining, lv.cand)
	cum := 0.0
	for !remaining.empty() {
		classW := 0.0
		start := len(verts)
		copy(avail, remaining)
		for {
			v := avail.firstSet()
			if v < 0 {
				break
			}
			verts = append(verts, v)
			if s.w[v] > classW {
				classW = s.w[v]
			}
			remaining.clear(v)
			avail.clear(v)
			avail.andNotWith(s.nb[v])
		}
		cum += classW
		for range verts[start:] {
			bound = append(bound, cum)
		}
	}
	lv.verts, lv.bound = verts, bound
}
