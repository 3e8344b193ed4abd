package graph

import (
	"sort"

	"repro/internal/fault"
)

// maxWeightCliqueReference is the frozen pre-scratch MaxWeightClique:
// the same branch-and-bound with a fresh bitset per branch and fresh
// colouring slices per bound, kept verbatim so the differential tests in
// clique_test.go and FuzzMaxWeightClique can pin the flat-scratch solver
// to it — identical clique and weight, including when the step budget
// cuts the search short.
func maxWeightCliqueReference(adj UndirectedAdj, weights []float64, maxSteps int) ([]int, float64, error) {
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
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}

	nb := make([]bitset, n)
	for i := range nb {
		nb[i] = newBitset(n)
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

	s := &refCliqueSolver{n: n, nb: nb, w: w, budget: maxSteps}
	all := newBitset(n)
	for i := 0; i < n; i++ {
		all.set(i)
	}
	s.expand(all, nil, 0)

	out := make([]int, len(s.best))
	for i, v := range s.best {
		out[i] = order[v]
	}
	sort.Ints(out)
	return out, s.bestW, nil
}

func cloneBitset(b bitset) bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

type refCliqueSolver struct {
	n      int
	nb     []bitset
	w      []float64
	best   []int
	bestW  float64
	budget int
}

func (s *refCliqueSolver) expand(p bitset, cur []int, curW float64) {
	if s.budget <= 0 {
		return
	}
	s.budget--

	if curW > s.bestW || (s.best == nil && curW >= 0 && len(cur) > 0) {
		if curW > s.bestW {
			s.bestW = curW
			s.best = append([]int(nil), cur...)
		}
	}
	if p.empty() {
		return
	}
	verts, bound := s.colorBound(p)
	for i := len(verts) - 1; i >= 0; i-- {
		v := verts[i]
		if curW+bound[i] <= s.bestW {
			return
		}
		np := cloneBitset(p)
		np.andWith(s.nb[v])
		cur = append(cur, v)
		s.expand(np, cur, curW+s.w[v])
		cur = cur[:len(cur)-1]
		p.clear(v)
		if s.budget <= 0 {
			return
		}
	}
}

func (s *refCliqueSolver) colorBound(p bitset) (verts []int, bound []float64) {
	remaining := cloneBitset(p)
	var classMax []float64
	var colorOf []int
	for !remaining.empty() {
		classW := 0.0
		avail := cloneBitset(remaining)
		for {
			v := avail.firstSet()
			if v < 0 {
				break
			}
			verts = append(verts, v)
			colorOf = append(colorOf, len(classMax))
			if s.w[v] > classW {
				classW = s.w[v]
			}
			remaining.clear(v)
			avail.clear(v)
			avail.andNotWith(s.nb[v])
		}
		classMax = append(classMax, classW)
	}
	bound = make([]float64, len(verts))
	cum := 0.0
	seen := make([]bool, len(classMax))
	for i := range verts {
		c := colorOf[i]
		if !seen[c] {
			seen[c] = true
			cum += classMax[c]
		}
		bound[i] = cum
	}
	return verts, bound
}
