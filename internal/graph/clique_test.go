package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
)

func TestMaxWeightCliqueRejectsWeightMismatch(t *testing.T) {
	adj := UndirectedAdj{{1}, {0}}
	clique, total, err := MaxWeightClique(adj, []float64{1}, 0)
	if !errors.Is(err, fault.ErrInvariant) {
		t.Fatalf("mismatched weights: err = %v, want ErrInvariant", err)
	}
	if clique != nil || total != 0 {
		t.Fatalf("error return carried results: %v %v", clique, total)
	}
}

func TestMaxWeightCliqueTriangle(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 0.
	adj := UndirectedAdj{
		{1, 2, 3},
		{0, 2},
		{0, 1},
		{0},
	}
	w := []float64{1, 1, 1, 10}
	clique, total, err := MaxWeightClique(adj, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Best is {0,3} with weight 11, beating triangle weight 3.
	if total != 11 {
		t.Fatalf("weight = %v, want 11 (clique %v)", total, clique)
	}
	if !isClique(adj, clique) {
		t.Fatalf("result %v is not a clique", clique)
	}
}

func TestMaxWeightCliqueSingleVertex(t *testing.T) {
	adj := UndirectedAdj{{}}
	clique, total, err := MaxWeightClique(adj, []float64{5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clique) != 1 || total != 5 {
		t.Fatalf("clique=%v total=%v, want [0] 5", clique, total)
	}
}

func TestMaxWeightCliqueEmpty(t *testing.T) {
	clique, total, err := MaxWeightClique(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if clique != nil || total != 0 {
		t.Fatalf("empty graph: clique=%v total=%v", clique, total)
	}
}

func TestMaxWeightCliqueComplete(t *testing.T) {
	n := 8
	adj := make(UndirectedAdj, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = float64(i + 1)
		for j := 0; j < n; j++ {
			if i != j {
				adj[i] = append(adj[i], j)
			}
		}
	}
	clique, total, err := MaxWeightClique(adj, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clique) != n || total != 36 {
		t.Fatalf("complete graph: clique=%v total=%v, want all 8 / 36", clique, total)
	}
}

func TestMaxWeightCliqueAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(12)
		adjm := make([][]bool, n)
		for i := range adjm {
			adjm[i] = make([]bool, n)
		}
		adj := make(UndirectedAdj, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.45 {
					adjm[i][j], adjm[j][i] = true, true
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + rng.Intn(9))
		}
		want := bruteForceClique(adjm, w)
		got, total, err := MaxWeightClique(adj, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if total != want {
			t.Fatalf("trial %d: BnB weight %v != brute force %v (clique %v)", trial, total, want, got)
		}
		if !isClique(adj, got) {
			t.Fatalf("trial %d: %v not a clique", trial, got)
		}
	}
}

func bruteForceClique(adj [][]bool, w []float64) float64 {
	n := len(adj)
	best := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		total := 0.0
		ok := true
		var members []int
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for _, j := range members {
				if !adj[i][j] {
					ok = false
					break
				}
			}
			if ok {
				members = append(members, i)
				total += w[i]
			}
		}
		if ok && total > best {
			best = total
		}
	}
	return best
}

func TestMaxWeightCliqueBudgetStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 60
	adj := make(UndirectedAdj, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	clique, total, err := MaxWeightClique(adj, w, 100) // tiny budget
	if err != nil {
		t.Fatal(err)
	}
	if len(clique) == 0 || total <= 0 {
		t.Fatalf("budgeted search returned nothing: %v %v", clique, total)
	}
	if !isClique(adj, clique) {
		t.Fatalf("budgeted result not a clique: %v", clique)
	}
}

// isClique reports whether vs forms a clique in adj (every pair adjacent).
func isClique(adj UndirectedAdj, vs []int) bool {
	set := make(map[int]map[int]bool, len(adj))
	for v, ns := range adj {
		m := make(map[int]bool, len(ns))
		for _, u := range ns {
			m[u] = true
		}
		set[v] = m
	}
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !set[vs[i]][vs[j]] {
				return false
			}
		}
	}
	return true
}

// randomCliqueInstance draws a symmetric adjacency over n vertices with
// edge probability p. Integer weights (ties between equal weights
// exercise the vertex-order tie break) or continuous ones.
func randomCliqueInstance(rng *rand.Rand, n int, p float64, intWeights bool) (UndirectedAdj, []float64) {
	adj := make(UndirectedAdj, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	w := make([]float64, n)
	for i := range w {
		if intWeights {
			w[i] = float64(rng.Intn(6))
		} else {
			w[i] = 1 + rng.Float64()*10
		}
	}
	return adj, w
}

// checkCliqueMatchesReference requires the flat-scratch solver to return
// exactly what the frozen reference returns: the same clique (nil-ness
// included), the same weight, and the same error.
func checkCliqueMatchesReference(t *testing.T, adj UndirectedAdj, w []float64, budget int) {
	t.Helper()
	want, wantW, wantErr := maxWeightCliqueReference(adj, w, budget)
	got, gotW, gotErr := MaxWeightClique(adj, w, budget)
	if !reflect.DeepEqual(got, want) || gotW != wantW || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("n=%d budget=%d: got %v (%v, err %v), reference %v (%v, err %v)",
			len(adj), budget, got, gotW, gotErr, want, wantW, wantErr)
	}
}

// TestMaxWeightCliqueMatchesReference pins the solver to the frozen
// reference on random graphs of every density, with tied and distinct
// weights, both searched to completion and cut short by small budgets
// (the budget must be spent step for step the same way).
func TestMaxWeightCliqueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(90)
		p := []float64{0.1, 0.3, 0.5, 0.8, 0.95}[rng.Intn(5)]
		adj, w := randomCliqueInstance(rng, n, p, rng.Intn(2) == 0)
		for _, budget := range []int{1, 2, 17, 300, 3000} {
			checkCliqueMatchesReference(t, adj, w, budget)
		}
		if n <= 30 {
			checkCliqueMatchesReference(t, adj, w, 0) // searched to completion
		}
	}
	// Larger, denser graphs cut short deep into the search.
	for trial := 0; trial < 2; trial++ {
		adj, w := randomCliqueInstance(rng, 120, 0.9, trial == 0)
		checkCliqueMatchesReference(t, adj, w, 50_000)
	}
	checkCliqueMatchesReference(t, UndirectedAdj{{1}, {0}}, []float64{1}, 0)
}

// FuzzMaxWeightClique decodes bytes into a graph, weights and a step
// budget and requires the solver and the frozen reference to agree.
func FuzzMaxWeightClique(f *testing.F) {
	f.Add([]byte{5, 3, 0xff, 0x0f, 1, 2, 3, 4, 5})
	f.Add([]byte{40, 0, 0xaa, 0x55, 0xaa, 0x55, 9, 9, 9, 9})
	f.Add([]byte{12, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%64
		budget := int(data[1]) * 7 // 0 = default budget
		data = data[2:]
		bit := func(i int) bool {
			if len(data) == 0 {
				return false
			}
			return data[(i/8)%len(data)]&(1<<(i%8)) != 0
		}
		adj := make(UndirectedAdj, n)
		w := make([]float64, n)
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if bit(k) {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
				k++
			}
			if len(data) > 0 {
				w[i] = float64(data[i%len(data)] % 8)
			}
		}
		checkCliqueMatchesReference(t, adj, w, budget)
	})
}

// TestCliqueAllocs gates the search's scratch discipline: a call
// allocates its setup arrays plus one level per search depth it
// reaches, never anything per branch step — so a thousand-fold larger
// step budget costs no more allocations than the depth it adds.
func TestCliqueAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	adj, w := randomCliqueInstance(rng, 80, 0.7, false)
	clique, _, err := MaxWeightClique(adj, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Setup (order, pos, nb, w, solver, cur, best, two colouring sets,
	// result) plus three slices per level, at most one level beyond the
	// largest clique the search can grow, plus the levels slice growth.
	const setup = 20
	bound := float64(setup + 4*(len(clique)+2))
	var refAllocs []float64
	for _, budget := range []int{200, 200_000} {
		allocs := testing.AllocsPerRun(3, func() {
			MaxWeightClique(adj, w, budget) //nolint:errcheck // inputs are well-formed
		})
		ref := testing.AllocsPerRun(1, func() {
			maxWeightCliqueReference(adj, w, budget) //nolint:errcheck // inputs are well-formed
		})
		refAllocs = append(refAllocs, ref)
		t.Logf("budget %d: %.0f allocs/call (reference, which allocates per step: %.0f)", budget, allocs, ref)
		if allocs > bound {
			t.Errorf("budget %d: %.0f allocs/call, want <= %.0f: the branch loop allocates", budget, allocs, bound)
		}
	}
	// The larger budget must really buy many more branch steps, or the
	// gate above proves nothing.
	if refAllocs[1] < 10*refAllocs[0] {
		t.Fatalf("fixture: reference allocs %v do not grow with the budget", refAllocs)
	}
}

func BenchmarkMaxWeightClique50(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	n := 50
	adj := make(UndirectedAdj, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + rng.Float64()*10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeightClique(adj, w, 0) //nolint:errcheck // inputs are well-formed
	}
}
