package sweep

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// A small, fast grid: one cheap app, two PE sizes, post-mapping only.
func testGrid() Grid {
	return Grid{
		Apps:      []string{"camera"},
		Supports:  []int{0},
		Fabrics:   [][2]int{{16, 8}},
		Seeds:     []int64{1},
		Ks:        []int{1, 2},
		PnR:       false,
		Pipelined: true,
	}
}

func mustRun(t *testing.T, g Grid, opt Options) *Report {
	t.Helper()
	rep, err := Run(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("sweep had %d failed cells: %+v", rep.Failed, rep.Results)
	}
	return rep
}

func TestCellsEnumerationIsDeterministic(t *testing.T) {
	g := Grid{
		Apps:     []string{"camera", "harris"},
		Supports: []int{0, 6},
		Fabrics:  [][2]int{{16, 8}, {32, 16}},
		Seeds:    []int64{1, 2},
		Ks:       []int{1, 3},
	}.Normalized()
	cells := g.Cells()
	if want := 2 * 2 * 2 * 2 * 2; len(cells) != want {
		t.Fatalf("len(cells) = %d, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cells[%d].Index = %d; indices must be dense and ordered", i, c.Index)
		}
	}
	if !reflect.DeepEqual(cells, g.Cells()) {
		t.Fatal("Cells() is not deterministic")
	}
	// App-major ordering: all camera cells precede all harris cells, so
	// per-app front-end work clusters inside contiguous shards.
	if cells[0].App != "camera" || cells[len(cells)-1].App != "harris" {
		t.Fatalf("cell ordering is not app-major: first %s, last %s", cells[0].App, cells[len(cells)-1].App)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := testGrid()
	fp := base.Fingerprint()
	if base.Fingerprint() != fp {
		t.Fatal("fingerprint is not stable")
	}
	mutate := map[string]Grid{}
	g := testGrid()
	g.Apps = []string{"harris"}
	mutate["apps"] = g
	g = testGrid()
	g.Supports = []int{6}
	mutate["supports"] = g
	g = testGrid()
	g.Fabrics = [][2]int{{32, 16}}
	mutate["fabrics"] = g
	g = testGrid()
	g.Seeds = []int64{2}
	mutate["seeds"] = g
	g = testGrid()
	g.Ks = []int{3}
	mutate["ks"] = g
	g = testGrid()
	g.PnR = true
	mutate["pnr"] = g
	g = testGrid()
	g.Pipelined = false
	mutate["pipelined"] = g
	for axis, m := range mutate {
		if m.Fingerprint() == fp {
			t.Errorf("fingerprint ignores the %s axis", axis)
		}
	}
}

func TestParetoIsPerApp(t *testing.T) {
	rs := []CellResult{
		{Cell: Cell{Index: 0, App: "a"}, TotalArea: 1, TotalEnergy: 1, Routability: 1},
		{Cell: Cell{Index: 1, App: "a"}, TotalArea: 2, TotalEnergy: 2, Routability: 1}, // dominated by 0
		{Cell: Cell{Index: 2, App: "a"}, TotalArea: 0.5, TotalEnergy: 3, Routability: 1},
		{Cell: Cell{Index: 3, App: "b"}, TotalArea: 100, TotalEnergy: 100, Routability: 0}, // worst numbers, only b
		{Cell: Cell{Index: 4, App: "a"}, Err: "boom"},
	}
	got := Pareto(rs)
	if want := []int{0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Pareto = %v, want %v", got, want)
	}
}

func TestCheckpointMergeAndFingerprintGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	fp := testGrid().Fingerprint()
	a := CellResult{Cell: Cell{Index: 0, App: "camera"}, TotalArea: 1}
	b := CellResult{Cell: Cell{Index: 1, App: "camera"}, TotalArea: 2}
	bad := CellResult{Cell: Cell{Index: 2, App: "camera"}, Err: "boom"}

	if err := saveCheckpoint(path, fp, map[int]CellResult{0: a}); err != nil {
		t.Fatal(err)
	}
	// A later flush of different cells must merge, not clobber.
	if err := saveCheckpoint(path, fp, map[int]CellResult{1: b, 2: bad}); err != nil {
		t.Fatal(err)
	}
	done, matched, err := loadCheckpoint(path, fp)
	if err != nil || !matched {
		t.Fatalf("loadCheckpoint: matched=%v err=%v", matched, err)
	}
	if want := map[int]CellResult{0: a, 1: b}; !reflect.DeepEqual(done, want) {
		t.Fatalf("loadCheckpoint = %+v, want %+v (merged, failed cell dropped)", done, want)
	}

	// A checkpoint for a different grid must report the mismatch, not be
	// misapplied.
	other := testGrid()
	other.Ks = []int{9}
	done, matched, err = loadCheckpoint(path, other.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if matched || len(done) != 0 {
		t.Fatalf("checkpoint with a foreign fingerprint was loaded: matched=%v %+v", matched, done)
	}

	// A missing checkpoint is an empty matching resume, not an error.
	done, matched, err = loadCheckpoint(filepath.Join(t.TempDir(), "absent.json"), fp)
	if err != nil || !matched || len(done) != 0 {
		t.Fatalf("missing checkpoint: done=%+v matched=%v err=%v", done, matched, err)
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader as
// the on-disk file: a corrupt checkpoint must be an error, never a panic,
// and a loaded one holds only successful cells, keyed by their index.
func FuzzLoadCheckpoint(f *testing.F) {
	fp := testGrid().Fingerprint()
	seed := filepath.Join(f.TempDir(), "seed.json")
	if err := saveCheckpoint(seed, fp, map[int]CellResult{
		0: {Cell: Cell{Index: 0, App: "camera"}, TotalArea: 1},
		3: {Cell: Cell{Index: 3, App: "camera", K: 2}, TotalArea: 2, Routability: 1},
	}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"fingerprint":"` + string(fp) + `","done":[{"Index":-1},null]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		done, _, err := loadCheckpoint(path, fp)
		if err != nil {
			return
		}
		for idx, r := range done {
			if idx != r.Index || r.Err != "" {
				t.Fatalf("loaded cell %d = %+v", idx, r)
			}
		}
	})
}

func TestRunWorkerCountInvariance(t *testing.T) {
	g := testGrid()
	serial := mustRun(t, g, Options{Workers: 1})
	for _, w := range []int{0, 4} {
		par := mustRun(t, g, Options{Workers: w})
		if !reflect.DeepEqual(serial.Results, par.Results) {
			t.Fatalf("results differ between Workers=1 and Workers=%d:\n%+v\nvs\n%+v",
				w, serial.Results, par.Results)
		}
	}
}

func TestRunWarmCacheIsEquivalentAndAllHits(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	cold := mustRun(t, g, Options{Workers: 2, CacheDir: dir})
	if cold.Store == nil || cold.Store.Puts == 0 {
		t.Fatalf("cold run wrote nothing to the store: %+v", cold.Store)
	}
	warm := mustRun(t, g, Options{Workers: 2, CacheDir: dir})
	if !reflect.DeepEqual(cold.Results, warm.Results) {
		t.Fatalf("warm results differ from cold:\n%+v\nvs\n%+v", cold.Results, warm.Results)
	}
	if !reflect.DeepEqual(cold.Frontier, warm.Frontier) {
		t.Fatalf("warm frontier differs from cold: %v vs %v", cold.Frontier, warm.Frontier)
	}
	if warm.Store.Misses != 0 || warm.Store.Hits == 0 || warm.Store.Puts != 0 {
		t.Fatalf("warm run should be all hits, no writes: %+v", warm.Store)
	}
}

func TestRunResumeSkipsCompletedCells(t *testing.T) {
	g := testGrid()
	ck := filepath.Join(t.TempDir(), "ck.json")
	full := mustRun(t, g, Options{Workers: 2, Checkpoint: ck, FlushEvery: 1})

	resumed := mustRun(t, g, Options{Workers: 2, Checkpoint: ck, Resume: true})
	if resumed.Computed != 0 || resumed.Resumed != len(full.Results) {
		t.Fatalf("full resume recomputed cells: resumed=%d computed=%d of %d",
			resumed.Resumed, resumed.Computed, len(full.Results))
	}
	if !reflect.DeepEqual(full.Results, resumed.Results) {
		t.Fatalf("resumed results differ from the original:\n%+v\nvs\n%+v", full.Results, resumed.Results)
	}

	// A partial checkpoint resumes exactly its cells and computes the rest.
	partial := filepath.Join(t.TempDir(), "partial.json")
	first := full.Results[0]
	if err := saveCheckpoint(partial, g.Fingerprint(), map[int]CellResult{first.Index: first}); err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, g, Options{Workers: 2, Checkpoint: partial, Resume: true})
	if rep.Resumed != 1 || rep.Computed != len(full.Results)-1 {
		t.Fatalf("partial resume: resumed=%d computed=%d, want 1 and %d",
			rep.Resumed, rep.Computed, len(full.Results)-1)
	}
	if !reflect.DeepEqual(full.Results, rep.Results) {
		t.Fatalf("partially resumed results differ from the original:\n%+v\nvs\n%+v", full.Results, rep.Results)
	}
}

func TestRunCanceledThenResumed(t *testing.T) {
	g := testGrid()
	ck := filepath.Join(t.TempDir(), "ck.json")

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(canceled, g, Options{Workers: 2, Checkpoint: ck, FlushEvery: 1})
	if err == nil {
		t.Fatal("canceled sweep must return an error")
	}
	if rep == nil {
		t.Fatal("canceled sweep must still return its partial report")
	}
	for _, r := range rep.Results {
		if r.Err == "" && rep.Computed == 0 {
			t.Fatalf("pre-canceled sweep claims a completed cell: %+v", r)
		}
	}

	// Resume with a live context: the sweep completes, recomputing only
	// what the canceled run did not finish.
	full := mustRun(t, g, Options{Workers: 2, Checkpoint: ck, Resume: true})
	if full.Resumed+full.Computed != len(full.Results) {
		t.Fatalf("resume did not cover the grid: resumed=%d computed=%d of %d",
			full.Resumed, full.Computed, len(full.Results))
	}
	clean := mustRun(t, g, Options{Workers: 2})
	if !reflect.DeepEqual(full.Results, clean.Results) {
		t.Fatalf("results after cancel+resume differ from a clean run:\n%+v\nvs\n%+v",
			full.Results, clean.Results)
	}
}

// TestOnCellEventSetWorkerInvariant: the per-cell progress callback
// fires exactly once per cell from the collector goroutine, done covers
// the grid, and the SET of announcements (which cells, with which
// results) is identical across worker counts — completion ORDER may
// differ, the set may not. This is the contract the daemon's SSE sweep
// events inherit.
func TestOnCellEventSetWorkerInvariant(t *testing.T) {
	type announce struct {
		Cell         int
		App, Variant string
		Err          string
		Total        int
	}
	g := testGrid()
	collect := func(workers int) (map[announce]int, int) {
		seen := map[announce]int{}
		maxDone := 0
		mustRun(t, g, Options{Workers: workers, OnCell: func(done, total int, r CellResult) {
			seen[announce{r.Index, r.App, r.Variant, r.Err, total}]++
			if done > maxDone {
				maxDone = done
			}
		}})
		return seen, maxDone
	}
	s1, d1 := collect(1)
	s8, d8 := collect(8)
	if !reflect.DeepEqual(s1, s8) {
		t.Fatalf("OnCell event sets differ between Workers=1 and Workers=8:\n%+v\nvs\n%+v", s1, s8)
	}
	cells := g.Normalized().Cells()
	if len(s1) != len(cells) {
		t.Fatalf("got %d distinct announcements, want %d (one per cell)", len(s1), len(cells))
	}
	for ev, n := range s1 {
		if n != 1 {
			t.Errorf("cell %d announced %d times, want 1", ev.Cell, n)
		}
	}
	if d1 != len(cells) || d8 != len(cells) {
		t.Fatalf("done peaked at %d/%d, want %d for both", d1, d8, len(cells))
	}
}
