package sweep

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// injectPanic installs testHook for the test's duration: it panics at
// the given stage for cells with k == K.
func injectPanic(t *testing.T, stage string, k int) *atomic.Int64 {
	t.Helper()
	var fired atomic.Int64
	testHook = func(s string, c Cell) {
		if s == stage && c.K == k {
			fired.Add(1)
			panic(errors.New("injected " + stage + " panic"))
		}
	}
	t.Cleanup(func() { testHook = nil })
	return &fired
}

// failedCells runs the grid (which must not abort) and returns the error
// text of each failed cell by index.
func failedCells(t *testing.T, g Grid, workers int) map[int]string {
	t.Helper()
	rep, err := Run(context.Background(), g, Options{Workers: workers})
	if err != nil {
		t.Fatalf("sweep aborted: %v", err)
	}
	failed := map[int]string{}
	for _, r := range rep.Results {
		if r.Err != "" {
			failed[r.Index] = r.Err
		} else if r.TotalArea <= 0 {
			t.Fatalf("healthy cell %d has no metrics: %+v", r.Index, r)
		}
	}
	if len(failed) != rep.Failed {
		t.Fatalf("report counts %d failed cells, results hold %d", rep.Failed, len(failed))
	}
	return failed
}

// TestSweepCellPanicIsCellError: a panic in one cell's backend becomes
// that cell's typed error; the other cells and the process carry on.
func TestSweepCellPanicIsCellError(t *testing.T) {
	g := testGrid()
	fired := injectPanic(t, "evaluate", 2)
	failed := failedCells(t, g, 4)
	if len(failed) != 1 || fired.Load() != 1 {
		t.Fatalf("failed cells %v after %d panics, want exactly the one k=2 cell", failed, fired.Load())
	}
	for _, msg := range failed {
		if !strings.Contains(msg, "sweep: cell camera") || !strings.Contains(msg, "injected evaluate panic") {
			t.Fatalf("cell error %q does not name the boundary and the panic", msg)
		}
	}
}

// TestSweepFrontEndPanicIsCellError: a panic inside a memoized
// front-end build fails every cell sharing that variant with the same
// typed error, runs once (the failure is cached like any other), and
// leaves the other variant's cells intact.
func TestSweepFrontEndPanicIsCellError(t *testing.T) {
	g := testGrid()
	g.Seeds = []int64{1, 2}
	fired := injectPanic(t, "variant", 1)
	failed := failedCells(t, g, 4)
	if len(failed) != 2 || fired.Load() != 1 {
		t.Fatalf("failed cells %v after %d panics, want both k=1 cells after one", failed, fired.Load())
	}
	for _, msg := range failed {
		if !strings.Contains(msg, "sweep: build swp_camera_s0_k1") || !strings.Contains(msg, "injected variant panic") {
			t.Fatalf("cell error %q does not name the build and the panic", msg)
		}
	}
}
