package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	a := &Job{ID: "j-a", Seq: 3, State: StateQueued, Kind: KindAnalyze, Client: "c"}
	b := &Job{ID: "j-b", Seq: 5, State: StateDone, Kind: KindEvaluate, Client: "c",
		Result: []byte(`{"x":1}`), Finished: time.Unix(1, 0).UTC()}
	if err := saveJournal(path, map[string]*Job{"j-a": a, "j-b": b}); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := loadJournal(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d jobs, want 2", len(got))
	}
	if got["j-a"].State != StateQueued || got["j-b"].State != StateDone {
		t.Fatalf("states = %s/%s", got["j-a"].State, got["j-b"].State)
	}
	if string(got["j-b"].Result) != `{"x":1}` {
		t.Fatalf("result = %s", got["j-b"].Result)
	}
}

func TestJournalMergeBySeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := saveJournal(path, map[string]*Job{
		"j-a": {ID: "j-a", Seq: 4, State: StateDone},
	}); err != nil {
		t.Fatalf("save newer: %v", err)
	}
	// A stale flush (lower Seq) must not regress the on-disk state.
	if err := saveJournal(path, map[string]*Job{
		"j-a": {ID: "j-a", Seq: 2, State: StateRunning},
		"j-b": {ID: "j-b", Seq: 1, State: StateQueued},
	}); err != nil {
		t.Fatalf("save stale: %v", err)
	}
	got, err := loadJournal(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got["j-a"].State != StateDone || got["j-a"].Seq != 4 {
		t.Fatalf("j-a = %s seq %d, want done seq 4", got["j-a"].State, got["j-a"].Seq)
	}
	if _, ok := got["j-b"]; !ok {
		t.Fatal("j-b missing: unknown on-disk jobs must be preserved")
	}
}

func TestJournalCorruptLoadFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadJournal(path); err == nil {
		t.Fatal("load of corrupt journal succeeded, want error (operator decides)")
	}
	// Missing file is the one benign case.
	got, err := loadJournal(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || len(got) != 0 {
		t.Fatalf("load missing = (%v, %v), want empty map", got, err)
	}
}

func TestJournalVersionSkewFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"jobs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadJournal(path)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("load version-99 journal = %v, want version error", err)
	}
}

func TestJournalTerminalRetentionCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	jobs := map[string]*Job{}
	for i := 0; i < journalKeepTerminal+20; i++ {
		id := fmt.Sprintf("j-%05d", i)
		jobs[id] = &Job{ID: id, Seq: 1, State: StateDone,
			Finished: time.Unix(int64(i), 0).UTC()}
	}
	// One pending job must survive regardless of the cap.
	jobs["j-pending"] = &Job{ID: "j-pending", Seq: 1, State: StateQueued}
	if err := saveJournal(path, jobs); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := loadJournal(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(got) != journalKeepTerminal+1 {
		t.Fatalf("retained %d jobs, want %d", len(got), journalKeepTerminal+1)
	}
	if _, ok := got["j-pending"]; !ok {
		t.Fatal("pending job evicted by the terminal cap")
	}
	// The newest terminal jobs win; the oldest were dropped.
	if _, ok := got[fmt.Sprintf("j-%05d", journalKeepTerminal+19)]; !ok {
		t.Fatal("newest terminal job missing")
	}
	if _, ok := got["j-00000"]; ok {
		t.Fatal("oldest terminal job retained, want dropped")
	}
}

// FuzzLoadJournal feeds arbitrary bytes to the journal loader as the
// on-disk file: a corrupt journal must be an error, never a panic, and a
// loaded one maps each job's ID to that job.
func FuzzLoadJournal(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.json")
	if err := saveJournal(seed, map[string]*Job{
		"j-a": {ID: "j-a", Seq: 3, State: StateQueued, Kind: KindAnalyze, Client: "c"},
		"j-b": {ID: "j-b", Seq: 5, State: StateDone, Kind: KindEvaluate, Client: "c",
			Result: []byte(`{"x":1}`), Finished: time.Unix(1, 0).UTC()},
	}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"version":1,"jobs":[null,{"id":""},{"id":"x","result":[1,2]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, err := loadJournal(path)
		if err != nil {
			return
		}
		for id, j := range jobs {
			if j == nil || j.ID != id {
				t.Fatalf("journal entry %q holds %+v", id, j)
			}
		}
	})
}
