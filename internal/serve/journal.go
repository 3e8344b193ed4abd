package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/store"
)

// Journal protocol, in the spirit of the sweep checkpoint
// (internal/sweep/checkpoint.go): the journal file is a JSON snapshot
// of every job the daemon has accepted, rewritten atomically
// (write-temp-then-rename) under an exclusive flock, and every write
// merges the on-disk snapshot first with higher per-job Seq winning —
// so a daemon racing its own shutdown flush, or two daemons briefly
// sharing a journal during a handover, can only ever advance a job's
// state, never resurrect an older one.
//
// What the journal guarantees after a crash: every job that was
// acknowledged with 202 is present, either terminal (with its result)
// or pending (queued/running — running collapses to queued on load,
// since the work was lost with the process). A restarted daemon
// re-enqueues the pending jobs; with the content-addressed store
// attached, re-running them reproduces byte-identical results.

// journalVersion names the journal format.
const journalVersion = 1

type journalFile struct {
	Version int    `json:"version"`
	Jobs    []*Job `json:"jobs"`
}

// journalKeepTerminal bounds how many terminal jobs a save retains
// (newest first by Finished, then ID), so a long-lived daemon's journal
// does not grow without bound. Pending jobs are always kept.
const journalKeepTerminal = 1024

// loadJournal reads the job snapshot. A missing file returns an empty
// map; a present-but-unreadable file returns an error — silently
// forgetting accepted jobs would be the one unforgivable failure mode
// of a crash-safe journal, so the operator decides (delete the file to
// start fresh).
func loadJournal(path string) (map[string]*Job, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]*Job{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read journal: %w", err)
	}
	var jf journalFile
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, fmt.Errorf("serve: parse journal %s: %w", path, err)
	}
	if jf.Version != journalVersion {
		return nil, fmt.Errorf("serve: journal %s is version %d, want %d", path, jf.Version, journalVersion)
	}
	jobs := map[string]*Job{}
	for _, j := range jf.Jobs {
		if j != nil && j.ID != "" {
			jobs[j.ID] = j
		}
	}
	return jobs, nil
}

// saveJournal merges jobs into the on-disk snapshot under the file lock
// and rewrites it atomically. Jobs with a higher Seq replace their
// on-disk generation; unknown on-disk jobs are preserved.
func saveJournal(path string, jobs map[string]*Job) error {
	lock, err := store.LockFile(path + ".lock")
	if err != nil {
		return fmt.Errorf("serve: lock journal: %w", err)
	}
	defer lock.Unlock()

	merged, err := loadJournal(path)
	if err != nil {
		// Corrupt snapshot (machine died mid-write before the rename left
		// an older generation, or manual damage): ours is the best state
		// we have — start over from it.
		merged = map[string]*Job{}
	}
	for id, j := range jobs {
		if cur, ok := merged[id]; ok && cur.Seq >= j.Seq {
			continue
		}
		merged[id] = j
	}

	jf := journalFile{Version: journalVersion}
	var terminal []*Job
	for _, j := range merged {
		if j.State.terminal() {
			terminal = append(terminal, j)
		} else {
			jf.Jobs = append(jf.Jobs, j)
		}
	}
	sort.Slice(terminal, func(i, k int) bool {
		if !terminal[i].Finished.Equal(terminal[k].Finished) {
			return terminal[i].Finished.After(terminal[k].Finished)
		}
		return terminal[i].ID < terminal[k].ID
	})
	if len(terminal) > journalKeepTerminal {
		terminal = terminal[:journalKeepTerminal]
	}
	jf.Jobs = append(jf.Jobs, terminal...)
	sort.Slice(jf.Jobs, func(i, k int) bool { return jf.Jobs[i].ID < jf.Jobs[k].ID })

	// Compact encoding, deliberately: MarshalIndent would re-indent the
	// embedded Result RawMessage, and a result's bytes must survive the
	// journal round trip untouched (the byte-identical resume guarantee).
	data, err := json.Marshal(&jf)
	if err != nil {
		return fmt.Errorf("serve: encode journal: %w", err)
	}
	if err := store.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("serve: write journal: %w", err)
	}
	return nil
}
