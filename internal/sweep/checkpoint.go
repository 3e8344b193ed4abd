package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/store"
)

// Checkpoint protocol. The checkpoint file is a JSON snapshot of every
// successfully completed cell, tagged with the grid fingerprint. Writes
// are serialized across processes by an exclusive file lock and made
// atomic by write-temp-then-rename, and each write merges the on-disk
// snapshot first — so two sweeps sharing one checkpoint file (or a sweep
// racing its own SIGINT flush) can only ever add cells, never lose them.
// A fingerprint mismatch means the file belongs to a different grid (or
// an older registry): resume ignores it, and the next flush overwrites
// it wholesale.

type checkpointFile struct {
	Fingerprint string       `json:"fingerprint"`
	Done        []CellResult `json:"done"`
}

// loadCheckpoint reads the completed-cell snapshot for the given run
// fingerprint. A missing file returns an empty map with matched=true; a
// present file whose fingerprint differs returns matched=false (the
// file belongs to a different grid, registry, or triage configuration —
// Run refuses to resume over it, since mixing cells from two
// configurations would silently corrupt the report); a
// present-but-unreadable file returns an error, since silently
// recomputing a sweep the user asked to resume would be surprising.
func loadCheckpoint(path string, fp store.Key) (done map[int]CellResult, matched bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[int]CellResult{}, true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, false, fmt.Errorf("sweep: parse checkpoint %s: %w", path, err)
	}
	done = map[int]CellResult{}
	if cf.Fingerprint != string(fp) {
		return done, false, nil
	}
	for _, r := range cf.Done {
		if r.Err == "" {
			done[r.Index] = r
		}
	}
	return done, true, nil
}

// saveCheckpoint merges the given completed cells into the on-disk
// snapshot under the file lock and rewrites it atomically.
func saveCheckpoint(path string, fp store.Key, done map[int]CellResult) error {
	lock, err := store.LockFile(path + ".lock")
	if err != nil {
		return fmt.Errorf("sweep: lock checkpoint: %w", err)
	}
	defer lock.Unlock()

	merged, _, err := loadCheckpoint(path, fp)
	if err != nil {
		// Corrupt snapshot (e.g. the machine died mid-write before the
		// rename, leaving an older generation): start over from ours.
		merged = map[int]CellResult{}
	}
	for idx, r := range done {
		merged[idx] = r
	}
	cf := checkpointFile{Fingerprint: string(fp)}
	for _, r := range merged {
		cf.Done = append(cf.Done, r)
	}
	sort.Slice(cf.Done, func(i, j int) bool { return cf.Done[i].Index < cf.Done[j].Index })
	data, err := json.MarshalIndent(&cf, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: encode checkpoint: %w", err)
	}
	if err := store.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("sweep: write checkpoint: %w", err)
	}
	return nil
}
