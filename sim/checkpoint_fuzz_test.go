package sim

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// journalError reports whether err is one of the typed errors a journal
// reader returns for bad bytes: a header that is missing, is not JSON or
// does not fit ckHeader, or a header of another sweep.
func journalError(err error) bool {
	var syntax *json.SyntaxError
	var typ *json.UnmarshalTypeError
	var mismatch *CheckpointMismatchError
	return errors.Is(err, errEmptyCheckpoint) || errors.As(err, &syntax) ||
		errors.As(err, &typ) || errors.As(err, &mismatch)
}

// FuzzCheckpointJournal feeds arbitrary bytes to the checkpoint journal's
// readers as the file a killed or corrupted run left behind: ScanCheckpoint,
// and OpenSweepJournal bound to each golden sweep. Each must return a typed
// error (journalError) or a valid restore, never panic or hang. The seed
// corpus under testdata/fuzz/FuzzCheckpointJournal holds the golden sweeps'
// journals, so the restore path runs, and torn, truncated and corrupted
// copies of them; plain `go test` replays it.
func FuzzCheckpointJournal(f *testing.F) {
	var sweeps []Sweep
	for _, name := range []string{"sweep-smoke", "quantile-smoke", "fault-sweep"} {
		data, err := os.ReadFile(filepath.Join("..", "specs", name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		var sw Sweep
		if err := DecodeStrict(data, &sw); err != nil {
			f.Fatal(err)
		}
		sweeps = append(sweeps, sw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, scanErr := ScanCheckpoint(path)
		switch {
		case scanErr != nil:
			if !journalError(scanErr) {
				t.Fatalf("ScanCheckpoint: untyped error %v", scanErr)
			}
		case info.Completed < 0 || info.Completed > max(info.Points, 0) || info.RecordsSkipped < 0:
			t.Fatalf("ScanCheckpoint: inconsistent %+v", info)
		}
		for _, sw := range sweeps {
			// Opening compacts the file, so every sweep starts from data.
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenSweepJournal(sw, path)
			if err != nil {
				if !journalError(err) {
					t.Fatalf("OpenSweepJournal: untyped error %v", err)
				}
				continue
			}
			n, _ := sw.Points()
			if len(j.Restored()) != n || j.RecordsSkipped() < 0 {
				t.Fatalf("restored %d of %d points, %d skipped", len(j.Restored()), n, j.RecordsSkipped())
			}
			restored := 0
			for p, res := range j.Restored() {
				if res == nil {
					continue
				}
				restored++
				if _, err := json.Marshal(res); err != nil {
					t.Fatalf("restored point %d does not marshal: %v", p, err)
				}
			}
			if scanErr == nil && info.Points == n && restored > info.Completed {
				t.Fatalf("restored %d points, the scan counted %d", restored, info.Completed)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
