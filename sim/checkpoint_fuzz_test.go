package sim

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
// copies of them; plain `go test` replays it. Where both readers accept the
// journal, the scan counts exactly the points the open restores and the
// records it skips.
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
			if scanErr == nil && (restored != info.Completed || j.RecordsSkipped() != info.RecordsSkipped) {
				t.Fatalf("restored %d points and skipped %d records, the scan counted %d and %d",
					restored, j.RecordsSkipped(), info.Completed, info.RecordsSkipped)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestCheckpointScanAgreesWithOpen replays the fuzz seed bad-result-type: a
// sweep-smoke journal whose only record parses but whose result does not
// decode ("Delivered":"many"). The resume drops that record and re-runs its
// point, so the scan must count no completed point and one skipped record;
// it used to count the record as completed without decoding its result.
func TestCheckpointScanAgreesWithOpen(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCheckpointJournal", "bad-result-type"))
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(seed)), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("seed is not a single []byte corpus entry:\n%s", seed)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := ScanCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Completed != 0 || info.RecordsSkipped != 1 {
		t.Errorf("scan: %d completed, %d skipped; want 0 and 1", info.Completed, info.RecordsSkipped)
	}

	spec, err := os.ReadFile(filepath.Join("..", "specs", "sweep-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sw Sweep
	if err := DecodeStrict(spec, &sw); err != nil {
		t.Fatal(err)
	}
	j, err := OpenSweepJournal(sw, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	restored := 0
	for _, res := range j.Restored() {
		if res != nil {
			restored++
		}
	}
	if restored != info.Completed || j.RecordsSkipped() != info.RecordsSkipped {
		t.Errorf("open: %d restored, %d skipped; the scan counted %d and %d",
			restored, j.RecordsSkipped(), info.Completed, info.RecordsSkipped)
	}
}
