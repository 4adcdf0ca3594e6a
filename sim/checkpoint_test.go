package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCheckpointMismatchTyped pins the typed spec-hash guard: resuming a
// journal written by a different sweep returns *CheckpointMismatchError
// carrying both fingerprints, and the message names them both so the
// operator can see which side changed. The journal itself is left intact.
func TestCheckpointMismatchTyped(t *testing.T) {
	path := t.TempDir() + "/sweep.ckpt"
	first := checkpointSweep()
	first.CheckpointPath = path
	if _, err := RunSweep(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	firstFP, err := first.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	second := checkpointSweep()
	second.Base.Seed = 10
	second.CheckpointPath = path
	secondFP, err := second.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSweep(context.Background(), second)
	var mm *CheckpointMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("err = %v, want *CheckpointMismatchError", err)
	}
	if mm.Path != path {
		t.Fatalf("mismatch names path %q, want %q", mm.Path, path)
	}
	if mm.JournalSHA256 != firstFP || mm.SpecSHA256 != secondFP {
		t.Fatalf("mismatch fingerprints = journal %s / spec %s, want %s / %s",
			mm.JournalSHA256, mm.SpecSHA256, firstFP, secondFP)
	}
	if mm.JournalPoints != 4 || mm.SpecPoints != 4 {
		t.Fatalf("mismatch point counts = %d / %d, want 4 / 4", mm.JournalPoints, mm.SpecPoints)
	}
	msg := err.Error()
	for _, fp := range []string{firstFP, secondFP} {
		if !strings.Contains(msg, fp) {
			t.Fatalf("error message does not name fingerprint %s:\n%s", fp, msg)
		}
	}
	// The journal survives the refusal: the original sweep still resumes it.
	first.Progress = func(done, total int) { t.Errorf("intact journal re-ran a point (%d/%d)", done, total) }
	if _, err := RunSweep(context.Background(), first); err != nil {
		t.Fatalf("original sweep no longer resumes its journal: %v", err)
	}
}

// TestScanCheckpoint pins the daemon's restart probe: ScanCheckpoint reports
// the journal's fingerprint and completion without touching the file, counts
// a torn tail as incomplete, and wraps fs.ErrNotExist for a missing journal.
func TestScanCheckpoint(t *testing.T) {
	dir := t.TempDir()

	if _, err := ScanCheckpoint(dir + "/absent.ckpt"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing journal: err = %v, want fs.ErrNotExist", err)
	}

	path := dir + "/sweep.ckpt"
	sw := checkpointSweep()
	sw.CheckpointPath = path
	if _, err := RunSweep(context.Background(), sw); err != nil {
		t.Fatal(err)
	}
	fp, err := sw.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	info, err := ScanCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.SweepSHA256 != fp {
		t.Fatalf("scanned fingerprint %s, want %s", info.SweepSHA256, fp)
	}
	if info.Points != 4 || info.Completed != 4 || info.Completed != info.Points {
		t.Fatalf("scan = %+v, want 4/4 complete", info)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A torn tail does not count as a completed point and does not break the
	// scan of the valid prefix.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"point":2,"resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	info, err = ScanCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Completed != 4 || info.Completed != info.Points {
		t.Fatalf("scan after torn tail = %+v, want still 4/4", info)
	}

	// The scan never mutates the journal (the torn tail is still there).
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) == string(before) {
		t.Fatal("torn tail disappeared without a resume")
	}

	// A partial journal scans as incomplete.
	lines := splitLines(before)
	partial := append(append([]byte{}, lines[0]...), '\n')
	partial = append(partial, lines[1]...)
	partial = append(partial, '\n')
	partialPath := dir + "/partial.ckpt"
	if err := os.WriteFile(partialPath, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err = ScanCheckpoint(partialPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != 4 || info.Completed != 1 || info.Completed == info.Points {
		t.Fatalf("partial scan = %+v, want 1/4 incomplete", info)
	}
}

func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, data[start:])
	}
	return lines
}

// TestJournalLineMatchesMarshal pins the journal line encoding: appendRecord
// builds the exact bytes of json.Marshal(ckEntry{...}) — the encoding every
// existing journal was written with — NaN-as-null fields included.
func TestJournalLineMatchesMarshal(t *testing.T) {
	rows, err := RunSweep(context.Background(), checkpointSweep())
	if err != nil {
		t.Fatal(err)
	}
	results := []*Result{rows[0].Result, rows[3].Result}
	nan := *rows[3].Result
	nan.DelayP95, nan.DelayP99 = math.NaN(), math.NaN()
	hc := *nan.Hypercube
	hc.GreedyLowerBound, hc.GreedyUpperBound = math.NaN(), math.NaN()
	nan.Hypercube = &hc
	nan.Faults = &FaultStats{Offered: 3, DeliveryRatio: math.NaN(), ConditionalMeanDelay: math.NaN()}
	results = append(results, &nan)
	for i, res := range results {
		point := 7 * i
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ckEntry{Point: point, Result: resJSON})
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendRecord([]byte("prefix"), point, res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want)+"\n" {
			t.Fatalf("result %d: journal line\n%s\nwant\n%s", i, got, want)
		}
	}
	if line, _ := appendRecord(nil, 0, &nan); !strings.Contains(string(line), `"delivery_ratio":null`) {
		t.Fatalf("the NaN case encodes no null field:\n%s", line)
	}
}

// journaledSink fails any row whose point has no complete, parseable record
// in the journal file at the moment the row is written, and cancels the
// sweep after stopAfter rows when that is positive.
type journaledSink struct {
	path      string
	stopAfter int
	cancel    context.CancelFunc
	rows      int
}

func (s *journaledSink) WriteRow(r Row) error {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return err
	}
	lines := strings.Split(string(data), "\n")
	found := false
	for _, line := range lines[1 : len(lines)-1] { // header and unterminated tail excluded
		var e ckEntry
		if err := json.Unmarshal([]byte(line), &e); err == nil && e.Point == r.Point && len(e.Result) > 0 {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("row %d streamed before its journal record was complete:\n%s", r.Point, data)
	}
	s.rows++
	if s.rows == s.stopAfter {
		s.cancel()
	}
	return nil
}

// TestStreamedRowIsJournaled pins the durability order of RunSweep's
// group-committed journal: a row reaches the sinks only after its point's
// record is in the journal file, on a fresh journal and on a resumed one,
// serially and in parallel.
func TestStreamedRowIsJournaled(t *testing.T) {
	wantCSV, _ := runToSinks(t, checkpointSweep())
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			dir := t.TempDir()
			sw := checkpointSweep()
			sw.Parallelism = par

			// Fresh journal, run to completion.
			sw.CheckpointPath = dir + "/full.ckpt"
			sink := &journaledSink{path: sw.CheckpointPath}
			if _, err := RunSweep(context.Background(), sw, sink); err != nil {
				t.Fatal(err)
			}
			if sink.rows != 4 {
				t.Fatalf("fresh run streamed %d rows, want 4", sink.rows)
			}

			// Fresh journal, cancelled after its first row; then resumed.
			sw.CheckpointPath = dir + "/cut.ckpt"
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink = &journaledSink{path: sw.CheckpointPath, stopAfter: 1, cancel: cancel}
			if _, err := RunSweep(ctx, sw, sink); err != context.Canceled {
				t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
			}
			sink = &journaledSink{path: sw.CheckpointPath}
			var csv strings.Builder
			if _, err := RunSweep(context.Background(), sw, sink, NewCSVSink(&csv)); err != nil {
				t.Fatal(err)
			}
			if sink.rows != 4 || csv.String() != wantCSV {
				t.Fatalf("resumed run streamed %d rows:\n%s\nwant 4:\n%s", sink.rows, csv.String(), wantCSV)
			}
		})
	}
}

// TestCheckpointMissingDirectory pins a journal that cannot be created: the
// fresh journal is created while the first points simulate, yet RunSweep
// still returns the checkpoint error, streams no row, creates no file and
// leaves no goroutine behind.
func TestCheckpointMissingDirectory(t *testing.T) {
	dir := t.TempDir() + "/absent"
	before := runtime.NumGoroutine()
	sw := checkpointSweep()
	sw.Parallelism = 2
	sw.CheckpointPath = dir + "/sweep.ckpt"
	sink := &cancelSink{}
	_, err := RunSweep(context.Background(), sw, sink)
	if err == nil || !strings.HasPrefix(err.Error(), "sim: writing sweep checkpoint") || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want the journal creation error", err)
	}
	if len(sink.rows) != 0 {
		t.Fatalf("streamed rows %v without a journal", sink.rows)
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat %s: err = %v, want it still absent", dir, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the sweep", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
