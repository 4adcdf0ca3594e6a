package sim

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// rangeSweep is the sweep the range tests share: 6 points with split seeds,
// so any absolute-vs-local index confusion in the range machinery changes
// bytes (seed splitting keys on the absolute expansion index).
func rangeSweep() Sweep {
	return Sweep{
		Name: "range",
		Base: Scenario{Topology: Hypercube(3), P: 0.5, Horizon: 200, Seed: 7},
		Axes: []Axis{
			{Field: "router", Values: Strs("greedy", "deflection")},
			{Field: "load_factor", Values: Nums(0.3, 0.6, 0.9)},
		},
		SplitSeeds: true,
	}
}

func TestSweepRangeValidation(t *testing.T) {
	cases := []struct {
		name string
		rng  PointRange
		want string
	}{
		{"negative start", PointRange{Start: -1, Count: 2}, "must be non-negative"},
		{"zero count", PointRange{Start: 0, Count: 0}, "at least 1"},
		{"negative count", PointRange{Start: 2, Count: -3}, "at least 1"},
		{"past the end", PointRange{Start: 4, Count: 3}, "exceeds the 6-point expansion"},
		{"start at the end", PointRange{Start: 6, Count: 1}, "exceeds the 6-point expansion"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := rangeSweep()
			sw.Range = &PointRange{Start: tc.rng.Start, Count: tc.rng.Count}
			err := sw.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestSweepRangeJSONRoundTrip pins the spec encoding: "range" survives the
// JSON round trip and a ranged sweep has a different fingerprint from its
// parent (and from every other range) while deriving deterministically.
func TestSweepRangeJSONRoundTrip(t *testing.T) {
	sw := rangeSweep()
	sw.Range = &PointRange{Start: 2, Count: 3}
	data, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"range":{"start":2,"count":3}`) {
		t.Fatalf("encoded sweep missing range: %s", data)
	}
	var back Sweep
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Range == nil || *back.Range != *sw.Range {
		t.Fatalf("range did not round-trip: %+v", back.Range)
	}

	parentFP, err := rangeSweep().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	rangedFP, err := sw.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	backFP, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if rangedFP == parentFP {
		t.Fatal("ranged sweep shares the parent fingerprint")
	}
	if rangedFP != backFP {
		t.Fatal("ranged fingerprint not stable across the JSON round trip")
	}
}

// TestSweepRangeShardConcatenationByteIdentical is the cluster sharding
// contract at the sim layer: for cluster shapes of 1, 2 and 3 contiguous
// shards, concatenating the shards' JSONL streams yields exactly the bytes
// of the unrestricted run — absolute point indices, split seeds and axis
// assignments included.
func TestSweepRangeShardConcatenationByteIdentical(t *testing.T) {
	_, want := runToSinks(t, rangeSweep())
	n := len(expandScenarios(t, rangeSweep()))
	for _, shards := range []int{1, 2, 3} {
		var got strings.Builder
		for s := 0; s < shards; s++ {
			start, end := s*n/shards, (s+1)*n/shards
			if start == end {
				continue
			}
			sw := rangeSweep()
			sw.Range = &PointRange{Start: start, Count: end - start}
			if _, err := RunSweep(context.Background(), sw, NewJSONLSink(&got)); err != nil {
				t.Fatalf("%d shards, shard %d: %v", shards, s, err)
			}
		}
		if got.String() != want {
			t.Fatalf("%d-shard concatenation differs from the single run:\n%s\nvs\n%s", shards, got.String(), want)
		}
	}
}

// TestSweepRangeExpandRows checks the skeleton-row expansion: absolute
// indices, the range's settings and scenarios, nil results.
func TestSweepRangeExpandRows(t *testing.T) {
	sw := rangeSweep()
	sw.Range = &PointRange{Start: 2, Count: 3}
	rows, err := sw.ExpandRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	full, err := rangeSweep().ExpandRows()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		abs := 2 + i
		if row.Point != abs || row.Result != nil {
			t.Fatalf("row %d = point %d (result %v), want point %d, nil result", i, row.Point, row.Result, abs)
		}
		if settingsString(row.Settings) != settingsString(full[abs].Settings) {
			t.Fatalf("row %d settings %q differ from full expansion %q", i, settingsString(row.Settings), settingsString(full[abs].Settings))
		}
		if row.Scenario.Seed != full[abs].Scenario.Seed {
			t.Fatalf("row %d seed %d differs from full expansion %d (split seeds must use absolute indices)", i, row.Scenario.Seed, full[abs].Scenario.Seed)
		}
	}
}

// TestSweepJournalPrefixPlusRangedSuffix is the re-dispatch property test:
// for every split point k, rendering a journaled prefix [0,k) and re-running
// the suffix [k,n) as a ranged sweep concatenates to the byte-exact stream
// of an uninterrupted run. This is precisely what the cluster coordinator
// does when a worker vanishes mid-shard.
func TestSweepJournalPrefixPlusRangedSuffix(t *testing.T) {
	parent := rangeSweep()
	rows, err := RunSweep(context.Background(), parent)
	if err != nil {
		t.Fatal(err)
	}
	var wantB strings.Builder
	wantSink := NewJSONLSink(&wantB)
	for _, row := range rows {
		if err := wantSink.WriteRow(row); err != nil {
			t.Fatal(err)
		}
	}
	want := wantB.String()
	n := len(rows)

	for k := 0; k <= n; k++ {
		var got strings.Builder
		sink := NewJSONLSink(&got)

		// The journaled prefix: record the first k results, reopen, render.
		path := t.TempDir() + "/prefix.ckpt"
		j, err := OpenSweepJournal(parent, path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := j.Record(i, rows[i].Result); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, err = OpenSweepJournal(parent, path)
		if err != nil {
			t.Fatal(err)
		}
		skel, err := parent.ExpandRows()
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range j.Restored() {
			if i >= k {
				if res != nil {
					t.Fatalf("split %d: journal restored unjournaled point %d", k, i)
				}
				continue
			}
			skel[i].Result = res
			if err := sink.WriteRow(skel[i]); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()

		// The re-run suffix as a ranged sweep.
		if k < n {
			suffix := rangeSweep()
			suffix.Range = &PointRange{Start: k, Count: n - k}
			if _, err := RunSweep(context.Background(), suffix, sink); err != nil {
				t.Fatalf("split %d: %v", k, err)
			}
		}
		if got.String() != want {
			t.Fatalf("split %d: prefix+suffix differs from the uninterrupted stream:\n%s\nvs\n%s", k, got.String(), want)
		}
	}
}

// TestSweepJournalRecordsSkipped checks the torn-tail accounting: both
// ScanCheckpoint and OpenSweepJournal count the records dropped at the
// first unparseable line, and the open's compaction removes them.
func TestSweepJournalRecordsSkipped(t *testing.T) {
	parent := rangeSweep()
	path := t.TempDir() + "/torn.ckpt"
	sw := parent
	sw.CheckpointPath = path
	rows, err := RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ScanCheckpoint(path); err != nil || got.RecordsSkipped != 0 || got.Completed != len(rows) {
		t.Fatalf("clean journal scan = %+v, %v", got, err)
	}

	// Append one torn line and one syntactically valid line after it: both
	// are dropped by replay, so both count as skipped.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"point\":0,\"resu\n{\"point\":99,\"result\":{}}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	info, err := ScanCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.RecordsSkipped != 2 {
		t.Fatalf("ScanCheckpoint.RecordsSkipped = %d, want 2", info.RecordsSkipped)
	}
	if info.Completed != len(rows) {
		t.Fatalf("ScanCheckpoint.Completed = %d, want %d", info.Completed, len(rows))
	}

	j, err := OpenSweepJournal(parent, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.RecordsSkipped() != 2 {
		t.Fatalf("OpenSweepJournal RecordsSkipped = %d, want 2", j.RecordsSkipped())
	}
	if n := journaled(j); n != len(rows) || len(j.Restored()) != len(rows) {
		t.Fatalf("journal completed %d/%d, want %d/%d", n, len(j.Restored()), len(rows), len(rows))
	}
	// Compaction dropped the torn tail from the file itself.
	if info, err := ScanCheckpoint(path); err != nil || info.RecordsSkipped != 0 {
		t.Fatalf("post-compaction scan = %+v, %v", info, err)
	}
}

// TestSweepJournalMismatch checks that the exported journal keeps the
// fingerprint guard: a journal written under one spec refuses another.
func TestSweepJournalMismatch(t *testing.T) {
	path := t.TempDir() + "/j.ckpt"
	j, err := OpenSweepJournal(rangeSweep(), path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := rangeSweep()
	other.Base.Seed = 99
	if _, err := OpenSweepJournal(other, path); err == nil || !strings.Contains(err.Error(), "different sweep spec") {
		t.Fatalf("err = %v, want the fingerprint mismatch", err)
	}
	if _, err := OpenSweepJournal(rangeSweep(), ""); err == nil {
		t.Fatal("empty journal path accepted")
	}
}

// TestSweepJournalRecordBounds checks Record's argument validation.
func TestSweepJournalRecordBounds(t *testing.T) {
	parent := rangeSweep()
	rows, err := RunSweep(context.Background(), parent)
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenSweepJournal(parent, t.TempDir()+"/b.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record(len(rows), rows[0].Result); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range record: err = %v", err)
	}
	if err := j.Record(0, nil); err == nil || !strings.Contains(err.Error(), "nil result") {
		t.Fatalf("nil-result record: err = %v", err)
	}
	if err := j.Record(0, rows[0].Result); err != nil {
		t.Fatal(err)
	}
	if n := journaled(j); n != 1 {
		t.Fatalf("completed = %d after one record", n)
	}
}

// journaled counts the points j holds a result for.
func journaled(j *SweepJournal) int {
	n := 0
	for _, res := range j.Restored() {
		if res != nil {
			n++
		}
	}
	return n
}
