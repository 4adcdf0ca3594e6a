package sim

import (
	"errors"
	"fmt"
)

// SweepJournal is the sweep checkpoint journal (the file behind
// Sweep.CheckpointPath) as a first-class API. It exists for callers that
// obtain point Results from somewhere other than a local RunSweep — the
// cluster coordinator (internal/cluster) journals rows merged from remote
// workers — and want the exact format, fingerprint binding, fsync
// durability and torn-tail tolerance RunSweep's own journal has. Because
// the format and the spec binding are identical, a journal written through
// this API for a sweep is interchangeable with a single-machine
// `cmd/sweep -checkpoint` journal for the same spec: either side can
// resume what the other started, byte-identically.
//
// A SweepJournal is not safe for concurrent use; callers serialize Record
// (the coordinator holds its merge lock, mirroring RunSweep's row mutex).
type SweepJournal struct {
	ck       *checkpoint
	restored []*Result
	skipped  int
}

// OpenSweepJournal creates (or resumes) the journal at path for the sweep.
// The journal header is bound to the sweep's fingerprint and expansion size:
// opening a journal written by a different spec fails with a
// *CheckpointMismatchError. An existing journal is compacted — unreadable
// trailing records are dropped (see RecordsSkipped) — and its valid entries
// are restored.
func OpenSweepJournal(sw Sweep, path string) (*SweepJournal, error) {
	if path == "" {
		return nil, errors.New("sim: sweep journal path must be non-empty")
	}
	pts, err := sw.expand()
	if err != nil {
		return nil, err
	}
	restored, skipped, ck, err := openCheckpoint(sw, path, len(pts))
	if err != nil {
		return nil, err
	}
	if err := ck.create(); err != nil {
		return nil, err
	}
	return &SweepJournal{ck: ck, restored: restored, skipped: skipped}, nil
}

// Points returns the sweep's executed point count (the Range's size for a
// ranged sweep) — the length of Restored and the exclusive bound on Record
// indices.
func (j *SweepJournal) Points() int { return len(j.restored) }

// Restored returns the journaled results indexed by point, nil where no
// valid record exists. For a ranged sweep the indices are local to the
// range, matching RunSweep's journal. The slice is the journal's own;
// callers must not mutate it.
func (j *SweepJournal) Restored() []*Result { return j.restored }

// Completed counts the points Restored holds a result for.
func (j *SweepJournal) Completed() int {
	n := 0
	for _, res := range j.restored {
		if res != nil {
			n++
		}
	}
	return n
}

// RecordsSkipped reports how many unreadable records the open dropped — a
// torn tail from a mid-write kill, or corruption. The affected points
// simply re-run; a non-zero count after a clean shutdown is worth a log
// line.
func (j *SweepJournal) RecordsSkipped() int { return j.skipped }

// Record appends one completed point's result and fsyncs the journal, so a
// recorded point survives a power cut. Appending a point that is already
// journaled is legal (replay keeps the latest record); recording outside
// the sweep's point range is an error.
func (j *SweepJournal) Record(point int, res *Result) error {
	if point < 0 || point >= len(j.restored) {
		return fmt.Errorf("sim: sweep journal point %d out of range [0, %d)", point, len(j.restored))
	}
	if res == nil {
		return fmt.Errorf("sim: sweep journal point %d: nil result", point)
	}
	if err := j.ck.record(point, res); err != nil {
		return err
	}
	j.restored[point] = res
	return nil
}

// Close releases the journal's file handle. The file is left in place:
// deleting a completed journal is the caller's choice.
func (j *SweepJournal) Close() error { return j.ck.close() }
