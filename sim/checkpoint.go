package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"

	"repro/internal/atomicfile"
)

// This file implements the sweep checkpoint journal behind
// Sweep.CheckpointPath. The format is JSON Lines:
//
//	{"sweep_sha256":"<hex>","points":N}        header, written first
//	{"point":17,"result":{...}}                one line per completed point
//
// The header fingerprints the sweep spec (its canonical JSON) plus the
// expansion size, so a journal can never silently resume a different sweep.
// Completed points append in completion order — the order is irrelevant on
// restore because every line names its point. A process killed mid-write
// leaves at most one torn final line; restore stops at the first line that
// does not parse, re-runs that point, and compacts the journal through an
// atomic write-temp-then-rename before appending resumes. Results restore
// bit-exactly (Result's UnmarshalJSON shadows reverse the NaN-as-null
// encoding, and Go prints float64 at shortest round-trip precision), so a
// resumed sweep streams byte-identical rows to an uninterrupted one.
//
// RunSweep journals off its points' critical path: one writer goroutine per
// journal (groupCommit) creates a fresh journal while the first points
// simulate, then appends every record waiting in its queue and fsyncs once
// per batch. A point's row reaches the sinks, and Sweep.Progress counts it,
// only after that fsync, so every streamed row survives a power cut.

// ckHeader is the journal's first line.
type ckHeader struct {
	SweepSHA256 string `json:"sweep_sha256"`
	Points      int    `json:"points"`
}

// ckEntry is one completed-point line.
type ckEntry struct {
	Point  int             `json:"point"`
	Result json.RawMessage `json:"result"`
}

// CheckpointMismatchError reports a checkpoint journal that was written by a
// different sweep spec than the one trying to resume from it. It names both
// fingerprints so the operator can tell whether the spec changed or the path
// is simply being reused; nothing is discarded — the journal is left intact
// and the caller picks a different path or deletes it deliberately.
type CheckpointMismatchError struct {
	// Path is the journal file.
	Path string
	// JournalSHA256 and JournalPoints identify the sweep the journal was
	// written by.
	JournalSHA256 string
	JournalPoints int
	// SpecSHA256 and SpecPoints identify the sweep that tried to resume.
	SpecSHA256 string
	SpecPoints int
}

// Error names the journal and both spec fingerprints.
func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("sim: sweep checkpoint %s was written by a different sweep spec: journal sha256 %s (%d points) vs spec sha256 %s (%d points); delete it or pick another path",
		e.Path, e.JournalSHA256, e.JournalPoints, e.SpecSHA256, e.SpecPoints)
}

// CheckpointInfo summarises a checkpoint journal without resuming it.
type CheckpointInfo struct {
	// SweepSHA256 is the fingerprint of the sweep the journal belongs to
	// (compare with Sweep.Fingerprint).
	SweepSHA256 string
	// Points is the sweep's expansion size recorded in the header.
	Points int
	// Completed is the number of distinct points with a valid journaled
	// result (a torn tail from a mid-write kill is not counted).
	Completed int
	// RecordsSkipped counts the journal lines dropped during replay: the
	// first line that fails to parse (a torn tail from a mid-write kill, or
	// corruption) and everything after it. Skipped records are discarded by
	// the next resume's compaction and their points re-run; a non-zero count
	// after a clean shutdown indicates journal corruption worth surfacing.
	RecordsSkipped int
}

// Complete reports whether every point of the sweep is journaled: resuming a
// complete journal replays the whole row stream without running a single
// simulation.
func (ci CheckpointInfo) Complete() bool { return ci.Completed == ci.Points }

// ScanCheckpoint reads a checkpoint journal's header and counts its valid
// completed points without restoring results or mutating the file. The
// daemon uses it on restart to decide which recovered jobs still need work.
// A missing file returns an error wrapping fs.ErrNotExist.
func ScanCheckpoint(path string) (CheckpointInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("sim: reading sweep checkpoint: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(bytes.TrimSpace(lines[0])) == 0 {
		return CheckpointInfo{}, fmt.Errorf("sim: sweep checkpoint %s is empty", path)
	}
	var hdr ckHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return CheckpointInfo{}, fmt.Errorf("sim: sweep checkpoint %s: unreadable header: %w", path, err)
	}
	info := CheckpointInfo{SweepSHA256: hdr.SweepSHA256, Points: hdr.Points}
	seen := make(map[int]bool)
	body := lines[1:]
	for li, line := range body {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e ckEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Point < 0 || e.Point >= hdr.Points || len(e.Result) == 0 {
			info.RecordsSkipped = countRecords(body[li:]) // torn tail
			break
		}
		if !seen[e.Point] {
			seen[e.Point] = true
			info.Completed++
		}
	}
	return info, nil
}

// countRecords counts the non-blank lines of a journal suffix — the records
// a replay that broke at its first line will drop.
func countRecords(lines [][]byte) int {
	n := 0
	for _, line := range lines {
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	return n
}

// sweepFingerprint hashes the sweep's canonical JSON spec. Execution policy
// (parallelism, sinks, timeouts, the checkpoint path itself) is tagged
// `json:"-"` and therefore excluded: resuming on a different machine or
// worker count is legal and yields identical results.
func sweepFingerprint(sw Sweep) (string, error) {
	spec, err := json.Marshal(sw)
	if err != nil {
		return "", fmt.Errorf("sim: fingerprinting sweep spec: %w", err)
	}
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:]), nil
}

// checkpoint is a journal, open for appends once create has run.
type checkpoint struct {
	path string
	f    *os.File
	init []byte // header and restored records, until create writes them
}

// openCheckpoint resumes the journal at path for a sweep expanding to n
// points, or prepares a fresh one. It returns the restored results indexed
// by point (nil entries were never journaled; for a ranged sweep indices are
// local to the range), the number of unreadable records skipped and dropped
// by compaction, and the journal. An existing journal is compacted and open
// for appends on return; a fresh one is not on disk until create runs, which
// lets RunSweep create it while the first points simulate.
func openCheckpoint(sw Sweep, path string, n int) ([]*Result, int, *checkpoint, error) {
	fp, err := sweepFingerprint(sw)
	if err != nil {
		return nil, 0, nil, err
	}
	restored := make([]*Result, n)
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist), err == nil && len(bytes.TrimSpace(data)) == 0:
		data = nil
	case err != nil:
		return nil, 0, nil, fmt.Errorf("sim: reading sweep checkpoint %s: %w", path, err)
	}

	skipped := 0
	var keep [][]byte // valid journal lines, verbatim, for the compacted rewrite
	if data != nil {
		lines := bytes.Split(data, []byte("\n"))
		var hdr ckHeader
		if err := json.Unmarshal(lines[0], &hdr); err != nil {
			return nil, 0, nil, fmt.Errorf("sim: sweep checkpoint %s: unreadable header: %w", path, err)
		}
		if hdr.SweepSHA256 != fp || hdr.Points != n {
			return nil, 0, nil, &CheckpointMismatchError{
				Path:          path,
				JournalSHA256: hdr.SweepSHA256,
				JournalPoints: hdr.Points,
				SpecSHA256:    fp,
				SpecPoints:    n,
			}
		}
		body := lines[1:]
		for li, line := range body {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var e ckEntry
			if err := json.Unmarshal(line, &e); err != nil || e.Point < 0 || e.Point >= n || len(e.Result) == 0 {
				skipped = countRecords(body[li:])
				break // torn tail from a mid-write kill: re-run from here
			}
			res := new(Result)
			if err := json.Unmarshal(e.Result, res); err != nil {
				skipped = countRecords(body[li:])
				break
			}
			restored[e.Point] = res
			keep = append(keep, line)
		}
	}

	hdrLine, err := json.Marshal(ckHeader{SweepSHA256: fp, Points: n})
	if err != nil {
		return nil, 0, nil, fmt.Errorf("sim: sweep checkpoint %s: %w", path, err)
	}
	init := append(hdrLine, '\n')
	for _, line := range keep {
		init = append(append(init, line...), '\n')
	}
	c := &checkpoint{path: path, init: init}
	if data != nil {
		if err := c.create(); err != nil {
			return nil, 0, nil, err
		}
	}
	return restored, skipped, c, nil
}

// create writes the journal's header and restored records through an atomic
// replace — so a compaction never leaves the torn tail behind — and opens
// the journal for appends at a clean end-of-file. It does nothing once the
// journal is open.
func (c *checkpoint) create() error {
	if c.f != nil {
		return nil
	}
	if err := atomicfile.WriteFile(c.path, c.init); err != nil {
		return fmt.Errorf("sim: writing sweep checkpoint %s: %w", c.path, err)
	}
	f, err := os.OpenFile(c.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sim: opening sweep checkpoint %s for append: %w", c.path, err)
	}
	c.f, c.init = f, nil
	return nil
}

// appendRecord appends one completed point's journal line, newline
// included, to buf. The bytes are those of json.Marshal(ckEntry{...}),
// built without a second pass over the encoded result.
func appendRecord(buf []byte, point int, res *Result) ([]byte, error) {
	resJSON, err := json.Marshal(res)
	if err != nil {
		return buf, err
	}
	buf = append(buf, `{"point":`...)
	buf = strconv.AppendInt(buf, int64(point), 10)
	buf = append(buf, `,"result":`...)
	buf = append(buf, resJSON...)
	return append(buf, "}\n"...), nil
}

// write appends whole journal lines and fsyncs once: when it returns, every
// record in lines survives a power cut, not just a process kill.
func (c *checkpoint) write(lines []byte) error {
	if _, err := c.f.Write(lines); err != nil {
		return err
	}
	return c.f.Sync()
}

// record appends one completed point and fsyncs the journal.
func (c *checkpoint) record(point int, res *Result) error {
	line, err := appendRecord(nil, point, res)
	if err != nil {
		return err
	}
	return c.write(line)
}

// ckRecord is one completed point queued for the journal writer.
type ckRecord struct {
	point int
	res   *Result
}

// groupCommit is RunSweep's journal writer; it runs on its own goroutine
// until queue is closed and drained. It creates the journal if it is not on
// disk yet, then repeatedly takes every record waiting in queue, appends
// them, fsyncs once and hands the batch's points to commit. The first error
// goes to commit instead, the failed batch's points unjournaled; from then
// on the writer only drains the queue.
func (c *checkpoint) groupCommit(queue <-chan ckRecord, commit func(points []int, err error)) {
	err := c.create()
	if err != nil {
		commit(nil, err)
	}
	var (
		buf    []byte
		points []int
	)
	for rec := range queue {
		if err != nil {
			continue // journaling stopped: drain only
		}
		buf, points = buf[:0], points[:0]
		for more := true; more && err == nil; {
			points = append(points, rec.point)
			buf, err = appendRecord(buf, rec.point, rec.res)
			select {
			case rec, more = <-queue:
			default:
				more = false
			}
		}
		if err == nil {
			err = c.write(buf)
		}
		if err != nil {
			err = fmt.Errorf("sim: sweep checkpoint %s: %w", c.path, err)
			commit(nil, err)
			continue
		}
		commit(points, nil)
	}
}

// close releases the journal file handle, if create opened one. The journal
// itself is left in place — deleting it after a completed sweep is the
// caller's choice.
func (c *checkpoint) close() error {
	if c.f == nil {
		return nil
	}
	return c.f.Close()
}
