// Package atomicfile replaces a file's contents durably: the checkpoint
// journal's compaction (sim) and the daemon's job records (internal/jobs)
// both need a file that a crash leaves either wholly old or wholly new.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile replaces path with data: it writes path+".tmp", fsyncs it,
// renames it over path and fsyncs the directory so the rename itself
// survives a power cut. The directory fsync is best-effort — some network
// mounts do not support it, which weakens durability but never leaves a
// torn file.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
