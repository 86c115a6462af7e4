// Package atomicfile replaces a file's contents so that a crash at any
// moment leaves either the previously committed file or the complete new
// one — never a partial or empty file under the final name.
package atomicfile

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with what write produces. The bytes go to path+".tmp"
// through a buffered writer; the temp file is flushed, fsynced and closed,
// renamed over path, and the parent directory is fsynced so the rename
// itself survives a crash. If write or any step fails, path keeps its
// previous contents and the temp file is removed.
func Write(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op once renamed
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
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
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
