package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.bin")
	for _, want := range [][]byte{[]byte("first version"), []byte("second")} {
		if err := Write(path, func(w io.Writer) error {
			_, err := w.Write(want)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("committed %q, want %q", got, want)
		}
	}
}

// TestWriterErrorKeepsCommittedFile: a writer that fails after producing
// some bytes — more than the buffer holds, so part of them reached the temp
// file — leaves the previously committed file byte-identical and no temp
// file behind.
func TestWriterErrorKeepsCommittedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	committed := []byte("committed contents")
	if err := Write(path, func(w io.Writer) error {
		_, err := w.Write(committed)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("writer failed")
	err := Write(path, func(w io.Writer) error {
		if _, err := w.Write(bytes.Repeat([]byte{0xAB}, 3<<20)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want the writer's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, committed) {
		t.Fatalf("committed file changed to %d bytes", len(got))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "data.bin" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only data.bin", names)
	}
}
