package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// TestLoadCheckpointSaveJSON: -load of a binary checkpoint with -save
// writes the store's JSON export, byte for byte what persist.Write gives:
// the way to turn a data directory's checkpoint into a file to read.
func TestLoadCheckpointSaveJSON(t *testing.T) {
	cfg := workload.DefaultInfluenza
	cfg.Annotations = 20
	study, err := workload.Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Export(study.Store)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	checkpoint, out := filepath.Join(dir, "graphitti-0000000000000001.snap"), filepath.Join(dir, "out.json")
	var bin, want bytes.Buffer
	if err := persist.WriteCheckpoint(snap, &bin); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(checkpoint, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := persist.Write(study.Store, &want); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load", checkpoint, "-save", out, "stats"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("-save wrote %d bytes that differ from the %d of the export", len(got), want.Len())
	}
}

// TestSaveFailureIsAnError: a -save that cannot write its file fails the
// command, whatever the command itself returned.
func TestSaveFailureIsAnError(t *testing.T) {
	out := filepath.Join(t.TempDir(), "missing", "out.json")
	if err := run([]string{"-study", "none", "-save", out, "stats"}); err == nil {
		t.Fatal("-save into a missing directory succeeded")
	}
}
