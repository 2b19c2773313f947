package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	for i, payload := range [][]byte{[]byte("one"), []byte("two"), {}} {
		if _, err := s.Save(payload); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
		got, _, err := s.LoadLatest()
		if err != nil {
			t.Fatalf("LoadLatest after save %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("save %d: got %q want %q", i, got, payload)
		}
	}
}

func TestEmptyStore(t *testing.T) {
	s := open(t, t.TempDir())
	if _, _, err := s.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store: got %v, want ErrNoSnapshot", err)
	}
}

// A truncated latest snapshot (torn write under a non-atomic filesystem,
// or a partially synced file) must be skipped in favor of the previous
// good one.
func TestTornWriteFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if _, err := s.Save([]byte("good")); err != nil {
		t.Fatal(err)
	}
	last, err := s.Save([]byte("torn"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, path, err := s.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if string(got) != "good" {
		t.Fatalf("got %q from %s, want fallback to %q", got, path, "good")
	}
}

// A bit flip anywhere in the frame must fail the CRC and fall back.
func TestBitFlipFallsBack(t *testing.T) {
	s := open(t, t.TempDir())
	if _, err := s.Save([]byte("previous")); err != nil {
		t.Fatal(err)
	}
	last, err := s.Save([]byte("flipped"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(last, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if string(got) != "previous" {
		t.Fatalf("got %q, want fallback to %q", got, "previous")
	}
}

func TestAllCorruptIsErrNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	p, err := s.Save([]byte("only"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
}

// Losing the MANIFEST (crash between snapshot rename and manifest
// rename) must not lose the snapshot: the scan fallback finds it.
func TestMissingManifestScans(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if _, err := s.Save([]byte("scanned")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if string(got) != "scanned" {
		t.Fatalf("got %q, want %q", got, "scanned")
	}
}

func TestRetentionPrunes(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.keep = 2
	for i := 0; i < 5; i++ {
		if _, err := s.Save([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var snaps []string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if snapRe.MatchString(e.Name()) {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots %v, want 2", len(snaps), snaps)
	}
	got, _, err := s.LoadLatest()
	if err != nil || got[0] != 4 {
		t.Fatalf("latest after prune: %v payload %v, want [4]", err, got)
	}
}

// Reopening a store must continue the sequence so the snapshot just
// restored from is never overwritten.
func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	first, err := s.Save([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	second, err := s2.Save([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatalf("reopened store overwrote %s", first)
	}
	got, _, err := s2.LoadLatest()
	if err != nil || string(got) != "b" {
		t.Fatalf("latest after reopen: %q, %v", got, err)
	}
	// And the older one still verifies (fallback depth preserved).
	if _, err := readSnapshot(first); err != nil {
		t.Fatalf("first snapshot no longer verifies: %v", err)
	}
}

// A leftover .tmp file from a crash mid-write must be invisible to the
// loader and not confuse the sequence scan.
func TestLeftoverTempIgnored(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if _, err := s.Save([]byte("real")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-00000009.ckpt.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.LoadLatest()
	if err != nil || string(got) != "real" {
		t.Fatalf("got %q, %v", got, err)
	}
	s2 := open(t, dir)
	if _, err := s2.Save([]byte("next")); err != nil {
		t.Fatalf("save with leftover tmp: %v", err)
	}
}
