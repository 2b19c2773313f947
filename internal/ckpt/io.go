package ckpt

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary serialization helpers shared by every checkpoint writer in the
// repo (fleet.Fleet, cloud.Server, core.Node). Snapshot formats are
// little-endian u64 scalars plus length-prefixed opaque sections, so the
// helpers live here next to the store that persists them.

// BoolU64 encodes a bool as a u64 flag (1/0) for config fingerprints.
func BoolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// WriteU64s writes each value as a little-endian u64.
func WriteU64s(w io.Writer, vs ...uint64) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// ReadU64s fills dst with little-endian u64s read from r.
func ReadU64s(r io.Reader, dst []uint64) error {
	for i := range dst {
		if err := binary.Read(r, binary.LittleEndian, &dst[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlob frames save's output with a length prefix so the reader can
// delimit sections without trusting the section codec.
func WriteBlob(w io.Writer, save func(io.Writer) error) error {
	var buf appendWriter
	if err := save(&buf); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(buf))); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// maxBlob bounds one length-prefixed section; anything larger is a
// corrupt or hostile length, not a real snapshot section.
const maxBlob = 1 << 30

// ReadBlob reads one length-prefixed section and hands it to load.
func ReadBlob(r io.Reader, load func(io.Reader) error) error {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if n > maxBlob {
		return fmt.Errorf("ckpt: implausible section size %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	return load(&sliceReader{b: buf})
}

// appendWriter is a minimal append-only writer ([]byte with io.Writer).
type appendWriter []byte

func (b *appendWriter) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// sliceReader reads a byte slice without the bytes.Reader seek surface.
type sliceReader struct {
	b []byte
	i int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}
