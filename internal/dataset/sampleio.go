package dataset

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"insitu/internal/models"
	"insitu/internal/tensor"
)

// Binary serialization of samples, used by the checkpoint writers that
// persist Cloud replay pools (cloud.Server via fleet.Fleet). One sample is
// label and condition as little-endian u64s followed by the raw float32
// image bits — fixed-size, so a pool of n samples needs no per-sample
// framing.

// sampleFloats is the image payload length every serialized sample has.
const sampleFloats = models.ImgChannels * models.ImgSize * models.ImgSize

// WriteSample writes one sample to w. buf, when non-nil, must hold at
// least 4*ImgChannels*ImgSize*ImgSize bytes and is reused as scratch so
// pool writers avoid a per-sample allocation; pass nil to let WriteSample
// allocate.
func WriteSample(w io.Writer, s Sample, buf []byte) error {
	if len(s.Image.Data) != sampleFloats {
		return fmt.Errorf("dataset: sample has %d floats, want %d", len(s.Image.Data), sampleFloats)
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(s.Label)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(s.Condition)); err != nil {
		return err
	}
	if buf == nil {
		buf = make([]byte, 4*sampleFloats)
	}
	for i, v := range s.Image.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf[:4*sampleFloats])
	return err
}

// ReadSample reads one sample written by WriteSample. buf follows the
// same contract as WriteSample's.
func ReadSample(r io.Reader, buf []byte) (Sample, error) {
	var hdr [2]uint64
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return Sample{}, err
		}
	}
	if buf == nil {
		buf = make([]byte, 4*sampleFloats)
	}
	if _, err := io.ReadFull(r, buf[:4*sampleFloats]); err != nil {
		return Sample{}, err
	}
	img := tensor.New(models.ImgChannels, models.ImgSize, models.ImgSize)
	for j := range img.Data {
		img.Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
	}
	return Sample{
		Image:     img,
		Label:     int(int64(hdr[0])),
		Condition: Condition(int64(hdr[1])),
	}, nil
}
