package cloud

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"insitu/internal/dataset"
	"insitu/internal/models"
)

func testServer() *Server {
	return NewServer(Config{
		Classes: 3, PermClasses: 4, SharedConvs: 3, Probes: 3, Seed: 5,
		FullScaleSpec: models.AlexNet(), Cost: NewCostModel(),
	})
}

// packed is everything a driver can observe of a Server's state.
func packed(t *testing.T, s *Server) (frame []byte, threshold float64, version uint32, pool int) {
	t.Helper()
	b, err := s.Pack()
	if err != nil {
		t.Fatal(err)
	}
	frame, err = b.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return frame, s.diag.Threshold(), s.version, len(s.pool)
}

// sectionEnds parses a Save stream's framing: the offset just past each
// section (counters, five length-prefixed blobs, the pool count).
func sectionEnds(t *testing.T, raw []byte) []int {
	t.Helper()
	ends := []int{5 * 8}
	for i := 0; i < 5; i++ {
		at := ends[len(ends)-1]
		ends = append(ends, at+8+int(binary.LittleEndian.Uint64(raw[at:])))
	}
	return append(ends, ends[len(ends)-1]+4)
}

// The Cloud half alone, on a small synthetic stream: a Server saved
// between two updates and loaded into a fresh instance must run the
// second update to the same bundle bytes, threshold, version and pool —
// for the weight-sharing variant and for the Cloud-side filter.
func TestServerSaveLoadContinuesIdentically(t *testing.T) {
	for _, tc := range []struct {
		name        string
		locked      int
		cloudFilter bool
	}{{"shared", 3, false}, {"cloud-filter", 0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			gen := dataset.NewGenerator(3, 9)
			draw := func(n int) []dataset.Sample { return gen.MixedSet(n, 0.6, 0.7) }

			base := testServer()
			base.Bootstrap(draw(24))
			if got := base.Update(draw(16), draw(12), tc.locked, tc.cloudFilter); got == 0 || got > 16 {
				t.Fatalf("first update trained on %d samples", got)
			}
			var snap bytes.Buffer
			if err := base.Save(&snap); err != nil {
				t.Fatal(err)
			}
			resumed := testServer()
			if err := resumed.Load(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}

			set, calibs := draw(16), draw(12)
			wantTrained := base.Update(set, calibs, tc.locked, tc.cloudFilter)
			if got := resumed.Update(set, calibs, tc.locked, tc.cloudFilter); got != wantTrained {
				t.Fatalf("resumed update trained on %d samples, uninterrupted on %d", got, wantTrained)
			}
			wantFrame, wantThr, wantVer, wantPool := packed(t, base)
			gotFrame, gotThr, gotVer, gotPool := packed(t, resumed)
			if !bytes.Equal(wantFrame, gotFrame) {
				t.Error("bundle bytes differ after resume")
			}
			if wantThr != gotThr || wantVer != gotVer || wantPool != gotPool {
				t.Errorf("resumed (threshold %v, version %d, pool %d), uninterrupted (%v, %d, %d)",
					gotThr, gotVer, gotPool, wantThr, wantVer, wantPool)
			}
			if wantVer != 1 || wantPool != 24+16+16 {
				t.Errorf("version %d pool %d, want 1 and %d", wantVer, wantPool, 24+16+16)
			}
		})
	}
}

func TestServerLoadRejectsDamagedStreams(t *testing.T) {
	s := testServer()
	s.Bootstrap(dataset.NewGenerator(3, 9).MixedSet(24, 0.6, 0.7))
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()
	ends := sectionEnds(t, raw)
	count := ends[len(ends)-1] - 4
	if got := binary.LittleEndian.Uint32(raw[count:]); got != 24 {
		t.Fatalf("pool count at offset %d reads %d, want 24", count, got)
	}

	// Truncated at every section boundary (and mid-pool): an error, never
	// a half-restored Server handed back as good.
	for _, cut := range append([]int{0, len(raw) - 1}, ends...) {
		if err := testServer().Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("Load accepted a stream truncated to %d of %d bytes", cut, len(raw))
		}
	}

	// The pool count is attacker-controlled: claiming 4 Gi samples must
	// run into the end of the stream, not into the allocator.
	huge := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(huge[count:], math.MaxUint32)
	if err := testServer().Load(bytes.NewReader(huge)); err == nil {
		t.Error("Load accepted a pool count far beyond the stream")
	}

	// A stream that decodes cleanly can still carry a poisoned model.
	s.infer.Params()[0].Value.Data[0] = float32(math.NaN())
	snap.Reset()
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := testServer().Load(bytes.NewReader(snap.Bytes())); err == nil {
		t.Error("Load accepted non-finite weights")
	}
}
