// Package deploy packages model updates for the Cloud→node downlink: a
// versioned bundle holding the inference weights, the unsupervised
// (jigsaw/diagnosis) weights and the recalibrated diagnosis threshold,
// framed with a CRC-32 so a node never applies a corrupted update. The
// bundle size is the downlink data-movement cost of each incremental
// update — the counterpart of the uplink accounting in internal/netsim
// (identical across the paper's four system variants, which is why Table
// II only tracks the uplink; this package makes that claim checkable).
package deploy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"insitu/internal/diagnosis"
	"insitu/internal/nn"
)

// ErrStale marks a bundle whose version is not newer than what the node
// already runs — a replayed or out-of-order delivery that must not be
// applied.
var ErrStale = errors.New("deploy: stale bundle version")

// ErrNonFinite marks a bundle carrying NaN/Inf weights or threshold. A
// CRC proves the bytes survived the downlink, not that the model is
// sane: a diverged Cloud-side training run (or a corrupt checkpoint that
// happens to checksum) must never be served. ApplyAtomic rejects such
// bundles and leaves the node on its previous model.
var ErrNonFinite = errors.New("deploy: non-finite model state")

// Bundle is one versioned model deployment.
type Bundle struct {
	Version          uint32
	Threshold        float64
	InferenceWeights []byte
	JigsawWeights    []byte
}

const bundleMagic = "ISDP0001"

// Pack serializes both networks and the threshold into a bundle.
func Pack(version uint32, inference, jigsaw *nn.Network, threshold float64) (*Bundle, error) {
	var inf, jig bytes.Buffer
	if err := inference.SaveWeights(&inf); err != nil {
		return nil, fmt.Errorf("deploy: packing inference weights: %w", err)
	}
	if err := jigsaw.SaveWeights(&jig); err != nil {
		return nil, fmt.Errorf("deploy: packing jigsaw weights: %w", err)
	}
	return &Bundle{
		Version:          version,
		Threshold:        threshold,
		InferenceWeights: inf.Bytes(),
		JigsawWeights:    jig.Bytes(),
	}, nil
}

// Size returns the encoded size in bytes — the downlink cost.
func (b *Bundle) Size() int64 {
	// magic + version + threshold + 2 length prefixes + payloads + crc.
	return int64(len(bundleMagic)) + 4 + 8 + 4 + 4 +
		int64(len(b.InferenceWeights)) + int64(len(b.JigsawWeights)) + 4
}

// Encode frames the bundle onto w with a trailing CRC-32 (IEEE) over
// everything after the magic.
func (b *Bundle) Encode(w io.Writer) error {
	var body bytes.Buffer
	if err := binary.Write(&body, binary.LittleEndian, b.Version); err != nil {
		return err
	}
	if err := binary.Write(&body, binary.LittleEndian, math.Float64bits(b.Threshold)); err != nil {
		return err
	}
	for _, payload := range [][]byte{b.InferenceWeights, b.JigsawWeights} {
		if err := binary.Write(&body, binary.LittleEndian, uint32(len(payload))); err != nil {
			return err
		}
		if _, err := body.Write(payload); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, bundleMagic); err != nil {
		return err
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(body.Bytes()))
}

// EncodeBytes returns the framed wire encoding of the bundle.
func (b *Bundle) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode reads a framed bundle, verifying the magic and checksum.
func Decode(r io.Reader) (*Bundle, error) {
	magic := make([]byte, len(bundleMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("deploy: reading magic: %w", err)
	}
	if string(magic) != bundleMagic {
		return nil, fmt.Errorf("deploy: bad magic %q", magic)
	}
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(body) < 4 {
		return nil, fmt.Errorf("deploy: truncated bundle")
	}
	payload, sum := body[:len(body)-4], binary.LittleEndian.Uint32(body[len(body)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("deploy: checksum mismatch: bundle corrupted in transit")
	}
	br := bytes.NewReader(payload)
	b := &Bundle{}
	if err := binary.Read(br, binary.LittleEndian, &b.Version); err != nil {
		return nil, err
	}
	var thr uint64
	if err := binary.Read(br, binary.LittleEndian, &thr); err != nil {
		return nil, err
	}
	b.Threshold = math.Float64frombits(thr)
	for _, dst := range []*[]byte{&b.InferenceWeights, &b.JigsawWeights} {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		// Compare in int64: int(n) can wrap negative on 32-bit platforms
		// and bypass the bound.
		if int64(n) > int64(br.Len()) {
			return nil, fmt.Errorf("deploy: payload length %d exceeds remaining %d", n, br.Len())
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		*dst = buf
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("deploy: %d trailing bytes", br.Len())
	}
	return b, nil
}

// ApplyAtomic loads the bundle's weights into the node's networks —
// which must be structurally identical to the ones the bundle was packed
// from — and sets the diagnosis threshold. It is the node's OTA update
// path: it rejects stale or replayed bundles (Version must exceed
// current), snapshots both networks' weights before touching them, and
// rolls the snapshot back if either load fails mid-apply (LoadWeights
// writes in place as it reads) — the node is never left half-updated. On
// success it returns nil and the caller should advance its version to
// b.Version; on any error the networks still hold their previous
// weights and the threshold is unchanged.
func (b *Bundle) ApplyAtomic(current uint32, inference, jigsaw *nn.Network, diag diagnosis.Diagnoser) error {
	if b.Version <= current {
		return fmt.Errorf("%w: bundle v%d, node runs v%d", ErrStale, b.Version, current)
	}
	if math.IsNaN(b.Threshold) || math.IsInf(b.Threshold, 0) {
		return fmt.Errorf("%w: threshold %v", ErrNonFinite, b.Threshold)
	}
	var infSnap, jigSnap bytes.Buffer
	if err := inference.SaveWeights(&infSnap); err != nil {
		return fmt.Errorf("deploy: snapshotting inference weights: %w", err)
	}
	if err := jigsaw.SaveWeights(&jigSnap); err != nil {
		return fmt.Errorf("deploy: snapshotting jigsaw weights: %w", err)
	}
	restore := func(net *nn.Network, snap *bytes.Buffer) error {
		return net.LoadWeights(bytes.NewReader(snap.Bytes()))
	}
	if err := inference.LoadWeights(bytes.NewReader(b.InferenceWeights)); err != nil {
		if rerr := restore(inference, &infSnap); rerr != nil {
			return fmt.Errorf("deploy: rollback failed (%v) after apply error: %w", rerr, err)
		}
		return fmt.Errorf("deploy: applying inference weights (rolled back): %w", err)
	}
	if err := jigsaw.LoadWeights(bytes.NewReader(b.JigsawWeights)); err != nil {
		if rerr := restore(inference, &infSnap); rerr != nil {
			return fmt.Errorf("deploy: rollback failed (%v) after apply error: %w", rerr, err)
		}
		if rerr := restore(jigsaw, &jigSnap); rerr != nil {
			return fmt.Errorf("deploy: rollback failed (%v) after apply error: %w", rerr, err)
		}
		return fmt.Errorf("deploy: applying jigsaw weights (rolled back): %w", err)
	}
	// Weight sanity: both loads succeeded and the CRC already passed, but
	// a corrupt-yet-checksummed model (poisoned at the source) must not be
	// served. Roll back to the snapshots on any non-finite value.
	if err := firstNonFinite(inference, jigsaw); err != nil {
		if rerr := restore(inference, &infSnap); rerr != nil {
			return fmt.Errorf("deploy: rollback failed (%v) after reject: %w", rerr, err)
		}
		if rerr := restore(jigsaw, &jigSnap); rerr != nil {
			return fmt.Errorf("deploy: rollback failed (%v) after reject: %w", rerr, err)
		}
		return fmt.Errorf("%w (rolled back): %v", ErrNonFinite, err)
	}
	if diag != nil {
		diag.SetThreshold(b.Threshold)
	}
	return nil
}

// firstNonFinite returns the first NaN/Inf complaint across the nets.
func firstNonFinite(nets ...*nn.Network) error {
	for _, n := range nets {
		if err := n.CheckFinite(); err != nil {
			return err
		}
	}
	return nil
}
