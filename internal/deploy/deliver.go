package deploy

import (
	"bytes"
	"errors"
	"fmt"

	"insitu/internal/diagnosis"
	"insitu/internal/netsim"
	"insitu/internal/nn"
)

// The Cloud-side delivery loop: encode a bundle once, push it over a
// (possibly faulty) downlink, and retry with exponential backoff until
// the node's ApplyAtomic accepts it or the retry budget runs out. It
// meters retransmits, classifies faults for telemetry, and leaves the
// node on its previous version after a persistent failure; core.Node
// runs it for every deployment shape.

// Target is the node-side state one delivery lands on.
type Target struct {
	Current   uint32 // bundle version the node currently runs
	Inference *nn.Network
	Jigsaw    *nn.Network
	Diag      diagnosis.Diagnoser // may be nil
}

// Downlink describes the channel and retry policy for Deliver.
type Downlink struct {
	Link        *netsim.LossyLink // nil = perfect channel
	Meter       *netsim.Meter     // retransmit accounting; nil = unmetered
	Retries     int               // total delivery attempts, min 1
	BackoffBase float64           // modeled seconds before the first redelivery; doubles per retry
}

// Result summarizes one bundle's delivery.
type Result struct {
	Bytes       int64   // encoded frame length (downlink cost per delivery)
	Attempts    int     // deliveries tried, including the successful one
	Retransmits int64   // extra bytes spent on redeliveries
	Backoff     float64 // modeled seconds spent waiting between attempts
	Version     uint32  // version the node runs afterwards (Target.Current on failure)
	Failed      bool    // every attempt failed; the node kept its previous model
	Err         error   // last delivery error when Failed (or last retried error)
}

// Deliver ships the bundle to the target with retries. On success the
// returned Version is the bundle's; on persistent failure the target is
// exactly as it was — stale bundles short-circuit instead of burning
// the remaining budget (a newer version is already running).
func (d Downlink) Deliver(b *Bundle, tgt Target) Result {
	frame, err := b.EncodeBytes()
	if err != nil {
		return Result{Version: tgt.Current, Failed: true,
			Err: fmt.Errorf("deploy: encoding bundle: %w", err)}
	}
	// Result.Bytes and the retransmit accounting share one basis: the
	// encoded frame length (== Size() by construction, asserted in tests).
	out := Result{Bytes: int64(len(frame)), Version: tgt.Current}
	if d.Meter != nil {
		// The first transmit costs downlink bytes too — only redeliveries
		// used to be metered, leaving attempt one invisible to energy
		// accounting.
		d.Meter.Download(int64(len(frame)))
	}

	retries := d.Retries
	if retries < 1 {
		retries = 1
	}
	for attempt := 1; attempt <= retries; attempt++ {
		out.Attempts = attempt
		if attempt > 1 {
			// Redelivery: back off, then pay the transmit cost again. The
			// doubling is capped at 2^62 — beyond that the shift would
			// overflow int64 and feed garbage (possibly negative) backoff
			// into the schedule.
			shift := attempt - 2
			if shift > 62 {
				shift = 62
			}
			out.Backoff += d.BackoffBase * float64(int64(1)<<shift)
			if d.Meter != nil {
				d.Meter.Retransmit(int64(len(frame)))
			}
			out.Retransmits += int64(len(frame))
		}
		raw := frame
		delivery := netsim.DeliverOK
		if d.Link != nil {
			delivery = d.Link.Transmit(int64(len(frame)))
		}
		switch delivery {
		case netsim.DeliverDrop:
			out.Err = fmt.Errorf("deploy: bundle v%d lost in transit", b.Version)
			continue
		case netsim.DeliverCorrupt:
			raw = append([]byte(nil), frame...)
			d.Link.CorruptPayload(raw)
		}
		received, err := Decode(bytes.NewReader(raw))
		if err != nil {
			// The node's CRC caught the corruption; ask for a redelivery.
			out.Err = fmt.Errorf("deploy: downlink corrupted: %w", err)
			continue
		}
		if err := received.ApplyAtomic(tgt.Current, tgt.Inference, tgt.Jigsaw, tgt.Diag); err != nil {
			// Mid-apply failure rolled the node back to its previous
			// weights; stale bundles are not retried.
			out.Err = fmt.Errorf("deploy: applying bundle: %w", err)
			if errors.Is(err, ErrStale) {
				break
			}
			continue
		}
		out.Version = received.Version
		out.Err = nil
		return out
	}
	out.Failed = true
	return out
}
