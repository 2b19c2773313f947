package deploy

import (
	"math"
	"testing"

	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/netsim"
)

func deliverFixture(t *testing.T) (*Bundle, Target) {
	t.Helper()
	inf := models.TinyAlex(3, 1)
	jig := jigsaw.NewNet(6, 2)
	bundle, err := Pack(1, inf, jig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return bundle, Target{
		Current:   0,
		Inference: models.TinyAlex(3, 9),
		Jigsaw:    jigsaw.NewNet(6, 8),
	}
}

// Result.Bytes and the retransmit accounting must share one basis — the
// encoded frame length — and that length must equal Size() exactly (the
// invariant the fault-ablation byte series relies on).
func TestDeliverBytesUseEncodedFrameLength(t *testing.T) {
	bundle, tgt := deliverFixture(t)
	frame, err := bundle.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(frame)) != bundle.Size() {
		t.Fatalf("Size() = %d but encoded frame is %d bytes", bundle.Size(), len(frame))
	}

	// Drop every attempt: each retry must account exactly one frame.
	link := netsim.NewLossyLink(netsim.WiFi(), netsim.FaultConfig{
		Seed: 1, Outages: []netsim.Outage{netsim.PermanentOutage()},
	})
	meter := netsim.NewMeter(netsim.WiFi())
	res := Downlink{Link: link, Meter: meter, Retries: 4}.Deliver(bundle, tgt)
	if !res.Failed || res.Attempts != 4 {
		t.Fatalf("dark link: %+v", res)
	}
	if res.Bytes != int64(len(frame)) {
		t.Fatalf("Result.Bytes = %d, want frame length %d", res.Bytes, len(frame))
	}
	if want := int64(3 * len(frame)); res.Retransmits != want {
		t.Fatalf("Retransmits = %d, want %d (3 redeliveries)", res.Retransmits, want)
	}
	if meter.RetransmitBytes != res.Retransmits {
		t.Fatalf("meter retransmit bytes %d != result %d", meter.RetransmitBytes, res.Retransmits)
	}
}

// The first transmit costs downlink bytes too: a clean single-attempt
// delivery must show up on the meter, not only redeliveries.
func TestDeliverMetersFirstTransmit(t *testing.T) {
	bundle, tgt := deliverFixture(t)
	meter := netsim.NewMeter(netsim.WiFi())
	res := Downlink{Meter: meter, Retries: 3}.Deliver(bundle, tgt)
	if res.Failed || res.Attempts != 1 {
		t.Fatalf("perfect link: %+v", res)
	}
	if meter.Downloads != 1 || meter.DownlinkBytes != res.Bytes {
		t.Fatalf("meter = %d downloads / %d bytes, want 1 / %d",
			meter.Downloads, meter.DownlinkBytes, res.Bytes)
	}
	if meter.RetransmitBytes != 0 {
		t.Fatalf("clean delivery metered %d retransmit bytes", meter.RetransmitBytes)
	}
	if meter.DownlinkSecs <= 0 || meter.DownlinkJoules <= 0 {
		t.Fatalf("downlink time/energy not accounted: %+v", meter)
	}
	// Uplink accumulators stay untouched: Table II's series is upload-only.
	if meter.Bytes != 0 || meter.Items != 0 {
		t.Fatalf("download leaked into uplink accounting: %+v", meter)
	}

	// A faulty multi-attempt delivery still meters the first transmit
	// exactly once.
	bundle2, tgt2 := deliverFixture(t)
	bundle2.Version = 2
	meter = netsim.NewMeter(netsim.WiFi())
	link := netsim.NewLossyLink(netsim.WiFi(), netsim.FaultConfig{Seed: 3, DropProb: 0.5})
	res = Downlink{Link: link, Meter: meter, Retries: 50}.Deliver(bundle2, tgt2)
	if res.Failed {
		t.Fatalf("50 retries at 50%% drop failed: %+v", res)
	}
	if meter.Downloads != 1 || meter.DownlinkBytes != res.Bytes {
		t.Fatalf("faulty delivery metered %d downloads / %d bytes, want 1 / %d",
			meter.Downloads, meter.DownlinkBytes, res.Bytes)
	}
	if want := int64(res.Attempts-1) * res.Bytes; meter.RetransmitBytes != want {
		t.Fatalf("retransmit bytes %d, want %d", meter.RetransmitBytes, want)
	}
}

// Regression for the backoff-exponent overflow: with a retry budget past
// 64 the shift int64(1)<<(attempt-2) used to overflow into garbage
// (negative or zero) backoff. The schedule must stay positive, finite
// and monotone no matter how large the budget.
func TestDeliverBackoffSurvivesLargeRetryBudget(t *testing.T) {
	bundle, tgt := deliverFixture(t)
	link := netsim.NewLossyLink(netsim.WiFi(), netsim.FaultConfig{
		Seed: 1, Outages: []netsim.Outage{netsim.PermanentOutage()},
	})
	prev := 0.0
	for _, retries := range []int{63, 64, 65, 80, 200} {
		res := Downlink{Link: link, Retries: retries, BackoffBase: 0.5}.Deliver(bundle, tgt)
		if !res.Failed || res.Attempts != retries {
			t.Fatalf("retries=%d: %+v", retries, res)
		}
		if res.Backoff <= 0 || math.IsNaN(res.Backoff) || math.IsInf(res.Backoff, 0) {
			t.Fatalf("retries=%d: backoff %v not positive finite", retries, res.Backoff)
		}
		if res.Backoff < prev {
			t.Fatalf("retries=%d: backoff %v shrank below %v (overflow wrapped negative)",
				retries, res.Backoff, prev)
		}
		prev = res.Backoff
	}
}
