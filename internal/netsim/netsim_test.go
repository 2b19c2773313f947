package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTransferTimeAndEnergy(t *testing.T) {
	u := Uplink{Name: "test", BandwidthBps: 1e6, EnergyPerByte: 2e-6}
	if got := u.TransferTime(2e6); math.Abs(got-2) > 1e-9 {
		t.Fatalf("TransferTime = %v, want 2s", got)
	}
	if got := u.TransferEnergy(1e6); math.Abs(got-2) > 1e-9 {
		t.Fatalf("TransferEnergy = %v, want 2J", got)
	}
}

func TestStandardLinks(t *testing.T) {
	w, l := WiFi(), LTE()
	if w.BandwidthBps <= l.BandwidthBps {
		t.Fatal("WiFi should be faster than LTE")
	}
	if w.EnergyPerByte >= l.EnergyPerByte {
		t.Fatal("LTE should cost more energy per byte")
	}
}

func TestMeterAccumulates(t *testing.T) {
	m := NewMeter(WiFi())
	m.UploadItems(1000, 1)
	m.UploadItems(4000, 3)
	if m.Bytes != 5000 {
		t.Fatalf("Bytes = %d", m.Bytes)
	}
	if m.Items != 4 {
		t.Fatalf("Items = %d", m.Items)
	}
	if m.Joules <= 0 || m.Seconds <= 0 {
		t.Fatal("no energy/time accumulated")
	}
}

func TestMeterRejectsNegative(t *testing.T) {
	m := NewMeter(WiFi())
	defer func() {
		if recover() == nil {
			t.Fatal("negative upload accepted")
		}
	}()
	m.UploadItems(-1, 1)
}

// Property: meters are additive — uploading in two parts equals one
// combined upload.
func TestQuickMeterAdditive(t *testing.T) {
	f := func(a, b uint32) bool {
		m1 := NewMeter(WiFi())
		m1.UploadItems(int64(a), 1)
		m1.UploadItems(int64(b), 1)
		m2 := NewMeter(WiFi())
		m2.UploadItems(int64(a)+int64(b), 1)
		return m1.Bytes == m2.Bytes &&
			math.Abs(m1.Joules-m2.Joules) < 1e-9 &&
			math.Abs(m1.Seconds-m2.Seconds) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
