package netsim

import "testing"

func deliveries(l *LossyLink, n int) []Delivery {
	out := make([]Delivery, n)
	for i := range out {
		out[i] = l.Transmit(1000)
	}
	return out
}

func TestLossyLinkDeterministicForSeed(t *testing.T) {
	cfg := FaultConfig{Seed: 42, CorruptProb: 0.3, DropProb: 0.2}
	a := deliveries(NewLossyLink(WiFi(), cfg), 200)
	b := deliveries(NewLossyLink(WiFi(), cfg), 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at transfer %d: %v vs %v", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := deliveries(NewLossyLink(WiFi(), cfg), 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical fault sequence")
	}
}

func TestLossyLinkRatesRoughlyMatch(t *testing.T) {
	l := NewLossyLink(WiFi(), FaultConfig{Seed: 7, CorruptProb: 0.25, DropProb: 0.25})
	const n = 4000
	deliveries(l, n)
	if l.Stats.Transfers != n {
		t.Fatalf("transfers = %d", l.Stats.Transfers)
	}
	for name, got := range map[string]int64{"corrupted": l.Stats.Corrupted, "dropped": l.Stats.Dropped} {
		frac := float64(got) / n
		if frac < 0.18 || frac > 0.32 {
			t.Fatalf("%s fraction %v far from configured 0.25", name, frac)
		}
	}
}

func TestLossyLinkPerfectByDefault(t *testing.T) {
	var cfg FaultConfig
	if cfg.Enabled() {
		t.Fatal("zero config should be a perfect link")
	}
	l := NewLossyLink(LTE(), cfg)
	for i, d := range deliveries(l, 100) {
		if d != DeliverOK {
			t.Fatalf("perfect link faulted at transfer %d: %v", i, d)
		}
	}
}

func TestLossyLinkOutageWindow(t *testing.T) {
	l := NewLossyLink(WiFi(), FaultConfig{Seed: 1, Outages: []Outage{{Start: 2, End: 5}}})
	got := deliveries(l, 8)
	for i, d := range got {
		want := DeliverOK
		if i >= 2 && i < 5 {
			want = DeliverDrop
		}
		if d != want {
			t.Fatalf("transfer %d = %v, want %v", i, d, want)
		}
	}
	if l.Stats.OutageDrops != 3 {
		t.Fatalf("outage drops = %d", l.Stats.OutageDrops)
	}
}

func TestCorruptPayloadChangesBytes(t *testing.T) {
	l := NewLossyLink(WiFi(), FaultConfig{Seed: 9, CorruptProb: 1})
	p := make([]byte, 64)
	orig := append([]byte(nil), p...)
	l.CorruptPayload(p)
	changed := false
	for i := range p {
		if p[i] != orig[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("CorruptPayload left the payload intact")
	}
	l.CorruptPayload(nil) // must not panic on empty payloads
}

func TestFaultConfigValidate(t *testing.T) {
	bad := []FaultConfig{
		{CorruptProb: -0.1},
		{DropProb: 1.5},
		{CorruptProb: 0.6, DropProb: 0.6},
		{Outages: []Outage{{Start: 5, End: 5}}},
		{Outages: []Outage{{Start: -1, End: 2}}},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	ok := FaultConfig{CorruptProb: 0.5, DropProb: 0.5, Outages: []Outage{{Start: 0, End: 3}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMeterRetransmitAccounting(t *testing.T) {
	m := NewMeter(WiFi())
	m.UploadItems(1000, 1)
	m.Retransmit(500)
	m.Retransmit(500)
	if m.Bytes != 1000 || m.Items != 1 {
		t.Fatalf("retransmits leaked into primary accounting: %+v", m)
	}
	if m.Retransmits != 2 || m.RetransmitBytes != 1000 {
		t.Fatalf("retransmit counts wrong: %+v", m)
	}
	if m.RetransmitJoules <= 0 || m.RetransmitSecs <= 0 {
		t.Fatalf("retransmit energy/time not accounted: %+v", m)
	}
}
