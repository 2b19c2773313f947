// Package netsim models the IoT uplink between In-situ AI nodes and the
// Cloud: transfer time and transmit energy as linear functions of bytes
// moved. Table II's data-movement ratios and the uplink component of the
// paper's 30–70% energy saving are computed on these meters.
package netsim

import "fmt"

// Uplink characterizes one wireless link.
type Uplink struct {
	Name string
	// BandwidthBps is effective uplink throughput in bytes/s.
	BandwidthBps float64
	// EnergyPerByte is the node-side transmit energy in J/byte.
	EnergyPerByte float64
}

// WiFi returns a typical 802.11n IoT uplink: ~2 MB/s effective,
// ~100 nJ/bit transmit energy (0.8 µJ/byte).
func WiFi() Uplink {
	return Uplink{Name: "WiFi", BandwidthBps: 2e6, EnergyPerByte: 0.8e-6}
}

// LTE returns a cellular uplink: ~0.6 MB/s, ~1 µJ/bit (8 µJ/byte) —
// remote deployments like wildlife cameras.
func LTE() Uplink {
	return Uplink{Name: "LTE", BandwidthBps: 0.6e6, EnergyPerByte: 8e-6}
}

// TransferTime returns the seconds to move n bytes.
func (u Uplink) TransferTime(n int64) float64 {
	if u.BandwidthBps <= 0 {
		panic("netsim: uplink without bandwidth")
	}
	return float64(n) / u.BandwidthBps
}

// TransferEnergy returns the node joules to transmit n bytes.
func (u Uplink) TransferEnergy(n int64) float64 {
	return float64(n) * u.EnergyPerByte
}

// Meter accumulates uplink usage for one node or one experiment stage.
// Retransmissions (repeat deliveries after a drop or a corrupted
// transfer) are accounted separately so the fault-free data-movement
// series of Table II stays comparable while the extra cost of an
// imperfect link remains visible.
type Meter struct {
	Link    Uplink
	Bytes   int64
	Items   int64
	Seconds float64
	Joules  float64
	// Retransmits counts repeat deliveries; RetransmitBytes and
	// RetransmitJoules/RetransmitSeconds are their byte/energy/time cost.
	Retransmits      int64
	RetransmitBytes  int64
	RetransmitSecs   float64
	RetransmitJoules float64
	// Downloads counts first-attempt downlink deliveries (model pushes);
	// their cost is kept out of the uplink Bytes/Joules series so
	// Table II's data-movement ratios stay upload-only. Redelivery cost
	// still lands in the Retransmit accumulators.
	Downloads      int64
	DownlinkBytes  int64
	DownlinkSecs   float64
	DownlinkJoules float64
}

// NewMeter returns a meter over the given link.
func NewMeter(link Uplink) *Meter { return &Meter{Link: link} }

// UploadItems records moving n bytes representing `items` samples.
func (m *Meter) UploadItems(n, items int64) {
	if n < 0 {
		panic(fmt.Sprintf("netsim: negative upload %d", n))
	}
	m.Bytes += n
	m.Items += items
	m.Seconds += m.Link.TransferTime(n)
	m.Joules += m.Link.TransferEnergy(n)
}

// Retransmit records re-sending n bytes after a failed delivery.
func (m *Meter) Retransmit(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("netsim: negative retransmit %d", n))
	}
	m.Retransmits++
	m.RetransmitBytes += n
	m.RetransmitSecs += m.Link.TransferTime(n)
	m.RetransmitJoules += m.Link.TransferEnergy(n)
}

// Download records the first transmit of n bytes down to the node.
func (m *Meter) Download(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("netsim: negative download %d", n))
	}
	m.Downloads++
	m.DownlinkBytes += n
	m.DownlinkSecs += m.Link.TransferTime(n)
	m.DownlinkJoules += m.Link.TransferEnergy(n)
}
