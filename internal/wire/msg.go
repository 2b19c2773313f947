package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"insitu/internal/dataset"
)

// Message payload codecs. Everything is little-endian and fixed-layout;
// strings and byte blobs are u32-length-prefixed. Samples reuse the
// checkpoint serialization (dataset.WriteSample/ReadSample) so an upload
// batch round-trips the exact float32 bits the in-process fleet would
// have handed the server — the wire transport must not perturb a single
// ulp, or the equivalence tests catch it.

// enc accumulates one payload.
type enc struct {
	buf bytes.Buffer
	err error
}

func (e *enc) u8(v uint8) { e.buf.WriteByte(v) }
func (e *enc) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf.WriteByte(b)
}
func (e *enc) u32(v uint32) { var b [4]byte; binary.LittleEndian.PutUint32(b[:], v); e.buf.Write(b[:]) }
func (e *enc) u64(v uint64) { var b [8]byte; binary.LittleEndian.PutUint64(b[:], v); e.buf.Write(b[:]) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	if len(s) > math.MaxUint32 {
		e.fail(fmt.Errorf("wire: string too long"))
		return
	}
	e.u32(uint32(len(s)))
	e.buf.WriteString(s)
}
func (e *enc) blob(b []byte) {
	e.u32(uint32(len(b)))
	e.buf.Write(b)
}
func (e *enc) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}
func (e *enc) bytes() ([]byte, error) { return e.buf.Bytes(), e.err }

// dec consumes one payload with a sticky error.
type dec struct {
	r   *bytes.Reader
	err error
}

func newDec(payload []byte) *dec { return &dec{r: bytes.NewReader(payload)} }

func (d *dec) fail(err error) {
	if d.err == nil && err != nil {
		d.err = err
	}
}
func (d *dec) u8() uint8 {
	b, err := d.r.ReadByte()
	d.fail(err)
	return b
}
func (d *dec) bool() bool { return d.u8() != 0 }
func (d *dec) u32() uint32 {
	var b [4]byte
	n, err := d.r.Read(b[:])
	if n != 4 || err != nil {
		d.fail(fmt.Errorf("wire: truncated payload"))
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}
func (d *dec) u64() uint64 {
	var b [8]byte
	n, err := d.r.Read(b[:])
	if n != 8 || err != nil {
		d.fail(fmt.Errorf("wire: truncated payload"))
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) str() string  { return string(d.blob()) }
func (d *dec) blob() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if int64(n) > int64(d.r.Len()) {
		d.fail(fmt.Errorf("wire: blob length %d exceeds remaining %d", n, d.r.Len()))
		return nil
	}
	b := make([]byte, n)
	if n > 0 {
		if _, err := d.r.Read(b); err != nil {
			d.fail(err)
			return nil
		}
	}
	return b
}

// done returns the sticky error, also complaining about trailing bytes —
// a frame must parse exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.r.Len() != 0 {
		return fmt.Errorf("wire: %d trailing payload bytes", d.r.Len())
	}
	return nil
}

// Hello is the node's opening message.
type Hello struct {
	// Node is the requested node id, or -1 to let the cloud assign one.
	Node int32
	// MinProto/MaxProto is the protocol version range this node speaks.
	MinProto, MaxProto uint8
	// Epoch is the session epoch from the node's last Welcome, or 0 for
	// a fresh process. The cloud uses it to tell a surviving process
	// redialing after a network blip (epoch matches: reattach, the node's
	// state is live) from a restarted one (epoch stale or 0: restore the
	// last round-boundary state blob and replay the round's commands).
	Epoch uint64
}

// Encode serializes the message payload.
func (h Hello) Encode() []byte {
	var e enc
	e.u32(uint32(h.Node))
	e.u8(h.MinProto)
	e.u8(h.MaxProto)
	e.u64(h.Epoch)
	b, _ := e.bytes()
	return b
}

// DecodeHello parses a MsgHello payload. The epoch is optional on
// decode so a proto-1 Hello still parses far enough for the cloud to
// answer with a proper negotiation-failure Error instead of a hangup.
func DecodeHello(payload []byte) (Hello, error) {
	d := newDec(payload)
	h := Hello{Node: int32(d.u32()), MinProto: d.u8(), MaxProto: d.u8()}
	if d.err == nil && d.r.Len() >= 8 {
		h.Epoch = d.u64()
	}
	return h, d.done()
}

// FaultSpec is the wire form of a netsim.FaultConfig (kept free of the
// netsim import so netsim's proxy can import wire).
type FaultSpec struct {
	Seed                  uint64
	CorruptProb, DropProb float64
	// Outages is the blackout windows as [start, end) pairs.
	Outages [][2]int64
}

func (f FaultSpec) encode(e *enc) {
	e.u64(f.Seed)
	e.f64(f.CorruptProb)
	e.f64(f.DropProb)
	e.u32(uint32(len(f.Outages)))
	for _, o := range f.Outages {
		e.i64(o[0])
		e.i64(o[1])
	}
}

func decodeFaultSpec(d *dec) FaultSpec {
	f := FaultSpec{Seed: d.u64(), CorruptProb: d.f64(), DropProb: d.f64()}
	n := d.u32()
	if d.err != nil || n > 1<<16 {
		d.fail(fmt.Errorf("wire: unreasonable outage count %d", n))
		return f
	}
	for i := uint32(0); i < n; i++ {
		f.Outages = append(f.Outages, [2]int64{d.i64(), d.i64()})
	}
	return f
}

// NodeConfig is everything a node process needs to reconstruct its half
// of the fleet — the same derivations the in-process fleet performs, so
// a remote node's state is bit-identical to a local worker's.
type NodeConfig struct {
	Kind        uint32
	Classes     uint32
	PermClasses uint32
	SharedConvs uint32
	Probes      uint32
	Seed        uint64
	InSituFrac  float64
	// Link is the modeled uplink (name + linear byte cost model).
	LinkName          string
	LinkBandwidthBps  float64
	LinkEnergyPerByte float64
	DeployRetries     uint32
	Uplink, Downlink  FaultSpec
	// Outage marks this node as permanently dark (both directions) in
	// the *simulated* link model; the wire transport still functions.
	Outage bool
	// HeartbeatMs is how often the node should send MsgHeartbeat while
	// otherwise idle, in milliseconds. 0 = no heartbeats (the cloud runs
	// without leases).
	HeartbeatMs uint32
	// EvalSamples is the node's post-deploy evaluation size (images per
	// round). 0 = the paper-faithful 120; scale fleets shrink it.
	EvalSamples uint32
}

func (c NodeConfig) encode(e *enc) {
	e.u32(c.Kind)
	e.u32(c.Classes)
	e.u32(c.PermClasses)
	e.u32(c.SharedConvs)
	e.u32(c.Probes)
	e.u64(c.Seed)
	e.f64(c.InSituFrac)
	e.str(c.LinkName)
	e.f64(c.LinkBandwidthBps)
	e.f64(c.LinkEnergyPerByte)
	e.u32(c.DeployRetries)
	c.Uplink.encode(e)
	c.Downlink.encode(e)
	e.bool(c.Outage)
	e.u32(c.HeartbeatMs)
	e.u32(c.EvalSamples)
}

func decodeNodeConfig(d *dec) NodeConfig {
	return NodeConfig{
		Kind:              d.u32(),
		Classes:           d.u32(),
		PermClasses:       d.u32(),
		SharedConvs:       d.u32(),
		Probes:            d.u32(),
		Seed:              d.u64(),
		InSituFrac:        d.f64(),
		LinkName:          d.str(),
		LinkBandwidthBps:  d.f64(),
		LinkEnergyPerByte: d.f64(),
		DeployRetries:     d.u32(),
		Uplink:            decodeFaultSpec(d),
		Downlink:          decodeFaultSpec(d),
		Outage:            d.bool(),
		HeartbeatMs:       d.u32(),
		EvalSamples:       d.u32(),
	}
}

// Welcome is the cloud's handshake answer.
type Welcome struct {
	// Proto is the negotiated protocol version for the session.
	Proto uint8
	// Node is the id this connection serves.
	Node uint32
	// Epoch is the cloud-assigned session epoch for this attachment; the
	// node echoes it in its next Hello so the cloud can distinguish a
	// surviving process from a restarted one.
	Epoch uint64
	Cfg   NodeConfig
}

// Encode serializes the message payload.
func (w Welcome) Encode() []byte {
	var e enc
	e.u8(w.Proto)
	e.u32(w.Node)
	e.u64(w.Epoch)
	w.Cfg.encode(&e)
	b, _ := e.bytes()
	return b
}

// DecodeWelcome parses a MsgWelcome payload.
func DecodeWelcome(payload []byte) (Welcome, error) {
	d := newDec(payload)
	w := Welcome{Proto: d.u8(), Node: d.u32(), Epoch: d.u64(), Cfg: decodeNodeConfig(d)}
	return w, d.done()
}

// Capture commands one capture/diagnose/upload phase. Severity is the
// in-situ condition strength the node renders this round's images under
// — the environment drifts during a run, so it rides on the command
// rather than in the handshake.
type Capture struct {
	Round     uint32
	N         uint32
	Bootstrap bool
	Severity  float64
}

// Encode serializes the message payload.
func (c Capture) Encode() []byte {
	var e enc
	e.u32(c.Round)
	e.u32(c.N)
	e.bool(c.Bootstrap)
	e.f64(c.Severity)
	b, _ := e.bytes()
	return b
}

// DecodeCapture parses a MsgCapture payload.
func DecodeCapture(payload []byte) (Capture, error) {
	d := newDec(payload)
	c := Capture{Round: d.u32(), N: d.u32(), Bootstrap: d.bool(), Severity: d.f64()}
	return c, d.done()
}

// Upload is a node's capture-phase answer, samples included.
type Upload struct {
	Round    uint32
	Captured uint32
	Uploaded uint32
	CalibN   uint32
	UpBytes  int64
	UplinkJ  float64
	UplinkS  float64
	Failed   bool
	// Diagnosis quality triple (diagnosis.Quality flattened).
	QualityUploadFraction float64
	QualityErrorRecall    float64
	QualityPrecision      float64
	Samples               []dataset.Sample
	Calib                 []dataset.Sample
}

func encodeSamples(e *enc, samples []dataset.Sample, buf []byte) {
	e.u32(uint32(len(samples)))
	for _, s := range samples {
		if err := dataset.WriteSample(&e.buf, s, buf); err != nil {
			e.fail(fmt.Errorf("wire: encoding sample: %w", err))
			return
		}
	}
}

func decodeSamples(d *dec, buf []byte) []dataset.Sample {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	// A sample is ~12 KB on the wire; bound the count by what the
	// remaining payload can actually hold.
	if int64(n)*16 > int64(d.r.Len())+16 {
		d.fail(fmt.Errorf("wire: sample count %d exceeds payload", n))
		return nil
	}
	out := make([]dataset.Sample, 0, n)
	for i := uint32(0); i < n; i++ {
		s, err := dataset.ReadSample(d.r, buf)
		if err != nil {
			d.fail(fmt.Errorf("wire: decoding sample %d: %w", i, err))
			return nil
		}
		out = append(out, s)
	}
	return out
}

// Encode serializes the message payload.
func (u Upload) Encode() ([]byte, error) {
	var e enc
	e.u32(u.Round)
	e.u32(u.Captured)
	e.u32(u.Uploaded)
	e.u32(u.CalibN)
	e.i64(u.UpBytes)
	e.f64(u.UplinkJ)
	e.f64(u.UplinkS)
	e.bool(u.Failed)
	e.f64(u.QualityUploadFraction)
	e.f64(u.QualityErrorRecall)
	e.f64(u.QualityPrecision)
	buf := make([]byte, dataset.ImageBytes)
	encodeSamples(&e, u.Samples, buf)
	encodeSamples(&e, u.Calib, buf)
	return e.bytes()
}

// DecodeUpload parses a MsgUpload payload.
func DecodeUpload(payload []byte) (Upload, error) {
	d := newDec(payload)
	u := Upload{
		Round:                 d.u32(),
		Captured:              d.u32(),
		Uploaded:              d.u32(),
		CalibN:                d.u32(),
		UpBytes:               d.i64(),
		UplinkJ:               d.f64(),
		UplinkS:               d.f64(),
		Failed:                d.bool(),
		QualityUploadFraction: d.f64(),
		QualityErrorRecall:    d.f64(),
		QualityPrecision:      d.f64(),
	}
	buf := make([]byte, dataset.ImageBytes)
	u.Samples = decodeSamples(d, buf)
	u.Calib = decodeSamples(d, buf)
	return u, d.done()
}

// Deploy pushes one model bundle (the deploy package's own CRC-framed
// encoding rides opaquely inside the wire frame). Severity is the
// condition strength the node grades the delivered model under; it
// repeats the round's Capture value, because a node that rejoined after
// the capture was sent gets the deploy alone.
type Deploy struct {
	Round    uint32
	Severity float64
	Bundle   []byte
}

// Encode serializes the message payload.
func (p Deploy) Encode() []byte {
	var e enc
	e.u32(p.Round)
	e.f64(p.Severity)
	e.blob(p.Bundle)
	b, _ := e.bytes()
	return b
}

// DecodeDeploy parses a MsgDeploy payload.
func DecodeDeploy(payload []byte) (Deploy, error) {
	d := newDec(payload)
	p := Deploy{Round: d.u32(), Severity: d.f64(), Bundle: d.blob()}
	return p, d.done()
}

// DeployResult is a node's deploy-phase answer: the deploy.Result fields
// that feed the round report, plus the post-deploy evaluation. The
// delivery error itself stays node-side (reports never carry it).
type DeployResult struct {
	Round       uint32
	Bytes       int64
	Attempts    uint32
	Retransmits int64
	Backoff     float64
	Version     uint32
	Failed      bool
	NodeVersion uint32
	Accuracy    float64
}

// Encode serializes the message payload.
func (r DeployResult) Encode() []byte {
	var e enc
	e.u32(r.Round)
	e.i64(r.Bytes)
	e.u32(r.Attempts)
	e.i64(r.Retransmits)
	e.f64(r.Backoff)
	e.u32(r.Version)
	e.bool(r.Failed)
	e.u32(r.NodeVersion)
	e.f64(r.Accuracy)
	b, _ := e.bytes()
	return b
}

// DecodeDeployResult parses a MsgDeployResult payload.
func DecodeDeployResult(payload []byte) (DeployResult, error) {
	d := newDec(payload)
	r := DeployResult{
		Round:       d.u32(),
		Bytes:       d.i64(),
		Attempts:    d.u32(),
		Retransmits: d.i64(),
		Backoff:     d.f64(),
		Version:     d.u32(),
		Failed:      d.bool(),
		NodeVersion: d.u32(),
		Accuracy:    d.f64(),
	}
	return r, d.done()
}

// State messages carry a cloud-chosen monotonically increasing tag so a
// proxy-delayed duplicate of an old state operation can never be
// mistaken for (or re-execute over) a newer one — capture/deploy use
// their round number for the same purpose.

// EncodeStateSave builds a MsgStateSave payload.
func EncodeStateSave(tag uint32) []byte {
	var e enc
	e.u32(tag)
	b, _ := e.bytes()
	return b
}

// DecodeStateSave parses a MsgStateSave payload.
func DecodeStateSave(payload []byte) (uint32, error) {
	d := newDec(payload)
	tag := d.u32()
	return tag, d.done()
}

// EncodeStateBlob builds a MsgStateBlob payload (a node's serialized
// checkpoint state); the same shape pushes state back via MsgStateLoad.
func EncodeStateBlob(tag uint32, data []byte) []byte {
	var e enc
	e.u32(tag)
	e.blob(data)
	b, _ := e.bytes()
	return b
}

// DecodeStateBlob parses a MsgStateBlob or MsgStateLoad payload.
func DecodeStateBlob(payload []byte) (uint32, []byte, error) {
	d := newDec(payload)
	tag := d.u32()
	b := d.blob()
	return tag, b, d.done()
}

// EncodeStateLoaded builds a MsgStateLoaded payload ("" = success).
func EncodeStateLoaded(tag uint32, errText string) []byte {
	var e enc
	e.u32(tag)
	e.str(errText)
	b, _ := e.bytes()
	return b
}

// DecodeStateLoaded parses a MsgStateLoaded payload.
func DecodeStateLoaded(payload []byte) (uint32, string, error) {
	d := newDec(payload)
	tag := d.u32()
	s := d.str()
	return tag, s, d.done()
}

// EncodeError builds a MsgError payload.
func EncodeError(text string) []byte {
	var e enc
	e.str(text)
	b, _ := e.bytes()
	return b
}

// DecodeError parses a MsgError payload.
func DecodeError(payload []byte) (string, error) {
	d := newDec(payload)
	s := d.str()
	return s, d.done()
}
