// Package wire defines the Cloud↔node exchange as a versioned,
// length-prefixed, CRC-framed binary protocol, so the fleet's
// round-synchronous loop can run across a real process boundary instead
// of N goroutines in one address space. The package is deliberately
// dependency-light (dataset for sample payloads, nothing else), so the
// netsim proxy can parse frames without an import cycle.
//
// Frame layout (little-endian):
//
//	offset size
//	0      4    magic "ISWF"
//	4      1    protocol version (negotiated via Hello/Welcome)
//	5      1    message type
//	6      2    reserved (zero; covered by the CRC)
//	8      4    payload length n
//	12     n    payload
//	12+n   4    CRC-32 (IEEE) over bytes 4..12+n (version through payload)
//
// The CRC is the end-to-end integrity check: TCP's checksum is too weak
// to carry model weights, and the netsim proxy deliberately flips bits
// inside the payload region to prove the endpoints catch it. A frame
// whose CRC fails is fully consumed from the stream (the header framing
// fields were intact), so the connection stays synchronized and the
// sender's retransmission can follow — ReadFrame returns ErrCRC for
// exactly that case. A bad magic or an oversized length means the stream
// itself is lost and the connection must be torn down.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	frameMagic = "ISWF"
	// HeaderLen is the fixed frame prefix before the payload.
	HeaderLen = 12
	// TrailerLen is the CRC-32 suffix after the payload.
	TrailerLen = 4
	// MaxPayload bounds one frame (model bundles and upload batches are
	// a few MB; 64 MB leaves room without letting a corrupted length
	// field allocate the moon).
	MaxPayload = 64 << 20
)

// Protocol versions this build speaks. Hello advertises the range,
// Welcome pins the highest mutually supported version. Version 2 added
// fleet membership: session epochs in Hello/Welcome, the heartbeat
// frame, and the lease interval in NodeConfig — layout changes, so
// version 1 peers are rejected at negotiation. Version 3 appended
// EvalSamples to NodeConfig (the scale fleets' shrunken post-deploy
// evaluation) — another layout change, so version 2 peers are likewise
// rejected. Version 4 dropped the diagnoser's RNG word from the node
// state blob (MsgStateBlob/MsgStateLoad): a version 3 peer would
// mis-decode a session restore, so it is rejected too. Version 5 moved
// the condition severity from NodeConfig onto every Capture and Deploy
// (it drifts during a run) — three layouts changed, so version 4 peers
// are rejected.
const (
	ProtoMin uint8 = 5
	ProtoMax uint8 = 5
)

// ErrCRC marks a frame whose checksum failed but whose framing fields
// were intact: the frame was fully consumed, the stream is still
// synchronized, and the caller should ignore the frame and wait for (or
// trigger) a retransmission.
var ErrCRC = errors.New("wire: frame checksum mismatch")

// MsgType tags one frame's payload.
type MsgType uint8

const (
	// MsgHello is the node's opening message: requested id and the
	// protocol version range it speaks. Retransmitted until a Welcome
	// arrives, and answered idempotently.
	MsgHello MsgType = 1 + iota
	// MsgWelcome is the cloud's answer: negotiated version, assigned
	// node id, and the full node-side fleet configuration.
	MsgWelcome
	// MsgCapture commands one capture/diagnose/upload phase.
	MsgCapture
	// MsgUpload is the node's capture answer (samples included).
	MsgUpload
	// MsgDeploy pushes one encoded model bundle.
	MsgDeploy
	// MsgDeployResult is the node's deploy answer.
	MsgDeployResult
	// MsgStateSave asks the node to serialize its checkpoint state.
	MsgStateSave
	// MsgStateBlob carries the node's serialized checkpoint state.
	MsgStateBlob
	// MsgStateLoad pushes checkpoint state for the node to restore.
	MsgStateLoad
	// MsgStateLoaded acks a MsgStateLoad (empty error string = ok).
	MsgStateLoaded
	// MsgError reports a fatal protocol error (e.g. failed negotiation).
	MsgError
	// MsgBye ends the session cleanly.
	MsgBye
	// MsgHeartbeat is a node→cloud liveness beacon. It needs no answer;
	// its arrival (like any frame's) refreshes the node's lease on the
	// cloud. Its payload is empty and never read (older agents sent the
	// 8-byte session epoch).
	MsgHeartbeat
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgCapture:
		return "capture"
	case MsgUpload:
		return "upload"
	case MsgDeploy:
		return "deploy"
	case MsgDeployResult:
		return "deploy-result"
	case MsgStateSave:
		return "state-save"
	case MsgStateBlob:
		return "state-blob"
	case MsgStateLoad:
		return "state-load"
	case MsgStateLoaded:
		return "state-loaded"
	case MsgError:
		return "error"
	case MsgBye:
		return "bye"
	case MsgHeartbeat:
		return "heartbeat"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Negotiate picks the protocol version for one session: the highest
// version inside both [minA, maxA] and [minB, maxB]. ok is false when
// the ranges do not overlap (or either range is inverted).
func Negotiate(minA, maxA, minB, maxB uint8) (version uint8, ok bool) {
	lo, hi := minA, maxA
	if minB > lo {
		lo = minB
	}
	if maxB < hi {
		hi = maxB
	}
	if lo > hi {
		return 0, false
	}
	return hi, true
}

// EncodeFrame returns the full wire encoding of one frame.
func EncodeFrame(version uint8, t MsgType, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("wire: payload %d exceeds MaxPayload %d", len(payload), MaxPayload)
	}
	frame := make([]byte, HeaderLen+len(payload)+TrailerLen)
	copy(frame, frameMagic)
	frame[4] = version
	frame[5] = byte(t)
	// frame[6:8] reserved, zero.
	binary.LittleEndian.PutUint32(frame[8:], uint32(len(payload)))
	copy(frame[HeaderLen:], payload)
	sum := crc32.ChecksumIEEE(frame[4 : HeaderLen+len(payload)])
	binary.LittleEndian.PutUint32(frame[HeaderLen+len(payload):], sum)
	return frame, nil
}

// readHeader reads and validates the fixed prefix, returning the payload
// length. Errors other than io.EOF at the first byte are fatal to the
// stream.
func readHeader(r io.Reader, hdr []byte) (int, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("wire: reading frame header: %w", err)
	}
	if string(hdr[:4]) != frameMagic {
		return 0, fmt.Errorf("wire: bad frame magic %q (stream desynchronized)", hdr[:4])
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > MaxPayload {
		return 0, fmt.Errorf("wire: frame length %d exceeds MaxPayload %d", n, MaxPayload)
	}
	return int(n), nil
}

// ReadFrame reads one frame. On a checksum failure the frame has been
// fully consumed and the returned error wraps ErrCRC: the stream is
// still framed and the caller may keep reading. io.EOF is returned
// verbatim when the stream ends cleanly between frames.
func ReadFrame(r io.Reader) (version uint8, t MsgType, payload []byte, err error) {
	hdr := make([]byte, HeaderLen)
	n, err := readHeader(r, hdr)
	if err != nil {
		return 0, 0, nil, err
	}
	body := make([]byte, n+TrailerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:])
	crc.Write(body[:n])
	if got := binary.LittleEndian.Uint32(body[n:]); got != crc.Sum32() {
		return 0, 0, nil, fmt.Errorf("%w (type %v, %d bytes)", ErrCRC, MsgType(hdr[5]), n)
	}
	return hdr[4], MsgType(hdr[5]), body[:n], nil
}

// ReadRawFrame reads one frame's complete bytes (header, payload and
// CRC) without verifying the checksum — the proxy's read path: it
// forwards, drops, delays or deliberately corrupts whole frames while
// leaving integrity checking to the endpoints.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	hdr := make([]byte, HeaderLen)
	n, err := readHeader(r, hdr)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, HeaderLen+n+TrailerLen)
	copy(frame, hdr)
	if _, err := io.ReadFull(r, frame[HeaderLen:]); err != nil {
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	return frame, nil
}
