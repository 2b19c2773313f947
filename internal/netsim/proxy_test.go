package netsim_test

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"insitu/internal/netsim"
	"insitu/internal/wire"
)

// writeFrame encodes one frame and writes it to w.
func writeFrame(w io.Writer, version uint8, t wire.MsgType, payload []byte) error {
	frame, err := wire.EncodeFrame(version, t, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// echoBackend accepts one connection and echoes every intact frame
// back; CRC-failed frames are skipped like a real endpoint would.
func echoBackend(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			v, mt, payload, err := wire.ReadFrame(conn)
			if err != nil {
				if errors.Is(err, wire.ErrCRC) {
					continue
				}
				return
			}
			if err := writeFrame(conn, v, mt, payload); err != nil {
				return
			}
		}
	}()
	return ln
}

// startProxy returns a proxy to target and the address it listens on.
func startProxy(t *testing.T, target string, cfg netsim.ProxyConfig) (*netsim.Proxy, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := netsim.NewProxy(ln, target, cfg)
	t.Cleanup(p.Close)
	return p, ln.Addr().String()
}

func TestProxyForwardsCleanFrames(t *testing.T) {
	backend := echoBackend(t)
	defer backend.Close()
	p, addr := startProxy(t, backend.Addr().String(), netsim.ProxyConfig{Seed: 1})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		payload := []byte{byte(i), 0xAB, 0xCD}
		if err := writeFrame(conn, wire.ProtoMax, wire.MsgCapture, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		_, mt, got, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if mt != wire.MsgCapture || string(got) != string(payload) {
			t.Fatalf("frame %d came back as %v %x", i, mt, got)
		}
	}
	st := p.Stats()
	// 10 frames each way.
	if st.Forwarded != 20 || st.Dropped != 0 || st.Corrupted != 0 {
		t.Fatalf("stats = %+v, want 20 forwarded and no faults", st)
	}
}

func TestProxyCorruptionIsCaughtByCRC(t *testing.T) {
	backend := echoBackend(t)
	defer backend.Close()
	// Corrupt everything: the echo backend should never see an intact
	// frame, so nothing comes back; every receipt fails its CRC.
	p, addr := startProxy(t, backend.Addr().String(), netsim.ProxyConfig{Seed: 2, CorruptProb: 1})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, wire.ProtoMax, wire.MsgCapture, []byte("payload")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	_, _, _, err = wire.ReadFrame(conn)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read after corruption = %v, want timeout (backend discarded the frame)", err)
	}
	if st := p.Stats(); st.Corrupted < 1 {
		t.Fatalf("stats = %+v, want at least one corrupted frame", st)
	}
}

func TestProxyDropsFrames(t *testing.T) {
	backend := echoBackend(t)
	defer backend.Close()
	p, addr := startProxy(t, backend.Addr().String(), netsim.ProxyConfig{Seed: 3, DropProb: 1})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, wire.ProtoMax, wire.MsgDeploy, []byte("gone")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, _, _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("frame survived a DropProb=1 proxy")
	}
	if st := p.Stats(); st.Dropped != 1 || st.Forwarded != 0 {
		t.Fatalf("stats = %+v, want exactly one drop", st)
	}
}

func TestProxyEmptyPayloadCorruptionStaysFramed(t *testing.T) {
	backend := echoBackend(t)
	defer backend.Close()
	_, addr := startProxy(t, backend.Addr().String(), netsim.ProxyConfig{Seed: 4, CorruptProb: 1})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	defer conn.Close()
	// Empty payload: corruption must hit the CRC, not the framing
	// fields, so the backend survives (skips the frame) rather than
	// desynchronizing.
	if err := writeFrame(conn, wire.ProtoMax, wire.MsgBye, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	_, _, _, err = wire.ReadFrame(conn)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read = %v, want timeout (backend skipped the corrupt frame and kept the stream)", err)
	}
}
