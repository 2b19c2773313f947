package netsim

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/tensor"
	"insitu/internal/wire"
)

// Proxy is a byte-stream man-in-the-middle for the wire protocol: it
// accepts connections, dials the real cloud, and pumps whole frames in
// both directions while dropping, corrupting or delaying them with
// seeded dice. Unlike LossyLink — which *simulates* a lossy medium
// inside the node's accounting — the proxy injects real transport
// faults that the endpoints must absorb with CRC checks,
// retransmission and idempotent command handling. It parses frames
// only enough to find their boundaries (wire.ReadRawFrame) and never
// touches the magic or length fields when corrupting, so the stream
// stays framed and the damage is always survivable.
type Proxy struct {
	cfg ProxyConfig
	ln  net.Listener

	// Dice are shared across connections; ordering between concurrent
	// streams is scheduling-dependent, which is fine — proxy faults model
	// a hostile real network, not a replayable experiment (LossyLink does
	// that). The seed still makes single-stream tests reproducible.
	mu  sync.Mutex
	rng *tensor.RNG

	stats ProxyStats

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// ProxyConfig parameterizes the injected faults. The zero value
// forwards everything untouched.
type ProxyConfig struct {
	Seed uint64
	// DropProb is the probability a frame silently vanishes.
	DropProb float64
	// CorruptProb is the probability a frame is forwarded with flipped
	// payload bytes (caught by the frame CRC at the receiver).
	CorruptProb float64
	// MaxDelay, when positive, holds each forwarded frame for a seeded
	// uniform duration in [0, MaxDelay) — enough to reorder a
	// retransmission past its original.
	MaxDelay time.Duration
}

// ProxyStats counts the proxy's interference. Read via Stats.
type ProxyStats struct {
	Forwarded int64
	Dropped   int64
	Corrupted int64
}

// NewProxy starts proxying: every connection accepted on ln is paired
// with a fresh dial to target, and frames flow through the fault dice
// until either side closes. Close stops the listener and tears down
// the live pairs.
func NewProxy(ln net.Listener, target string, cfg ProxyConfig) *Proxy {
	p := &Proxy{
		cfg:   cfg,
		ln:    ln,
		rng:   tensor.NewRNG(cfg.Seed),
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.accept(target)
	return p
}

// Stats returns a snapshot of the interference counters.
func (p *Proxy) Stats() ProxyStats {
	return ProxyStats{
		Forwarded: atomic.LoadInt64(&p.stats.Forwarded),
		Dropped:   atomic.LoadInt64(&p.stats.Dropped),
		Corrupted: atomic.LoadInt64(&p.stats.Corrupted),
	}
}

// Close stops accepting, severs every live pair and waits for the
// pumps to drain.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		close(p.done)
		p.ln.Close()
		p.connMu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.connMu.Unlock()
	})
	p.wg.Wait()
}

func (p *Proxy) track(c net.Conn) {
	p.connMu.Lock()
	p.conns[c] = struct{}{}
	p.connMu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.connMu.Lock()
	delete(p.conns, c)
	p.connMu.Unlock()
}

func (p *Proxy) accept(target string) {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		backend, err := net.Dial("tcp", target)
		if err != nil {
			client.Close()
			continue
		}
		p.track(client)
		p.track(backend)
		p.wg.Add(2)
		go p.pump(client, backend)
		go p.pump(backend, client)
	}
}

// pump moves frames src→dst through the fault dice until either side
// dies, then severs both (a half-dead pair is useless to the
// endpoints, whose liveness model is the connection).
func (p *Proxy) pump(src, dst net.Conn) {
	defer p.wg.Done()
	defer p.untrack(src)
	defer src.Close()
	defer dst.Close()
	for {
		frame, err := wire.ReadRawFrame(src)
		if err != nil {
			return
		}
		drop, corrupt, delay := p.roll(frame)
		if drop {
			atomic.AddInt64(&p.stats.Dropped, 1)
			continue
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-p.done:
				return
			}
		}
		if corrupt {
			atomic.AddInt64(&p.stats.Corrupted, 1)
		}
		atomic.AddInt64(&p.stats.Forwarded, 1)
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

// roll decides one frame's fate and applies corruption in place.
func (p *Proxy) roll(frame []byte) (drop, corrupt bool, delay time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.rng.Float64()
	switch {
	case u < p.cfg.DropProb:
		return true, false, 0
	case u < p.cfg.DropProb+p.cfg.CorruptProb:
		p.corrupt(frame)
		corrupt = true
	}
	if p.cfg.MaxDelay > 0 {
		delay = time.Duration(p.rng.Float64() * float64(p.cfg.MaxDelay))
	}
	return false, corrupt, delay
}

// corrupt flips 1–3 bytes inside the payload region (or the CRC for an
// empty payload), never the magic or length fields: the receiver must
// detect the damage via the CRC, not lose stream framing.
func (p *Proxy) corrupt(frame []byte) {
	lo := wire.HeaderLen
	hi := len(frame) - wire.TrailerLen
	if hi <= lo {
		// No payload; flip a CRC byte instead — same end result, the
		// receiver's checksum fails and the frame is discarded.
		lo, hi = len(frame)-wire.TrailerLen, len(frame)
	}
	flips := 1 + p.rng.Intn(3)
	for i := 0; i < flips; i++ {
		frame[lo+p.rng.Intn(hi-lo)] ^= byte(1 + p.rng.Intn(255))
	}
}
