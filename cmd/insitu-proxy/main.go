// Command insitu-proxy is a lossy man-in-the-middle for the wire
// protocol: put it between insitu-node and insitu-fleet -listen to inject
// *real* transport faults — dropped frames, flipped payload bytes,
// seeded delays — that the endpoints must absorb with CRC checks,
// retransmission and idempotent command handling:
//
//	insitu-proxy -listen 127.0.0.1:9444 -target 127.0.0.1:9433 -drop 0.1 -corrupt 0.1
//	insitu-node -connect 127.0.0.1:9444 -node-id 0
//
// Corruption never touches frame magic or length fields, so the stream
// stays framed and every fault is survivable; the final fleet reports
// must be byte-identical to a faultless run at the same seeds (`make
// wire-smoke` asserts exactly that). Interference counters print to
// stderr on SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"insitu/internal/netsim"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9444", "address nodes dial")
	target := flag.String("target", "127.0.0.1:9433", "the real insitu-fleet -listen address")
	seed := flag.Uint64("seed", 1, "fault dice seed")
	drop := flag.Float64("drop", 0, "per-frame drop probability")
	corrupt := flag.Float64("corrupt", 0, "per-frame corruption probability")
	maxDelay := flag.Duration("max-delay", 0, "per-frame delay upper bound (0 disables)")
	flag.Parse()

	if *drop < 0 || *corrupt < 0 || *drop+*corrupt > 1 {
		fmt.Fprintln(os.Stderr, "insitu-proxy: -drop/-corrupt must be non-negative and sum to at most 1")
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "insitu-proxy:", err)
		os.Exit(1)
	}
	p := netsim.NewProxy(ln, *target, netsim.ProxyConfig{
		Seed:        *seed,
		DropProb:    *drop,
		CorruptProb: *corrupt,
		MaxDelay:    *maxDelay,
	})
	fmt.Fprintf(os.Stderr, "proxying %s -> %s (drop %.2f, corrupt %.2f, delay <=%s)\n",
		ln.Addr(), *target, *drop, *corrupt, *maxDelay)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	p.Close()
	st := p.Stats()
	fmt.Fprintf(os.Stderr, "insitu-proxy: %d frames forwarded, %d dropped, %d corrupted\n",
		st.Forwarded, st.Dropped, st.Corrupted)
}
