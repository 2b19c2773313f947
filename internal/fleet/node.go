package fleet

import (
	"bytes"
	"time"

	"insitu/internal/core"
	"insitu/internal/deploy"
	"insitu/internal/netsim"
	"insitu/internal/wire"
)

// The fleet's nodes are core.Node values, one per id. A node's state is
// touched only by one goroutine while a command is in flight and only by
// the server between phases — the round-synchronous protocol is the
// synchronization. The same type backs both deployment shapes:
// in-process (a shard worker) and remote (an insitu-node process driven
// by RunAgent over the wire protocol); everything a node derives comes
// from (Config, id, outage), so the two are bit-identical.

// Per-node seed derivation offsets. The server's streams sit at
// Seed+1…Seed+5 (cloud.Config); nodes derive from disjoint ranges so no
// stream is shared across goroutines.
const (
	seedOffGen      = 101 // + id*131: dataset shard
	seedOffUplink   = 301 // + id: uplink fault dice
	seedOffDownlink = 401 // + id: downlink fault dice
)

// nodeConfig derives node id's configuration from the fleet's.
func nodeConfig(cfg Config, id int, outage bool) core.NodeConfig {
	return core.NodeConfig{
		ID:            id,
		Kind:          cfg.Kind,
		Classes:       cfg.Classes,
		PermClasses:   cfg.PermClasses,
		Probes:        cfg.Probes,
		Seed:          cfg.Seed,
		GenSeed:       cfg.Seed + seedOffGen + uint64(id)*131,
		InSituFrac:    cfg.InSituFrac,
		Link:          cfg.Link,
		Uplink:        nodeFaults(cfg.UplinkFaults, cfg.Seed+seedOffUplink+uint64(id), outage),
		Downlink:      nodeFaults(cfg.DownlinkFaults, cfg.Seed+seedOffDownlink+uint64(id), outage),
		DeployRetries: cfg.DeployRetries,
		EvalSamples:   cfg.EvalSamples,
	}
}

// nodeFaults derives one node's link fault model from the fleet-wide
// one: its own dice seed, and a permanent outage for a dark node.
func nodeFaults(base netsim.FaultConfig, seed uint64, outage bool) netsim.FaultConfig {
	cfg := base
	cfg.Seed = seed
	if outage {
		cfg.Outages = append([]netsim.Outage{netsim.PermanentOutage()}, cfg.Outages...)
	}
	return cfg
}

type cmdKind int

const (
	cmdCapture cmdKind = iota
	cmdDeploy
	// cmdStateSave/cmdStateLoad route checkpoint state through the peer,
	// so node state is only ever touched by its owning goroutine (local
	// worker or remote process) regardless of transport.
	cmdStateSave
	cmdStateLoad
)

// workerCmd is one server→node instruction.
type workerCmd struct {
	kind      cmdKind
	round     int
	n         int // capture size
	bootstrap bool
	// severity is the environment the node captures and evaluates
	// under this round (Fleet.SetSeverity); every round command carries
	// it, so a node rebuilt from state mid-round renders the same images.
	severity float64
	bundle   *deploy.Bundle // read-only, shared across workers
	// encoded is the bundle's frame bytes, filled once per round when the
	// fleet has remote peers (they ship bytes, not pointers).
	encoded []byte
	// stateIn carries the blob for cmdStateLoad; reply answers the two
	// state commands.
	stateIn []byte
	reply   chan stateReply
	// deadline, when set, bounds how long a remote peer's request loop
	// waits for the answer (session saves under a lease); zero waits
	// as long as the session lives. Local peers ignore it.
	deadline time.Time
}

// capture is the wire form of a capture command.
func (c workerCmd) capture() wire.Capture {
	return wire.Capture{Round: uint32(c.round), N: uint32(c.n), Bootstrap: c.bootstrap, Severity: c.severity}
}

// deploy is the wire form of a deploy command.
func (c workerCmd) deploy() wire.Deploy {
	return wire.Deploy{Round: uint32(c.round), Severity: c.severity, Bundle: c.encoded}
}

// stateReply answers cmdStateSave (data) and cmdStateLoad (err).
type stateReply struct {
	data []byte
	err  error
}

// roundMsg is one node→server response, handed over by Fleet.submit.
type roundMsg struct {
	node  int
	round int
	kind  cmdKind
	up    core.Upload
	dep   core.Deployed
}

// stateBytes is a node's SaveState as one blob.
func stateBytes(n *core.Node) ([]byte, error) {
	var buf bytes.Buffer
	err := n.SaveState(&buf)
	return buf.Bytes(), err
}
