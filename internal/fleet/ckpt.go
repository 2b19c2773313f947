package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"

	"insitu/internal/ckpt"
	"insitu/internal/core"
	"insitu/internal/telemetry"
)

// Crash-safe persistence of the fleet. Checkpoint serializes the
// complete mutable state — the server's half through cloud.Server's
// codec, every node's through core.Node's — so a killed fleet run
// resumes and finishes with round reports byte-identical to an
// uninterrupted run's. Checkpoints are only taken
// at round boundaries, where the workers are quiesced (the
// round-synchronous protocol guarantees no command is in flight), so no
// node state can be mid-mutation. Config.RoundTimeout must be 0 when
// checkpointing: an abandoned straggler could still be running.

const (
	// ckptMagic 0005: the round state gained the current severity
	// (SetSeverity); the bump makes a 0004 snapshot fail on its magic
	// instead of mis-decoding.
	ckptMagic    = "ISFL0005"
	historyMagic = "ISFH0001"
	// telemetryMagic frames the registry snapshot that rides between the
	// history and the fleet state, so windowed percentile state survives
	// a crash along with the models.
	telemetryMagic = "ISTL0001"
)

// ErrConfigMismatch is returned by Resume when the checkpoint was taken
// under an incompatible configuration. It is core's sentinel: a node
// refusing a state blob and the fleet refusing a fingerprint are the
// same failure.
var ErrConfigMismatch = core.ErrConfigMismatch

// fingerprint lists the identity-defining configuration as u64s.
// Behavior-affecting knobs only: Shards and MaxLiveNodes are
// deliberately absent, because reports are byte-identical across their
// settings — a checkpoint taken at shards=1 must resume at shards=16.
// InSituFrac and the starting Severity are in, so a snapshot from
// another environment must not load; the severity SetSeverity moved it
// to is round state, restored with the round.
func (f *Fleet) fingerprint() []uint64 {
	return []uint64{
		uint64(f.Cfg.Kind), uint64(f.Cfg.Classes), uint64(f.Cfg.PermClasses),
		uint64(f.Cfg.SharedConvs), uint64(f.Cfg.Probes), f.Cfg.Seed,
		uint64(f.Cfg.Nodes), uint64(f.Cfg.MaxRoundSamples),
		uint64(f.Cfg.MaxCalibSamples), uint64(f.Cfg.EvalSamples),
		math.Float64bits(f.Cfg.InSituFrac), math.Float64bits(f.Cfg.Severity),
	}
}

// Checkpoint writes the fleet's complete mutable state to w: the round
// and severity, the server's half (cloud.Server.Save) and every node's
// state blob. Call only between rounds (never while a round is in
// flight).
func (f *Fleet) Checkpoint(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return err
	}
	if err := ckpt.WriteU64s(bw, append(f.fingerprint(), uint64(f.round), math.Float64bits(f.severity))...); err != nil {
		return err
	}
	if err := f.cloud.Save(bw); err != nil {
		return err
	}
	// Every node's state as one framed blob, in id order. The blob comes
	// back through the peer (local worker or remote process over
	// MsgStateSave), so the checkpoint stream is byte-identical across
	// deployment shapes and a local checkpoint restores into a remote
	// fleet and vice versa.
	for _, p := range f.peers {
		var blob []byte
		if rp, ok := p.(*remotePeer); ok && rp.isParked() {
			// A parked node cannot answer, but at a round boundary its
			// in-memory session blob IS its state — bit-identical to what
			// the node would have serialized, since it participated in
			// every round up to its last saved boundary.
			b, current := rp.currentBlob()
			if !current {
				return fmt.Errorf("fleet: node %d is disconnected with un-saved round state; cannot checkpoint", p.id())
			}
			blob = b
		} else {
			rep := peerState(p, workerCmd{kind: cmdStateSave, round: f.round})
			if rep.err != nil {
				return fmt.Errorf("fleet: saving node %d state: %w", p.id(), rep.err)
			}
			blob = rep.data
		}
		if err := ckpt.WriteBlob(bw, func(w io.Writer) error {
			_, err := w.Write(blob)
			return err
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Resume rebuilds a fleet from cfg and a checkpoint stream written by
// Checkpoint. The returned fleet continues bit-identically to one that
// was never interrupted.
func Resume(cfg Config, r io.Reader) (*Fleet, error) {
	f := New(cfg)
	if err := f.Restore(r); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Restore loads a checkpoint stream written by Checkpoint into this
// fleet. The fleet must be idle between rounds — typically freshly
// built by New or Listen (the remote shape resumes by restoring into a
// fleet whose node processes are already connected). On error the fleet
// is partially restored and must be Closed, not used.
func (f *Fleet) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("fleet: reading checkpoint magic: %w", err)
	}
	if string(magic) != ckptMagic {
		return fmt.Errorf("fleet: bad checkpoint magic %q", magic)
	}

	want := f.fingerprint()
	got := make([]uint64, len(want)+2)
	if err := ckpt.ReadU64s(br, got); err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%w: fingerprint field %d is %d, config says %d",
				ErrConfigMismatch, i, got[i], want[i])
		}
	}
	f.round = int(int64(got[len(want)]))
	f.severity = math.Float64frombits(got[len(want)+1])
	if err := f.cloud.Load(br); err != nil {
		return err
	}

	// Each node's blob goes back through its peer: the owning goroutine
	// (or remote process) applies it via LoadState, which also checks
	// link topology and finiteness of the node nets.
	for _, p := range f.peers {
		var data []byte
		if err := ckpt.ReadBlob(br, func(r io.Reader) error {
			var err error
			data, err = io.ReadAll(r)
			return err
		}); err != nil {
			return fmt.Errorf("fleet: reading node %d state: %w", p.id(), err)
		}
		if rep := peerState(p, workerCmd{kind: cmdStateLoad, round: f.round, stateIn: data}); rep.err != nil {
			return rep.err
		}
		if rp, ok := p.(*remotePeer); ok {
			// The restored state is also the node's session blob: a node
			// process that dies right after the restore rejoins from here.
			rp.setBlob(data)
		}
	}
	return nil
}

// Checkpointer persists a Fleet plus its round-report history and
// (when a registry is attached) the telemetry snapshot on a fixed
// cadence.
type Checkpointer struct {
	Store *ckpt.Store
	// Every is the snapshot cadence in rounds (1 = after every round).
	Every int

	fleet   *Fleet
	history []RoundReport

	reg *telemetry.Registry
	// pending holds a resumed snapshot until AttachRegistry delivers it.
	pending *telemetry.Snapshot
}

// NewCheckpointer wraps a live fleet. every < 1 means every round.
func NewCheckpointer(store *ckpt.Store, fleet *Fleet, every int) *Checkpointer {
	if every < 1 {
		every = 1
	}
	return &Checkpointer{Store: store, Every: every, fleet: fleet}
}

// Fleet returns the wrapped (or resumed) fleet.
func (c *Checkpointer) Fleet() *Fleet { return c.fleet }

// History returns the round reports recorded so far, bootstrap first.
func (c *Checkpointer) History() []RoundReport { return c.history }

// OnRound records one round's report and snapshots when the cadence
// hits. Call it after Bootstrap and after every RunRound.
func (c *Checkpointer) OnRound(rep RoundReport) error {
	c.history = append(c.history, rep)
	if len(c.history)%c.Every != 0 {
		return nil
	}
	return c.Save()
}

// AttachRegistry makes Save embed reg's snapshot in every checkpoint —
// counters, gauges AND histogram bucket counts, so quantile answers
// survive a crash. On a checkpointer returned by ResumeCheckpointer the
// stored snapshot is loaded into reg immediately. Pass the registry the
// process actually serves from (the obs session's), before the first
// round runs.
func (c *Checkpointer) AttachRegistry(reg *telemetry.Registry) {
	c.reg = reg
	if c.pending != nil {
		reg.LoadSnapshot(*c.pending)
		c.pending = nil
	}
}

// Save writes one snapshot now, regardless of cadence.
func (c *Checkpointer) Save() error {
	var buf bytes.Buffer
	if err := ckpt.WriteHistory(&buf, historyMagic, c.history); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	// The telemetry frame is always present (an empty snapshot when no
	// registry is attached) so the stream layout never depends on
	// runtime wiring.
	if err := ckpt.WriteHistory(&buf, telemetryMagic, c.reg.Snapshot()); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := c.fleet.Checkpoint(&buf); err != nil {
		return fmt.Errorf("fleet: checkpointing: %w", err)
	}
	_, err := c.Store.Save(buf.Bytes())
	return err
}

// ResumeCheckpointer rebuilds a Checkpointer from the store's latest
// good snapshot. It returns ckpt.ErrNoSnapshot when the store is empty.
func ResumeCheckpointer(store *ckpt.Store, cfg Config, every int) (*Checkpointer, error) {
	f := New(cfg)
	c, err := ResumeCheckpointerWith(store, f, every)
	if err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// ResumeCheckpointerWith restores the store's latest good snapshot into
// an already-constructed fleet — the path a standalone cloud takes
// after Listen, when its node processes are connected and their state
// must be pushed back over the wire. On error the fleet is left
// partially restored; the caller still owns it and must Close it.
func ResumeCheckpointerWith(store *ckpt.Store, f *Fleet, every int) (*Checkpointer, error) {
	payload, _, err := store.LoadLatest()
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(payload)
	c := NewCheckpointer(store, f, every)
	if err := ckpt.ReadHistory(r, historyMagic, &c.history); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	var snap telemetry.Snapshot
	if err := ckpt.ReadHistory(r, telemetryMagic, &snap); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	c.pending = &snap
	if err := f.Restore(r); err != nil {
		return nil, err
	}
	if f.Round() != len(c.history) {
		return nil, fmt.Errorf("fleet: snapshot has %d reports but fleet is at round %d",
			len(c.history), f.Round())
	}
	return c, nil
}
