package fleet

import (
	"bytes"
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"insitu/internal/core"
)

// Sharded ingestion: the in-process fleet partitions its nodes across S
// independent shards (shardOf — a node id's shard never changes), each
// with its own bounded command queue and one worker goroutine that owns
// the shard's node states outright. The worker executes commands
// against its nodes and hands each response to the server's collect
// loop (Fleet.submit), waiting there until it is taken.
//
// The default Config.Shards of 0 means one shard per node — exactly the
// legacy one-goroutine-per-node topology, where a stalled node can
// never head-of-line-block a neighbour. Fewer shards than nodes trades
// that isolation for fewer goroutines and O(S) hot state: a straggler
// then delays its shard-mates, which is what Config.RoundTimeout and
// the lease machinery are for.
//
// Per-node state is O(1) in the round loop regardless of N — the server
// tracks admission per shard-delivered message, never scanning nodes —
// and the resident-state footprint is capped by Config.MaxLiveNodes:
// each shard keeps at most its share of that many nodes hydrated,
// spilling the least-recently-used ones to disk as the same state blobs
// the checkpoint path frames. A spilled node restores bit-identically,
// so RoundReports are byte-identical for every (Shards, MaxLiveNodes)
// setting.

// shardOf maps a node id to its shard. Plain modulo: ids are dense
// [0,N), so this is a perfect partition with no hashing needed, and it
// keeps the default S=N case an identity mapping.
func shardOf(id, shards int) int { return id % shards }

// ShardCount resolves Shards for an in-process fleet — 0, or more than
// Nodes, means one shard per node — and rejects a MaxLiveNodes that
// topology cannot honour: every shard keeps at least one node resident,
// so more shards than MaxLiveNodes would silently spill nothing.
func (cfg Config) ShardCount() (int, error) {
	n := cfg.Shards
	if n <= 0 || n > cfg.Nodes {
		n = cfg.Nodes
	}
	if cfg.MaxLiveNodes > 0 && n > cfg.MaxLiveNodes {
		return 0, fmt.Errorf("max-live-nodes %d cannot bind across %d shards (each keeps one node resident): set shards to at most %d",
			cfg.MaxLiveNodes, n, cfg.MaxLiveNodes)
	}
	return n, nil
}

// shardCmd is one queued instruction for a shard worker.
type shardCmd struct {
	node int
	cmd  workerCmd
}

// shard is one ingestion partition: a bounded queue, a worker and the
// node states it owns. Only the worker goroutine touches cache.
type shard struct {
	f     *Fleet
	idx   int
	queue chan shardCmd
	// refs counts the shard's live shardPeers; the last shutdown closes
	// the queue and the worker exits after draining it.
	refs  atomic.Int32
	done  chan struct{}
	cache *nodeCache
}

// newShard builds one shard for the given member count. The queue
// capacity mirrors localPeer's old per-node budget of 4 (two rounds of
// capture+deploy in flight under RoundTimeout), scaled by membership,
// so a blocking broadcast can always enqueue a full phase without
// waiting on the worker.
func newShard(f *Fleet, idx, members, maxLive int) *shard {
	s := &shard{
		f:     f,
		idx:   idx,
		queue: make(chan shardCmd, 4*members),
		done:  make(chan struct{}),
		cache: newNodeCache(f, maxLive),
	}
	s.refs.Store(int32(members))
	go s.run()
	return s
}

// run is the shard worker: execute each command against the target
// node, always answer. Round responses go to the collect loop through
// Fleet.submit (backpressure lives there); state commands answer on
// cmd.reply.
func (s *shard) run() {
	defer close(s.done)
	for sc := range s.queue {
		countShardQueue(s.idx, len(s.queue))
		n, err := s.cache.get(sc.node)
		if err != nil {
			// A spill blob that fails to restore is the same poisoned
			// state as a corrupt checkpoint: the node cannot continue
			// bit-exactly, so the run must not continue at all.
			panic(fmt.Sprintf("fleet: shard %d: %v", s.idx, err))
		}
		cmd := sc.cmd
		msg := roundMsg{node: sc.node, round: cmd.round, kind: cmd.kind}
		switch cmd.kind {
		case cmdCapture:
			if s.f.stall != nil {
				s.f.stall(sc.node, cmd.round)
			}
			msg.up = n.Capture(cmd.n, cmd.bootstrap)
		case cmdDeploy:
			msg.dep = n.Deploy(cmd.bundle)
		case cmdStateSave:
			data, err := stateBytes(n)
			cmd.reply <- stateReply{data: data, err: err}
			continue
		case cmdStateLoad:
			cmd.reply <- stateReply{err: n.LoadState(bytes.NewReader(cmd.stateIn))}
			continue
		}
		s.f.submit(msg)
	}
}

// release drops one member reference; the last one closes the queue and
// waits for the worker to drain and exit.
func (s *shard) release() {
	if s.refs.Add(-1) == 0 {
		close(s.queue)
		<-s.done
	}
}

// shardPeer adapts one node id of a shard to the peer interface the
// round protocol drives. Commands for every member funnel into the
// shard's one queue; responses come back through Fleet.submit.
type shardPeer struct {
	s      *shard
	nodeID int
}

func (p *shardPeer) id() int { return p.nodeID }

func (p *shardPeer) enqueue(cmd workerCmd, block bool) bool {
	sc := shardCmd{node: p.nodeID, cmd: cmd}
	if !block {
		select {
		case p.s.queue <- sc:
			countShardQueue(p.s.idx, len(p.s.queue))
			return true
		default:
			return false
		}
	}
	p.s.queue <- sc
	countShardQueue(p.s.idx, len(p.s.queue))
	return true
}

func (p *shardPeer) shutdown() { p.s.release() }

// nodeCache owns a shard's node states: a hydrated LRU capped at
// maxLive plus cold state spilled to the fleet's spill directory. All
// access is from the owning shard worker, so there is no locking. Nodes
// hydrate lazily — a node that has never run is rebuilt from Config
// alone (core.NewNode is deterministic), one that was evicted restores
// from its spill blob — so a 10k-node fleet never holds 10k node states
// in memory at once.
type nodeCache struct {
	f       *Fleet
	maxLive int // <=0: never spill
	live    map[int]*list.Element
	lru     *list.List // front = least recently used; values are *core.Node
	spilled map[int]bool
}

func newNodeCache(f *Fleet, maxLive int) *nodeCache {
	return &nodeCache{
		f:       f,
		maxLive: maxLive,
		live:    make(map[int]*list.Element),
		lru:     list.New(),
		spilled: make(map[int]bool),
	}
}

// get returns the hydrated node for id, restoring or constructing it as
// needed and evicting the coldest nodes past maxLive.
func (c *nodeCache) get(id int) (*core.Node, error) {
	if el, ok := c.live[id]; ok {
		c.lru.MoveToBack(el)
		return el.Value.(*core.Node), nil
	}
	n := core.NewNode(nodeConfig(c.f.Cfg, id, c.f.outage[id]))
	if c.spilled[id] {
		data, err := os.ReadFile(c.path(id))
		if err != nil {
			return nil, fmt.Errorf("reading spilled node %d: %w", id, err)
		}
		if err := n.LoadState(bytes.NewReader(data)); err != nil {
			return nil, fmt.Errorf("restoring spilled node %d: %w", id, err)
		}
		countSpillRestore()
	}
	c.live[id] = c.lru.PushBack(n)
	if err := c.evict(); err != nil {
		return nil, err
	}
	return n, nil
}

// evict spills least-recently-used nodes until the cache is back under
// maxLive. The spill blob is the node's full checkpoint state, so the
// rehydrated node is bit-identical to the evicted one.
func (c *nodeCache) evict() error {
	for c.maxLive > 0 && c.lru.Len() > c.maxLive {
		el := c.lru.Front()
		n := el.Value.(*core.Node)
		data, err := stateBytes(n)
		if err != nil {
			return fmt.Errorf("spilling node %d: %w", n.ID(), err)
		}
		if err := os.WriteFile(c.path(n.ID()), data, 0o644); err != nil {
			return fmt.Errorf("spilling node %d: %w", n.ID(), err)
		}
		c.spilled[n.ID()] = true
		c.lru.Remove(el)
		delete(c.live, n.ID())
		countSpill()
	}
	return nil
}

func (c *nodeCache) path(id int) string {
	return filepath.Join(c.f.spillDir, fmt.Sprintf("node-%d.state", id))
}
