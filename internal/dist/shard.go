package dist

import (
	"linkreversal/internal/core"
	"linkreversal/internal/graph"
)

// shardMsg is one transmission in transit, normally a reversal
// announcement: some neighbour of To reversed the shared edge, which now
// points toward To. Slot is the *receiver-side* neighbour slot of the
// sender — the index i with nodes[To].nbrs[i] == sender — precomputed once
// at engine construction, so applying the message is a pair of slice
// writes with no lookup of any kind. For the height-based variants it
// plays the role of the height announcement, and for list-based PR it
// additionally means "add the neighbour at Slot to your list".
//
// Seq, Kind and Hold belong to the reliable-delivery layer and stay zero on
// a reliable network: Seq is the per-directed-link sequence number of the
// payload (or the payload being acked/nacked), Kind the transmission class,
// and Hold the remaining number of delivery opportunities that may overtake
// this message (the fault adversary's logical-time holdback; the shard
// re-enqueues the message and decrements Hold until it reaches zero). For
// msgNack, To is the original sender and Slot its *sender-side* slot of the
// lossy link.
//
// Copies is the outbox coalescing count: the number of additional
// byte-identical transmissions riding piggyback on this entry (see
// shard.route). The receiving shard expands the message Copies+1 times, so
// every protocol- and ledger-visible effect of each squashed copy — the
// sequence-number dedup, the re-acknowledgement, the holdback requeues —
// happens exactly as if the copies had shipped individually; only the
// transport payload shrinks. Senders always route with Copies == 0.
type shardMsg struct {
	To     graph.NodeID
	Slot   int32
	Seq    uint32
	Kind   msgKind
	Hold   uint8
	Copies uint8
}

// maxCopies caps the coalescing count; a further identical transmission
// starts a fresh outbox entry. (Unreachable in practice: the injector caps
// duplication at maxExtra copies per judgment.)
const maxCopies = ^uint8(0)

// partitioner maps node IDs to shards. Assignments are deterministic and
// total: every node of the topology belongs to exactly one shard in
// [0, shards).
type partitioner struct {
	scheme Partition
	shards int
	// block is the nodes-per-shard quotum ⌈n/shards⌉ of PartitionBlock.
	block int
	// assign is PartitionLocality's precomputed node→shard table; nil for
	// the arithmetic schemes.
	assign []int32
}

// newPartitioner builds the node→shard assignment. nbrs exposes the
// topology's ascending adjacency to PartitionLocality; when it is nil (no
// graph is available at construction), locality falls back to block —
// which is the documented degradation, not an error.
func newPartitioner(scheme Partition, n, shards int, nbrs func(graph.NodeID) []graph.NodeID) partitioner {
	p := partitioner{scheme: scheme, shards: shards, block: (n + shards - 1) / shards}
	if scheme == PartitionLocality {
		if nbrs == nil {
			p.scheme = PartitionBlock
		} else {
			p.assign = localityAssign(n, shards, nbrs)
		}
	}
	return p
}

// shardOf returns u's shard. Node IDs beyond the construction-time count
// (added at runtime by a dynamic network) overflow the locality table and
// the block quota; they clamp onto the last shard.
func (p partitioner) shardOf(u graph.NodeID) int {
	switch {
	case p.assign != nil:
		if int(u) >= len(p.assign) {
			return p.shards - 1
		}
		return int(p.assign[u])
	case p.scheme == PartitionHash:
		return int(u) % p.shards
	default:
		return min(int(u)/p.block, p.shards-1)
	}
}

// localityAssign is PartitionLocality's deterministic BFS greedy growth:
// starting from the lowest-ID unassigned node, a breadth-first frontier
// grows the current shard until it reaches the ⌈n/shards⌉ quota, then the
// next shard continues from the same frontier, so each shard is a union of
// BFS layers — contiguous in the topology regardless of how IDs were
// assigned. Disconnected components are swept up by rescanning for the
// next unassigned seed. Neighbour order is the graph's ascending adjacency
// and ties always break toward lower IDs, so the assignment is a pure
// function of the topology. Every shard receives exactly the block quota
// (the last may run short), matching PartitionBlock's balance.
func localityAssign(n, shards int, nbrs func(graph.NodeID) []graph.NodeID) []int32 {
	const unseen, queued = -1, -2
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = unseen
	}
	quota := (n + shards - 1) / shards
	queue := make([]graph.NodeID, 0, n)
	head, seed := 0, 0
	cur, filled := int32(0), 0
	for assigned := 0; assigned < n; assigned++ {
		if head == len(queue) {
			for assign[seed] != unseen {
				seed++
			}
			assign[seed] = queued
			queue = append(queue, graph.NodeID(seed))
		}
		u := queue[head]
		head++
		if filled == quota {
			cur++
			filled = 0
		}
		assign[u] = cur
		filled++
		for _, v := range nbrs(u) {
			if assign[v] == unseen {
				assign[v] = queued
				queue = append(queue, v)
			}
		}
	}
	return assign
}

// shard is RunWith's view of one runtime worker: the worker plus the
// static plane's outbox coalescing. The nodes' views are read by RunWith
// only after the WaitGroup drained.
type shard struct {
	*worker[shardMsg]
	c *runCore
	// nodes are the protocol nodes this shard owns.
	nodes []*runNode
	// coalesce indexes the current flush window's outbox entries by their
	// content (Copies zeroed), so a byte-identical repeat increments the
	// existing entry's Copies instead of appending. The key's To field pins
	// each entry to exactly one destination batch, so one map covers all
	// outboxes; it is cleared when route first runs in a new window. nil
	// when coalescing is off or no adversary is armed (reliable traffic
	// cannot repeat within a window; see startShards).
	coalesce map[shardMsg]int32
	// coalesceWindow is the worker window the coalesce map indexes.
	coalesceWindow uint64
	// coalesced counts the copies folded into pending entries; RunWith
	// sums it across shards after they exited.
	coalesced int64
}

// startShards builds the node table and the shard runtime over it and
// launches the shards.
func (c *runCore) startShards(in *core.Init, alg Algorithm, opts Options, shards int) {
	g := in.Graph()
	// The partitioner is built before the node table: newRunNodes packs the
	// bit views densely within one shard's nodes and word-aligns the
	// boundaries between shards, so it needs the ownership map up front.
	part := newPartitioner(opts.Partition, g.NumNodes(), shards, g.Neighbors)
	c.nodes = newRunNodes(in, alg, c.inj != nil, part.shardOf)
	c.rt = newShardRuntime[shardMsg](c, part, opts.MailboxCap, opts.Observer, c.stop, &c.wg)
	// Coalescing needs the per-shard dedup map only when repeats can occur
	// at all: on a reliable network a directed link carries at most one
	// transmission per flush window (a node re-reverses an edge only after
	// the neighbour reversed it back, which requires a round trip through
	// the unflushed outbox), so the map — and its per-message lookup — is
	// armed only under a fault adversary.
	coalesce := c.inj != nil && opts.Coalesce == CoalesceOn
	c.shards = make([]*shard, shards)
	for i, w := range c.rt.workers {
		c.shards[i] = &shard{worker: w, c: c}
		if coalesce {
			c.shards[i].coalesce = make(map[shardMsg]int32)
		}
	}
	for u := range c.nodes {
		s := c.shards[part.shardOf(graph.NodeID(u))]
		s.nodes = append(s.nodes, &c.nodes[u])
	}
	c.rt.start()
}

// begin and process make runCore the static plane's shardHost.
func (c *runCore) begin(i int) {
	s := c.shards[i]
	for _, nd := range s.nodes {
		nd.act(s)
	}
}

func (c *runCore) process(i int, m shardMsg) { c.shards[i].process(m) }

// announce records the beginning of a step by node u of this shard that
// reverses the edges to targets neighbours. A message the step hands to
// deliver or send is received only after announce returned — the property
// that makes a recorded trace a legal sequential execution: when trace
// recording is on, the step is appended to the shared trace under the core
// mutex before any of its messages moves (the run-queue and outboxes are
// drained only after announce returns). No per-message in-flight credit is
// taken: intra-shard deliveries finish before the shard retires the token
// it currently holds, and cross-shard batches take their own token at flush
// time.
func (s *shard) announce(u graph.NodeID, targets int) {
	s.c.record(u, targets)
	if s.obs != nil {
		s.obs.Step(u, targets)
	}
}

// deliver routes one reversal message. It is the reliable-network fast
// path; faulty traffic goes through send.
func (s *shard) deliver(to graph.NodeID, slot int32) {
	s.route(shardMsg{To: to, Slot: slot})
}

// route files one transmission by destination shard (worker.route).
// Cross-shard transmissions are counted (Stats.Remote) before coalescing,
// so the count reflects what the protocol sent, not what the transport
// shipped; a transmission byte-identical to one already in the window's
// outbox is folded into that entry's Copies instead of appending
// (Stats.Coalesced), and the receiver expands it back, so the fault
// ledger — every ack, dedup and retransmission decision downstream of the
// squashed copy — is unchanged.
func (s *shard) route(m shardMsg) {
	if s.coalesce != nil {
		if s.coalesceWindow != s.window {
			clear(s.coalesce)
			s.coalesceWindow = s.window
		}
		if d := s.rt.part.shardOf(m.To); d != s.id {
			b := s.outbox(d)
			if i, ok := s.coalesce[m]; ok && b.msgs[i].Copies < maxCopies {
				b.msgs[i].Copies++
				s.remotePending++
				s.coalesced++
				s.obs.Coalesced(1)
				return
			}
			s.coalesce[m] = int32(len(b.msgs))
		}
	}
	s.worker.route(m.To, m)
}

// send is deliver's fault-aware sibling, used only when an adversary is
// armed. It carries the full link coordinates (so a dropped transmission
// can be converted into a loss notification back to the sender), the
// per-link sequence number and retransmission attempt (the fault
// injector's decision coordinates) and the message kind, and routes the
// transmission through the fault injector (judgeSend):
// dropped payloads become loss notifications back to the sender — which is
// always a node this shard owns, so the nack lands in the local run-queue
// — and surviving copies (plus duplicates) are routed with their holdback.
// All of this traffic rides under the batch tokens, so no extra tokens are
// needed.
func (s *shard) send(from graph.NodeID, fromSlot int32, to graph.NodeID, toSlot int32, seq uint32, attempt int32, kind msgKind) {
	f, dropped, notify := s.c.judgeSend(from, to, seq, attempt, kind)
	if s.obs != nil {
		switch {
		case kind == msgAck:
			s.obs.Ack(from, to, int64(seq))
		case kind == msgData && attempt > 0:
			s.obs.Retransmit(from, to, int64(seq))
		}
	}
	if dropped {
		if notify {
			s.requeue(shardMsg{To: from, Slot: fromSlot, Seq: seq, Kind: msgNack})
			if s.obs != nil {
				s.obs.Nack(from, to, int64(seq))
			}
		}
		return
	}
	m := shardMsg{To: to, Slot: toSlot, Seq: seq, Kind: kind, Hold: uint8(f.Hold)}
	for c := 0; c <= f.Extra; c++ {
		s.route(m)
	}
}

// process resolves one transmission for delivery: a pending holdback sends
// the message to the back of the local run-queue (everything currently
// queued overtakes it — the logical-time delay; coalesced copies ride
// along, exactly as the individually-shipped copies would have been
// requeued back to back), everything else reaches the owning node. A
// coalesced message is delivered Copies+1 times, so the receiver's
// sequence-number dedup and per-copy re-acknowledgement behave exactly as
// if every copy had shipped.
func (s *shard) process(m shardMsg) {
	if m.Hold > 0 {
		m.Hold--
		s.requeue(m)
		return
	}
	nd := &s.c.nodes[m.To]
	for c := uint8(0); ; c++ {
		if s.obs != nil && m.Kind == msgData {
			s.obs.Deliver(m.To, -1, int64(m.Seq))
		}
		if nd.rel != nil {
			nd.handle(s, m)
		} else {
			nd.receive(s, m.Slot)
		}
		if c >= m.Copies {
			return
		}
	}
}
